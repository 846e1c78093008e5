# MiniC RV32 output
start:
	li sp, 524288
	call main
	ecall
mix:
	li t0, 4452
	sub sp, sp, t0
	li t1, 4424
	add t1, t1, sp
	sw s1, 0(t1)
	li t1, 4428
	add t1, t1, sp
	sw s2, 0(t1)
	li t1, 4432
	add t1, t1, sp
	sw s3, 0(t1)
	li t1, 4436
	add t1, t1, sp
	sw s4, 0(t1)
	li t1, 4440
	add t1, t1, sp
	sw s5, 0(t1)
	li t1, 4444
	add t1, t1, sp
	sw s6, 0(t1)
	li t1, 4448
	add t1, t1, sp
	sw s7, 0(t1)
	mv s1, a0
	mv s2, a1
	mv s3, a2
.Lmix_b0:
	li t1, 10
	mul s5, s1, t1
	li t1, -4
	mul s6, s2, t1
	li t1, 5000
	mul s7, s3, t1
	div t0, s1, s2
	li t1, 4400
	add t1, t1, sp
	sw t0, 0(t1)
	rem t0, s1, s3
	li t1, 4404
	add t1, t1, sp
	sw t0, 0(t1)
	neg t0, s5
	li t1, 4408
	add t1, t1, sp
	sw t0, 0(t1)
	not t0, s6
	li t1, 4412
	add t1, t1, sp
	sw t0, 0(t1)
	slli t6, s7, 2
	li t1, 4400
	add t1, t1, sp
	lw t0, 0(t1)
	srai t5, t0, 1
	add t0, t6, t5
	li t1, 4416
	add t1, t1, sp
	sw t0, 0(t1)
	addi t5, sp, 0
	li t1, 4396
	add t6, t5, t1
	li t1, 4404
	add t1, t1, sp
	lw t0, 0(t1)
	li t1, 4408
	add t1, t1, sp
	lw t1, 0(t1)
	add t5, t0, t1
	sw t5, 0(t6)
	li t0, 4416
	add t0, t0, sp
	li t1, 4420
	add t1, t1, sp
	sw t0, 0(t1)
	li t1, 4420
	add t1, t1, sp
	lw t0, 0(t1)
	lw t5, 0(t0)
	addi t6, t5, 1
	li t1, 4420
	add t1, t1, sp
	lw t0, 0(t1)
	sw t6, 0(t0)
	li t1, 4412
	add t1, t1, sp
	lw s4, 0(t1)
	la t6, tab
	addi t5, t6, 8
	la t1, tag
	lbu t1, 0(t1)
	add t6, s4, t1
	sw t6, 0(t5)
.Lmix_b1:
	li t1, 10000
	bge s1, t1, .Lmix_b3
.Lmix_b2:
	li t1, 3000
	add s1, s1, t1
	j .Lmix_b1
.Lmix_b3:
	addi t6, sp, 0
	addi t5, sp, 0
	li t1, 4396
	add t4, t5, t1
	lw t5, 0(t4)
	li t1, 5000
	sub t4, t5, t1
	sw t4, 0(t6)
	add t4, s5, s6
	add t6, t4, s7
	li t1, 4400
	add t1, t1, sp
	lw t1, 0(t1)
	add t4, t6, t1
	li t1, 4404
	add t1, t1, sp
	lw t1, 0(t1)
	add t6, t4, t1
	li t1, 4408
	add t1, t1, sp
	lw t1, 0(t1)
	add t4, t6, t1
	li t1, 4412
	add t1, t1, sp
	lw t1, 0(t1)
	add t6, t4, t1
	li t1, 4416
	add t1, t1, sp
	lw t1, 0(t1)
	add t4, t6, t1
	addi t6, sp, 0
	lw t5, 0(t6)
	add t6, t4, t5
	la t5, tab
	addi t4, t5, 8
	lw t5, 0(t4)
	add t4, t6, t5
	la t5, msg
	addi t6, t5, 1
	lbu t5, 0(t6)
	add t6, t4, t5
	li t0, 3
	sub t5, t0, s1
	add t4, t6, t5
	mv a0, t4
	li t1, 4424
	add t1, t1, sp
	lw s1, 0(t1)
	li t1, 4428
	add t1, t1, sp
	lw s2, 0(t1)
	li t1, 4432
	add t1, t1, sp
	lw s3, 0(t1)
	li t1, 4436
	add t1, t1, sp
	lw s4, 0(t1)
	li t1, 4440
	add t1, t1, sp
	lw s5, 0(t1)
	li t1, 4444
	add t1, t1, sp
	lw s6, 0(t1)
	li t1, 4448
	add t1, t1, sp
	lw s7, 0(t1)
	li t0, 4452
	add sp, sp, t0
	ret
main:
	addi sp, sp, -8
	sw ra, 4(sp)
	sw s1, 0(sp)
.Lmain_b0:
	la s1, Lstr0
	addi t6, s1, 1
	lbu t5, 0(t6)
	la t0, g
	lw t0, 0(t0)
	add t0, t0, t5
	la t1, g
	sw t0, 0(t1)
	li a0, 9
	li a1, 2
	li a2, 5
	call mix
	mv t5, a0
	la t1, g
	lw t1, 0(t1)
	add t0, t5, t1
	la t1, result
	sw t0, 0(t1)
	li a0, 0
	lw s1, 0(sp)
	lw ra, 4(sp)
	addi sp, sp, 8
	ret

# data
	.align 4
tag:
	.byte 7
	.align 4
g:
	.word -3
	.align 4
msg:
	.asciz "abc"
	.space 4
	.align 4
tab:
	.space 16
	.align 4
result:
	.word 0
	.align 4
Lstr0:
	.asciz "hi"
	.align 4
