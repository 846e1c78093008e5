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
	mv t6, s1
	li t5, 10
	mul t4, t6, t5
	mv s5, t4
	mv t4, s2
	li t5, 4
	neg t6, t5
	mul t5, t4, t6
	mv s6, t5
	mv t5, s3
	li t6, 5000
	mul t4, t5, t6
	mv s7, t4
	mv t4, s1
	mv t6, s2
	div t5, t4, t6
	li t1, 4400
	add t1, t1, sp
	sw t5, 0(t1)
	mv t5, s1
	mv t6, s3
	rem t4, t5, t6
	li t1, 4404
	add t1, t1, sp
	sw t4, 0(t1)
	mv t4, s5
	neg t6, t4
	li t1, 4408
	add t1, t1, sp
	sw t6, 0(t1)
	mv t6, s6
	not t4, t6
	li t1, 4412
	add t1, t1, sp
	sw t4, 0(t1)
	mv t4, s7
	li t6, 2
	sll t5, t4, t6
	li t1, 4400
	add t1, t1, sp
	lw t6, 0(t1)
	li t4, 1
	sra t3, t6, t4
	add t4, t5, t3
	li t1, 4416
	add t1, t1, sp
	sw t4, 0(t1)
	addi t4, sp, 0
	li t3, 1099
	li t5, 2
	sll t6, t3, t5
	add t5, t4, t6
	li t1, 4404
	add t1, t1, sp
	lw t6, 0(t1)
	li t1, 4408
	add t1, t1, sp
	lw t4, 0(t1)
	add t3, t6, t4
	sw t3, 0(t5)
	li t3, 4416
	add t3, t3, sp
	li t1, 4420
	add t1, t1, sp
	sw t3, 0(t1)
	li t1, 4420
	add t1, t1, sp
	lw t3, 0(t1)
	li t1, 4420
	add t1, t1, sp
	lw t5, 0(t1)
	lw t4, 0(t5)
	li t5, 1
	add t6, t4, t5
	sw t6, 0(t3)
	li t1, 4412
	add t1, t1, sp
	lw t6, 0(t1)
	mv s4, t6
	la t6, tab
	li t3, 2
	li t5, 2
	sll t4, t3, t5
	add t5, t6, t4
	mv t4, s4
	la t6, tag
	lbu t6, 0(t6)
	add t3, t4, t6
	sw t3, 0(t5)
.Lmix_b1:
	mv t3, s1
	li t5, 10000
	bge t3, t5, .Lmix_b3
.Lmix_b2:
	mv t5, s1
	li t3, 3000
	add t6, t5, t3
	mv s1, t6
	j .Lmix_b1
.Lmix_b3:
	addi t6, sp, 0
	li t3, 0
	li t5, 2
	sll t4, t3, t5
	add t5, t6, t4
	addi t4, sp, 0
	li t6, 1099
	li t3, 2
	sll t2, t6, t3
	add t3, t4, t2
	lw t2, 0(t3)
	li t3, 5000
	sub t4, t2, t3
	sw t4, 0(t5)
	mv t4, s5
	mv t5, s6
	add t3, t4, t5
	mv t5, s7
	add t4, t3, t5
	li t1, 4400
	add t1, t1, sp
	lw t5, 0(t1)
	add t3, t4, t5
	li t1, 4404
	add t1, t1, sp
	lw t5, 0(t1)
	add t4, t3, t5
	li t1, 4408
	add t1, t1, sp
	lw t5, 0(t1)
	add t3, t4, t5
	li t1, 4412
	add t1, t1, sp
	lw t5, 0(t1)
	add t4, t3, t5
	li t1, 4416
	add t1, t1, sp
	lw t5, 0(t1)
	add t3, t4, t5
	addi t5, sp, 0
	li t4, 0
	li t2, 2
	sll t6, t4, t2
	add t2, t5, t6
	lw t6, 0(t2)
	add t2, t3, t6
	la t6, tab
	li t3, 2
	li t5, 2
	sll t4, t3, t5
	add t5, t6, t4
	lw t4, 0(t5)
	add t5, t2, t4
	la t4, msg
	li t2, 1
	add t6, t4, t2
	lbu t2, 0(t6)
	add t6, t5, t2
	li t2, 3
	mv t5, s1
	sub t4, t2, t5
	add t5, t6, t4
	mv a0, t5
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
.Lmix_b4:
	li a0, 0
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
	la t6, Lstr0
	mv s1, t6
	la t6, g
	lw t6, 0(t6)
	mv t5, s1
	li t4, 1
	add t3, t5, t4
	lbu t4, 0(t3)
	add t3, t6, t4
	la t1, g
	sw t3, 0(t1)
	li t3, 9
	li t4, 2
	li t6, 5
	mv a0, t3
	mv a1, t4
	mv a2, t6
	call mix
	mv t5, a0
	la t6, g
	lw t6, 0(t6)
	add t4, t5, t6
	la t1, result
	sw t4, 0(t1)
	li t4, 0
	mv a0, t4
	lw s1, 0(sp)
	lw ra, 4(sp)
	addi sp, sp, 8
	ret
.Lmain_b1:
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
