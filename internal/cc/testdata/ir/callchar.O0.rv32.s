# MiniC RV32 output
start:
	li sp, 524288
	call main
	ecall
put:
	addi sp, sp, -8
	sw s1, 0(sp)
	sw s2, 4(sp)
	mv s1, a0
	mv s2, a1
.Lput_b0:
	la t6, buf
	mv t5, s1
	add t4, t6, t5
	mv t5, s2
	li t6, 0
	add t3, t5, t6
	sb t3, 0(t4)
	la t3, buf
	mv t4, s1
	add t6, t3, t4
	lbu t4, 0(t6)
	mv a0, t4
	lw s1, 0(sp)
	lw s2, 4(sp)
	addi sp, sp, 8
	ret
.Lput_b1:
	li a0, 0
	lw s1, 0(sp)
	lw s2, 4(sp)
	addi sp, sp, 8
	ret
main:
	addi sp, sp, -4
	sw ra, 0(sp)
.Lmain_b0:
	li t6, 3
	li t5, 200
	mv a0, t6
	mv a1, t5
	call put
	mv t4, a0
	li t5, 2
	mul t6, t4, t5
	li t5, 2
	div t4, t6, t5
	la t1, result
	sw t4, 0(t1)
	li t4, 0
	mv a0, t4
	lw ra, 0(sp)
	addi sp, sp, 4
	ret
.Lmain_b1:
	li a0, 0
	lw ra, 0(sp)
	addi sp, sp, 4
	ret

# data
	.align 4
buf:
	.space 8
	.align 4
result:
	.word 0
	.align 4
