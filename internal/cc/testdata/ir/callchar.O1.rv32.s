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
	add t5, t6, s1
	sb s2, 0(t5)
	la t5, buf
	add t6, t5, s1
	lbu t5, 0(t6)
	mv a0, t5
	lw s1, 0(sp)
	lw s2, 4(sp)
	addi sp, sp, 8
	ret
main:
	addi sp, sp, -4
	sw ra, 0(sp)
.Lmain_b0:
	li a0, 3
	li a1, 200
	call put
	mv t6, a0
	slli t5, t6, 1
	srai t6, t5, 31
	andi t4, t6, 1
	add t6, t5, t4
	srai t0, t6, 1
	la t1, result
	sw t0, 0(t1)
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
