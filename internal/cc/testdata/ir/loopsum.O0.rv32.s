# MiniC RV32 output
start:
	li sp, 524288
	call main
	ecall
main:
	addi sp, sp, -8
	sw s1, 0(sp)
	sw s2, 4(sp)
.Lmain_b0:
	li t6, 0
	mv s2, t6
	li t6, 0
	mv s1, t6
.Lmain_b1:
	mv t6, s1
	li t5, 10
	bge t6, t5, .Lmain_b4
.Lmain_b2:
	mv t5, s2
	mv t6, s1
	li t4, 8
	mul t3, t6, t4
	add t4, t5, t3
	mv s2, t4
.Lmain_b3:
	mv t4, s1
	li t3, 1
	add t5, t4, t3
	mv s1, t5
	j .Lmain_b1
.Lmain_b4:
	mv t5, s2
	la t1, result
	sw t5, 0(t1)
	li t5, 0
	mv a0, t5
	lw s1, 0(sp)
	lw s2, 4(sp)
	addi sp, sp, 8
	ret
.Lmain_b5:
	li a0, 0
	lw s1, 0(sp)
	lw s2, 4(sp)
	addi sp, sp, 8
	ret

# data
	.align 4
result:
	.word 0
	.align 4
