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
	li s2, 0
	li s1, 0
.Lmain_b1:
	li t1, 10
	bge s1, t1, .Lmain_b4
.Lmain_b2:
	slli t6, s1, 3
	add s2, s2, t6
.Lmain_b3:
	addi s1, s1, 1
	j .Lmain_b1
.Lmain_b4:
	la t1, result
	sw s2, 0(t1)
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
