# MiniC RV32 output
start:
	li sp, 524288
	call main
	ecall
main:
	addi sp, sp, -4
	sw s1, 0(sp)
.Lmain_b0:
	li s1, 42
.Lmain_b2:
	la t1, result
	sw s1, 0(t1)
.Lmain_b3:
	li a0, 0
	lw s1, 0(sp)
	addi sp, sp, 4
	ret

# data
	.align 4
result:
	.word 0
	.align 4
