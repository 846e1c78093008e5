# MiniC RV32 output
start:
	li sp, 524288
	call main
	ecall
main:
	addi sp, sp, -4
	sw s1, 0(sp)
.Lmain_b0:
	li t6, 6
	li t5, 7
	mul t4, t6, t5
	mv s1, t4
	mv t4, s1
	li t5, 100
	ble t4, t5, .Lmain_b2
.Lmain_b1:
	li t5, 1
	li t4, 0
	div t6, t5, t4
	la t1, result
	sw t6, 0(t1)
	j .Lmain_b3
.Lmain_b2:
	mv t6, s1
	li t4, 0
	sub t5, t6, t4
	la t1, result
	sw t5, 0(t1)
.Lmain_b3:
	li t5, 0
	mv a0, t5
	lw s1, 0(sp)
	addi sp, sp, 4
	ret
.Lmain_b4:
	li a0, 0
	lw s1, 0(sp)
	addi sp, sp, 4
	ret

# data
	.align 4
result:
	.word 0
	.align 4
