; MiniC CISC baseline output
start:
	calls $0, main
	halt
main:
	.entry r6
.Lmain_b0:
	movl $42, r6
.Lmain_b2:
	movl r6, result
.Lmain_b3:
	clrl r0
	ret

; data
	.align 4
result:
	.word 0
	.align 4
