; MiniC CISC baseline output
start:
	calls $0, main
	halt
main:
	.entry r6, r7
.Lmain_b0:
	clrl r7
	clrl r6
.Lmain_b1:
	cmpl r6, $10
	bgeq .Lmain_b4
.Lmain_b2:
	ashl $3, r6, r3
	addl2 r3, r7
.Lmain_b3:
	addl2 $1, r6
	brw .Lmain_b1
.Lmain_b4:
	movl r7, result
	clrl r0
	ret

; data
	.align 4
result:
	.word 0
	.align 4
