; MiniC CISC baseline output
start:
	calls $0, main
	halt
main:
	.entry r6, r7
.Lmain_b0:
	clrl r3
	movl r3, r7
	clrl r3
	movl r3, r6
.Lmain_b1:
	movl r6, r3
	movl $10, r2
	cmpl r3, r2
	bgeq .Lmain_b4
.Lmain_b2:
	movl r7, r2
	movl r6, r3
	movl $8, r1
	mull3 r3, r1, r0
	addl3 r2, r0, r1
	movl r1, r7
.Lmain_b3:
	movl r6, r1
	movl $1, r0
	addl3 r1, r0, r2
	movl r2, r6
	brw .Lmain_b1
.Lmain_b4:
	movl r7, r2
	movl r2, result
	clrl r2
	movl r2, r0
	ret
.Lmain_b5:
	clrl r0
	ret

; data
	.align 4
result:
	.word 0
	.align 4
