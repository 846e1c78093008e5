; MiniC CISC baseline output
start:
	calls $0, main
	halt
main:
	.entry r6
.Lmain_b0:
	movl $6, r3
	movl $7, r2
	mull3 r3, r2, r1
	movl r1, r6
	movl r6, r1
	movl $100, r2
	cmpl r1, r2
	bleq .Lmain_b2
.Lmain_b1:
	movl $1, r2
	clrl r1
	divl3 r1, r2, r3
	movl r3, result
	brw .Lmain_b3
.Lmain_b2:
	movl r6, r3
	clrl r1
	subl3 r1, r3, r2
	movl r2, result
.Lmain_b3:
	clrl r2
	movl r2, r0
	ret
.Lmain_b4:
	clrl r0
	ret

; data
	.align 4
result:
	.word 0
	.align 4
