; MiniC CISC baseline output
start:
	calls $0, main
	halt
put:
	.entry 
.Lput_b0:
	moval buf, r3
	movl 4(ap), r2
	addl3 r3, r2, r1
	movl 8(ap), r2
	clrl r3
	addl3 r2, r3, r0
	movb r0, (r1)
	moval buf, r0
	movl 4(ap), r1
	addl3 r0, r1, r3
	movzbl (r3), r1
	movl r1, r0
	ret
.Lput_b1:
	clrl r0
	ret
main:
	.entry 
.Lmain_b0:
	movl $3, r3
	movl $200, r2
	pushl r2
	pushl r3
	calls $2, put
	movl r0, r1
	movl $2, r2
	mull3 r1, r2, r3
	movl $2, r2
	divl3 r2, r3, r1
	movl r1, result
	clrl r1
	movl r1, r0
	ret
.Lmain_b1:
	clrl r0
	ret

; data
	.align 4
buf:
	.space 8
	.align 4
result:
	.word 0
	.align 4
