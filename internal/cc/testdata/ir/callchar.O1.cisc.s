; MiniC CISC baseline output
start:
	calls $0, main
	halt
put:
	.entry 
.Lput_b0:
	moval buf, r3
	addl3 r3, 4(ap), r2
	movb 8(ap), (r2)
	moval buf, r2
	addl3 r2, 4(ap), r3
	movzbl (r3), r2
	movl r2, r0
	ret
main:
	.entry 
.Lmain_b0:
	pushl $200
	pushl $3
	calls $2, put
	movl r0, r3
	ashl $1, r3, r2
	ashl $-31, r2, r3
	andl3 r3, $1, r1
	addl3 r2, r1, r3
	ashl $-1, r3, result
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
