; MiniC CISC baseline output
start:
	calls $0, main
	halt
mix:
	.entry r6, r7, r8, r9, r10, r11
	subl2 $4428, sp
.Lmix_b0:
	movl 4(ap), r3
	movl $10, r2
	mull3 r3, r2, r1
	movl r1, r7
	movl 8(ap), r1
	movl $4, r2
	mnegl r2, r3
	mull3 r1, r3, r2
	movl r2, r8
	movl 12(ap), r2
	movl $5000, r3
	mull3 r2, r3, r1
	movl r1, r9
	movl 4(ap), r1
	movl 8(ap), r3
	divl3 r3, r1, r2
	movl r2, r10
	movl 4(ap), r2
	movl 12(ap), r3
	divl3 r3, r2, r1
	mull2 r3, r1
	subl3 r1, r2, r1
	movl r1, r11
	movl r7, r1
	mnegl r1, r3
	movl r3, -4404(fp)
	movl r8, r3
	mcoml r3, r1
	movl r1, -4408(fp)
	movl r9, r1
	movl $2, r3
	ashl r3, r1, r2
	movl r10, r3
	movl $1, r1
	mnegl r1, r5
	ashl r5, r3, r0
	addl3 r2, r0, r1
	movl r1, -4412(fp)
	moval -4400(fp), r1
	movl $1099, r0
	movl $2, r2
	ashl r2, r0, r3
	addl3 r1, r3, r2
	movl r11, r3
	movl -4404(fp), r1
	addl3 r3, r1, r0
	movl r0, (r2)
	moval -4412(fp), r0
	movl r0, -4416(fp)
	movl -4416(fp), r0
	movl -4416(fp), r2
	movl (r2), r1
	movl $1, r2
	addl3 r1, r2, r3
	movl r3, (r0)
	movl -4408(fp), r3
	movl r3, r6
	moval tab, r3
	movl $2, r0
	movl $2, r2
	ashl r2, r0, r1
	addl3 r3, r1, r2
	movl r6, r1
	movzbl tag, r3
	addl3 r1, r3, r0
	movl r0, (r2)
.Lmix_b1:
	movl 4(ap), r0
	movl $10000, r2
	cmpl r0, r2
	bgeq .Lmix_b3
.Lmix_b2:
	movl 4(ap), r2
	movl $3000, r0
	addl3 r2, r0, r3
	movl r3, 4(ap)
	brw .Lmix_b1
.Lmix_b3:
	moval -4400(fp), r3
	clrl r0
	movl $2, r2
	ashl r2, r0, r1
	addl3 r3, r1, -4420(fp)
	moval -4400(fp), r1
	movl $1099, r3
	movl $2, r0
	ashl r0, r3, r2
	addl3 r1, r2, r0
	movl (r0), r2
	movl $5000, r0
	subl3 r0, r2, r1
	movl -4420(fp), r4
	movl r1, (r4)
	movl r7, r1
	movl r8, r0
	addl3 r1, r0, r2
	movl r9, r0
	addl3 r2, r0, r1
	movl r10, r0
	addl3 r1, r0, r2
	movl r11, r0
	addl3 r2, r0, r1
	movl -4404(fp), r0
	addl3 r1, r0, r2
	movl -4408(fp), r0
	addl3 r2, r0, r1
	movl -4412(fp), r0
	addl3 r1, r0, -4424(fp)
	moval -4400(fp), r0
	clrl r1
	movl $2, r3
	ashl r3, r1, r2
	addl3 r0, r2, r3
	movl (r3), r2
	addl3 -4424(fp), r2, -4428(fp)
	moval tab, r2
	movl $2, r0
	movl $2, r1
	ashl r1, r0, r3
	addl3 r2, r3, r1
	movl (r1), r3
	addl3 -4428(fp), r3, r1
	moval msg, r3
	movl $1, r2
	addl3 r3, r2, r0
	movzbl (r0), r2
	addl3 r1, r2, r0
	movl $3, r2
	movl 4(ap), r1
	subl3 r1, r2, r3
	addl3 r0, r3, r1
	movl r1, r0
	ret
.Lmix_b4:
	clrl r0
	ret
main:
	.entry r6
.Lmain_b0:
	moval Lstr0, r3
	movl r3, r6
	movl g, r3
	movl r6, r2
	movl $1, r1
	addl3 r2, r1, r0
	movzbl (r0), r1
	addl3 r3, r1, r0
	movl r0, g
	movl $9, r0
	movl $2, r1
	movl $5, r3
	pushl r3
	pushl r1
	pushl r0
	calls $3, mix
	movl r0, r2
	movl g, r3
	addl3 r2, r3, r1
	movl r1, result
	clrl r1
	movl r1, r0
	ret
.Lmain_b1:
	clrl r0
	ret

; data
	.align 4
tag:
	.byte 7
	.align 4
g:
	.word -3
	.align 4
msg:
	.asciz "abc"
	.space 4
	.align 4
tab:
	.space 16
	.align 4
result:
	.word 0
	.align 4
Lstr0:
	.asciz "hi"
	.align 4
