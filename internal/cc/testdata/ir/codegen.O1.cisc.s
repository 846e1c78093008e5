; MiniC CISC baseline output
start:
	calls $0, main
	halt
mix:
	.entry r6, r7, r8, r9, r10, r11
	subl2 $4416, sp
.Lmix_b0:
	mull3 4(ap), $10, r7
	mull3 8(ap), $-4, r8
	mull3 12(ap), $5000, r9
	divl3 8(ap), 4(ap), r10
	divl3 12(ap), 4(ap), r11
	mull2 12(ap), r11
	subl3 r11, 4(ap), r11
	mnegl r7, -4404(fp)
	mcoml r8, -4408(fp)
	ashl $2, r9, r3
	ashl $-1, r10, r2
	addl3 r3, r2, -4412(fp)
	moval -4400(fp), r2
	addl3 r2, $4396, r3
	addl3 r11, -4404(fp), r2
	movl r2, (r3)
	moval -4412(fp), -4416(fp)
	movl -4416(fp), r4
	movl (r4), r2
	addl3 r2, $1, r3
	movl -4416(fp), r4
	movl r3, (r4)
	movl -4408(fp), r6
	moval tab, r3
	addl3 r3, $8, r2
	movzbl tag, r5
	addl3 r6, r5, r3
	movl r3, (r2)
.Lmix_b1:
	cmpl 4(ap), $10000
	bgeq .Lmix_b3
.Lmix_b2:
	addl2 $3000, 4(ap)
	brw .Lmix_b1
.Lmix_b3:
	moval -4400(fp), r3
	moval -4400(fp), r2
	addl3 r2, $4396, r1
	movl (r1), r2
	subl3 $5000, r2, r1
	movl r1, (r3)
	addl3 r7, r8, r1
	addl3 r1, r9, r3
	addl3 r3, r10, r1
	addl3 r1, r11, r3
	addl3 r3, -4404(fp), r1
	addl3 r1, -4408(fp), r3
	addl3 r3, -4412(fp), r1
	moval -4400(fp), r3
	movl (r3), r2
	addl3 r1, r2, r3
	moval tab, r2
	addl3 r2, $8, r1
	movl (r1), r2
	addl3 r3, r2, r1
	moval msg, r2
	addl3 r2, $1, r3
	movzbl (r3), r2
	addl3 r1, r2, r3
	subl3 4(ap), $3, r2
	addl3 r3, r2, r1
	movl r1, r0
	ret
main:
	.entry r6
.Lmain_b0:
	moval Lstr0, r6
	addl3 r6, $1, r3
	movzbl (r3), r2
	addl2 r2, g
	pushl $5
	pushl $2
	pushl $9
	calls $3, mix
	movl r0, r2
	addl3 r2, g, result
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
