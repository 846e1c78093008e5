; MiniC RISC I output
start:
	li r1, 524288		; data stack pointer
	call main
	nop
	mov r2, r10		; exit value of main
	ret
	nop
mix:
	sub r1, r1, 4420	; frame for arrays/spilled locals
.Lmix_b0:
	mov r17, r26
	mov r8, r17
	sll r17, r17, 1
	sll r9, r8, 3
	add r17, r17, r9
	mov r18, r27
	sll r18, r18, 2
	subr r18, r18, 0
	mov r19, r28
	mov r8, r19
	sll r19, r19, 3
	sll r9, r8, 7
	add r19, r19, r9
	sll r9, r8, 8
	add r19, r19, r9
	sll r9, r8, 9
	add r19, r19, r9
	sll r9, r8, 12
	add r19, r19, r9
	mov r10, r26
	mov r11, r27
	call __div
	nop
	mov r20, r10
	mov r10, r26
	mov r11, r28
	call __mod
	nop
	li r9, 4400
	add r9, r1, r9
	stl r10, r9, 0
	subr r8, r17, 0
	li r9, 4404
	add r9, r1, r9
	stl r8, r9, 0
	xor r8, r18, -1
	li r9, 4408
	add r9, r1, r9
	stl r8, r9, 0
	sll r24, r19, 2
	sra r23, r20, 1
	add r8, r24, r23
	li r9, 4412
	add r9, r1, r9
	stl r8, r9, 0
	add r23, r1, 0
	li r9, 4396
	add r24, r23, r9
	li r9, 4400
	add r9, r1, r9
	ldl r8, r9, 0
	li r9, 4404
	add r9, r1, r9
	ldl r9, r9, 0
	add r23, r8, r9
	stl r23, r24, 0
	li r8, 4412
	add r8, r1, r8
	li r9, 4416
	add r9, r1, r9
	stl r8, r9, 0
	li r9, 4416
	add r9, r1, r9
	ldl r8, r9, 0
	ldl r23, r8, 0
	add r24, r23, 1
	li r9, 4416
	add r9, r1, r9
	ldl r8, r9, 0
	stl r24, r8, 0
	li r9, 4408
	add r9, r1, r9
	ldl r16, r9, 0
	li r24, tab
	add r23, r24, 8
	li r9, tag
	ldbu r9, r9, 0
	add r24, r16, r9
	stl r24, r23, 0
.Lmix_b1:
	li r9, 10000
	sub. r0, r26, r9
	bge .Lmix_b3
	nop
.Lmix_b2:
	add r26, r26, 3000
	ba .Lmix_b1
	nop
.Lmix_b3:
	add r24, r1, 0
	add r23, r1, 0
	li r9, 4396
	add r22, r23, r9
	ldl r23, r22, 0
	li r9, 5000
	sub r22, r23, r9
	stl r22, r24, 0
	add r22, r17, r18
	add r24, r22, r19
	add r22, r24, r20
	li r9, 4400
	add r9, r1, r9
	ldl r9, r9, 0
	add r24, r22, r9
	li r9, 4404
	add r9, r1, r9
	ldl r9, r9, 0
	add r22, r24, r9
	li r9, 4408
	add r9, r1, r9
	ldl r9, r9, 0
	add r24, r22, r9
	li r9, 4412
	add r9, r1, r9
	ldl r9, r9, 0
	add r22, r24, r9
	add r24, r1, 0
	ldl r23, r24, 0
	add r24, r22, r23
	li r23, tab
	add r22, r23, 8
	ldl r23, r22, 0
	add r22, r24, r23
	li r23, msg
	add r24, r23, 1
	ldbu r23, r24, 0
	add r24, r22, r23
	subr r23, r26, 3
	add r22, r24, r23
	mov r26, r22
	add r1, r1, 4420
	ret
	nop
main:
.Lmain_b0:
	li r16, Lstr0
	add r24, r16, 1
	ldbu r23, r24, 0
	li r8, g
	ldl r8, r8, 0
	add r8, r8, r23
	li r9, g
	stl r8, r9, 0
	li r10, 9
	li r11, 2
	li r12, 5
	call mix
	nop
	mov r23, r10
	li r9, g
	ldl r9, r9, 0
	add r8, r23, r9
	li r9, result
	stl r8, r9, 0
	li r26, 0
	ret
	nop

; signed 32-bit divide and modulo via restoring unsigned division.
; __udivmod: r26=dividend r27=divisor -> r26=quotient r27=remainder
__udivmod:
	mov r16, 0		; quotient
	mov r17, 0		; remainder
	mov r18, 32		; bit counter
.Ludm_loop:
	sll r17, r17, 1
	srl r19, r26, 31
	or r17, r17, r19
	sll r26, r26, 1
	sll r16, r16, 1
	sub. r0, r17, r27	; unsigned compare remainder vs divisor
	blo .Ludm_skip		; remainder < divisor: leave bit clear
	nop
	sub r17, r17, r27
	add r16, r16, 1
.Ludm_skip:
	sub. r18, r18, 1
	bne .Ludm_loop
	nop
	mov r26, r16
	mov r27, r17
	ret
	nop

; __div: r26=a r27=b -> r26 = a/b (truncated)
__div:
	xor r20, r26, r27	; sign of the quotient
	sub. r0, r26, 0
	bge .Ldiv_ap
	nop
	subr r26, r26, 0
.Ldiv_ap:
	sub. r0, r27, 0
	bge .Ldiv_bp
	nop
	subr r27, r27, 0
.Ldiv_bp:
	mov r10, r26
	mov r11, r27
	call __udivmod
	nop
	mov r26, r10
	sub. r0, r20, 0
	bge .Ldiv_pos
	nop
	subr r26, r26, 0
.Ldiv_pos:
	ret
	nop

; __mod: r26=a r27=b -> r26 = a%b (sign follows the dividend, as in C)
__mod:
	mov r21, r26		; remember the dividend's sign
	sub. r0, r26, 0
	bge .Lmod_ap
	nop
	subr r26, r26, 0
.Lmod_ap:
	sub. r0, r27, 0
	bge .Lmod_bp
	nop
	subr r27, r27, 0
.Lmod_bp:
	mov r10, r26
	mov r11, r27
	call __udivmod
	nop
	mov r26, r11		; remainder
	sub. r0, r21, 0
	bge .Lmod_pos
	nop
	subr r26, r26, 0
.Lmod_pos:
	ret
	nop

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
