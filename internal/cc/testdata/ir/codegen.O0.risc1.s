; MiniC RISC I output
start:
	li r1, 524288		; data stack pointer
	call main
	nop
	mov r2, r10		; exit value of main
	ret
	nop
mix:
	sub r1, r1, 4432	; frame for arrays/spilled locals
.Lmix_b0:
	mov r24, r26
	li r23, 10
	mov r10, r24
	mov r11, r23
	call __mul
	nop
	mov r22, r10
	mov r17, r22
	mov r22, r27
	li r23, 4
	subr r24, r23, 0
	mov r10, r22
	mov r11, r24
	call __mul
	nop
	mov r23, r10
	mov r18, r23
	mov r23, r28
	li r24, 5000
	mov r10, r23
	mov r11, r24
	call __mul
	nop
	mov r22, r10
	mov r19, r22
	mov r22, r26
	mov r24, r27
	mov r10, r22
	mov r11, r24
	call __div
	nop
	mov r23, r10
	mov r20, r23
	mov r23, r26
	mov r24, r28
	mov r10, r23
	mov r11, r24
	call __mod
	nop
	mov r22, r10
	li r9, 4400
	add r9, r1, r9
	stl r22, r9, 0
	mov r22, r17
	subr r24, r22, 0
	li r9, 4404
	add r9, r1, r9
	stl r24, r9, 0
	mov r24, r18
	xor r22, r24, -1
	li r9, 4408
	add r9, r1, r9
	stl r22, r9, 0
	mov r22, r19
	li r24, 2
	sll r23, r22, r24
	mov r24, r20
	li r22, 1
	sra r21, r24, r22
	add r22, r23, r21
	li r9, 4412
	add r9, r1, r9
	stl r22, r9, 0
	add r22, r1, 0
	li r21, 1099
	li r23, 2
	sll r24, r21, r23
	add r23, r22, r24
	li r9, 4400
	add r9, r1, r9
	ldl r24, r9, 0
	li r9, 4404
	add r9, r1, r9
	ldl r22, r9, 0
	add r21, r24, r22
	stl r21, r23, 0
	li r21, 4412
	add r21, r1, r21
	li r9, 4416
	add r9, r1, r9
	stl r21, r9, 0
	li r9, 4416
	add r9, r1, r9
	ldl r21, r9, 0
	li r9, 4416
	add r9, r1, r9
	ldl r23, r9, 0
	ldl r22, r23, 0
	li r23, 1
	add r24, r22, r23
	stl r24, r21, 0
	li r9, 4408
	add r9, r1, r9
	ldl r24, r9, 0
	mov r16, r24
	li r24, tab
	li r21, 2
	li r23, 2
	sll r22, r21, r23
	add r23, r24, r22
	mov r22, r16
	li r24, tag
	ldbu r24, r24, 0
	add r21, r22, r24
	stl r21, r23, 0
.Lmix_b1:
	mov r21, r26
	li r23, 10000
	sub. r0, r21, r23
	bge .Lmix_b3
	nop
.Lmix_b2:
	mov r23, r26
	li r21, 3000
	add r24, r23, r21
	mov r26, r24
	ba .Lmix_b1
	nop
.Lmix_b3:
	add r24, r1, 0
	li r21, 0
	li r23, 2
	sll r22, r21, r23
	add r8, r24, r22
	li r9, 4420
	add r9, r1, r9
	stl r8, r9, 0
	add r22, r1, 0
	li r24, 1099
	li r21, 2
	sll r23, r24, r21
	add r21, r22, r23
	ldl r23, r21, 0
	li r21, 5000
	sub r22, r23, r21
	li r9, 4420
	add r9, r1, r9
	ldl r8, r9, 0
	stl r22, r8, 0
	mov r22, r17
	mov r21, r18
	add r23, r22, r21
	mov r21, r19
	add r22, r23, r21
	mov r21, r20
	add r23, r22, r21
	li r9, 4400
	add r9, r1, r9
	ldl r21, r9, 0
	add r22, r23, r21
	li r9, 4404
	add r9, r1, r9
	ldl r21, r9, 0
	add r23, r22, r21
	li r9, 4408
	add r9, r1, r9
	ldl r21, r9, 0
	add r22, r23, r21
	li r9, 4412
	add r9, r1, r9
	ldl r21, r9, 0
	add r8, r22, r21
	li r9, 4424
	add r9, r1, r9
	stl r8, r9, 0
	add r21, r1, 0
	li r22, 0
	li r24, 2
	sll r23, r22, r24
	add r24, r21, r23
	ldl r23, r24, 0
	li r9, 4424
	add r9, r1, r9
	ldl r8, r9, 0
	add r8, r8, r23
	li r9, 4428
	add r9, r1, r9
	stl r8, r9, 0
	li r23, tab
	li r21, 2
	li r22, 2
	sll r24, r21, r22
	add r22, r23, r24
	ldl r24, r22, 0
	li r9, 4428
	add r9, r1, r9
	ldl r8, r9, 0
	add r22, r8, r24
	li r24, msg
	li r23, 1
	add r21, r24, r23
	ldbu r23, r21, 0
	add r21, r22, r23
	li r23, 3
	mov r22, r26
	sub r24, r23, r22
	add r22, r21, r24
	mov r26, r22
	add r1, r1, 4432
	ret
	nop
.Lmix_b4:
	mov r26, 0
	add r1, r1, 4432
	ret
	nop
main:
.Lmain_b0:
	li r24, Lstr0
	mov r16, r24
	li r24, g
	ldl r24, r24, 0
	mov r23, r16
	li r22, 1
	add r21, r23, r22
	ldbu r22, r21, 0
	add r21, r24, r22
	li r9, g
	stl r21, r9, 0
	li r21, 9
	li r22, 2
	li r24, 5
	mov r10, r21
	mov r11, r22
	mov r12, r24
	call mix
	nop
	mov r23, r10
	li r24, g
	ldl r24, r24, 0
	add r22, r23, r24
	li r9, result
	stl r22, r9, 0
	li r22, 0
	mov r26, r22
	ret
	nop
.Lmain_b1:
	mov r26, 0
	ret
	nop

; signed/unsigned 32-bit multiply (low word): shift-and-add
__mul:
	mov r16, 0		; accumulator
	mov r17, r26		; multiplicand
	mov r18, r27		; multiplier
.Lmul_loop:
	sub. r0, r18, 0
	beq .Lmul_done
	nop
	and. r0, r18, 1
	beq .Lmul_skip
	nop
	add r16, r16, r17
.Lmul_skip:
	sll r17, r17, 1
	srl r18, r18, 1
	ba .Lmul_loop
	nop
.Lmul_done:
	mov r26, r16
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
