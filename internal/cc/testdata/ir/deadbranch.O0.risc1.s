; MiniC RISC I output
start:
	li r1, 524288		; data stack pointer
	call main
	nop
	mov r2, r10		; exit value of main
	ret
	nop
main:
.Lmain_b0:
	li r24, 6
	li r23, 7
	mov r10, r24
	mov r11, r23
	call __mul
	nop
	mov r22, r10
	mov r16, r22
	mov r22, r16
	li r23, 100
	sub. r0, r22, r23
	ble .Lmain_b2
	nop
.Lmain_b1:
	li r23, 1
	li r22, 0
	mov r10, r23
	mov r11, r22
	call __div
	nop
	mov r24, r10
	li r9, result
	stl r24, r9, 0
	ba .Lmain_b3
	nop
.Lmain_b2:
	mov r24, r16
	li r22, 0
	sub r23, r24, r22
	li r9, result
	stl r23, r9, 0
.Lmain_b3:
	li r23, 0
	mov r26, r23
	ret
	nop
.Lmain_b4:
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
result:
	.word 0
	.align 4
