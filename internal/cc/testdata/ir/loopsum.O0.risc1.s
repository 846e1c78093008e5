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
	li r24, 0
	mov r17, r24
	li r24, 0
	mov r16, r24
.Lmain_b1:
	mov r24, r16
	li r23, 10
	sub. r0, r24, r23
	bge .Lmain_b4
	nop
.Lmain_b2:
	mov r23, r17
	mov r24, r16
	li r22, 8
	mov r10, r24
	mov r11, r22
	call __mul
	nop
	mov r21, r10
	add r22, r23, r21
	mov r17, r22
.Lmain_b3:
	mov r22, r16
	li r21, 1
	add r23, r22, r21
	mov r16, r23
	ba .Lmain_b1
	nop
.Lmain_b4:
	mov r23, r17
	li r9, result
	stl r23, r9, 0
	li r23, 0
	mov r26, r23
	ret
	nop
.Lmain_b5:
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

; data
	.align 4
result:
	.word 0
	.align 4
