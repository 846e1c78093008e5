; MiniC RISC I output
start:
	li r1, 524288		; data stack pointer
	call main
	nop
	mov r2, r10		; exit value of main
	ret
	nop
put:
.Lput_b0:
	li r24, buf
	add r23, r24, r26
	stb r27, r23, 0
	li r23, buf
	add r24, r23, r26
	ldbu r23, r24, 0
	mov r26, r23
	ret
	nop
main:
.Lmain_b0:
	li r10, 3
	li r11, 200
	call put
	nop
	mov r24, r10
	sll r23, r24, 1
	sra r24, r23, 31
	and r22, r24, 1
	add r24, r23, r22
	sra r8, r24, 1
	li r9, result
	stl r8, r9, 0
	li r26, 0
	ret
	nop

; data
	.align 4
buf:
	.space 8
	.align 4
result:
	.word 0
	.align 4
