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
	li r17, 0
	li r16, 0
.Lmain_b1:
	sub. r0, r16, 10
	bge .Lmain_b4
	nop
.Lmain_b2:
	sll r24, r16, 3
	add r17, r17, r24
.Lmain_b3:
	add r16, r16, 1
	ba .Lmain_b1
	nop
.Lmain_b4:
	li r9, result
	stl r17, r9, 0
	li r26, 0
	ret
	nop

; data
	.align 4
result:
	.word 0
	.align 4
