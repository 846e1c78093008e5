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
	li r16, 42
.Lmain_b2:
	li r9, result
	stl r16, r9, 0
.Lmain_b3:
	li r26, 0
	ret
	nop

; data
	.align 4
result:
	.word 0
	.align 4
