// Package cc implements MiniC, the small C dialect used to recreate the
// paper's benchmark programs, with code generators for both the RISC I
// target and the CISC baseline. The paper compiled C with a simple
// portable compiler (PCC); MiniC's generators follow the same strategy —
// straightforward per-statement code, registers for scalar locals, no
// global optimization — so the relative code-size and instruction-count
// comparisons carry over.
//
// The language: int (32-bit signed) and char (8-bit unsigned) types,
// pointers and one-dimensional arrays, functions, if/else, while, for,
// break/continue/return, the usual C expression operators (including
// assignment, &&/|| with short-circuit, comparisons, shifts, * / %), and
// string literals. No structs, typedefs, floating point, or preprocessor.
package cc

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

type tokKind uint8

const (
	tEOF tokKind = iota
	tIdent
	tNumber
	tString
	tChar
	tPunct   // operators and separators
	tKeyword // int, char, if, else, while, for, return, break, continue, void
)

type token struct {
	kind tokKind
	text string
	num  int64
	line int
}

var keywords = map[string]bool{
	"int": true, "char": true, "void": true,
	"if": true, "else": true, "while": true, "for": true,
	"return": true, "break": true, "continue": true,
}

// multi-character operators, longest first so maximal munch works.
var punct2 = []string{
	"<<=", ">>=", // reserved; rejected by the parser but lexed whole
	"==", "!=", "<=", ">=", "&&", "||", "<<", ">>",
	"+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++", "--",
}

// Error is a compiler diagnostic with a source line.
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("cc: line %d: %s", e.Line, e.Msg) }

func errf(line int, format string, args ...any) error {
	return &Error{Line: line, Msg: fmt.Sprintf(format, args...)}
}

type lexer struct {
	src  string
	pos  int
	line int
}

func lex(src string) ([]token, error) {
	l := &lexer{src: src, line: 1}
	// Dense MiniC averages two to three source bytes per token, so
	// room for one token per two bytes rarely needs to grow.
	toks := make([]token, 0, len(src)/2+1)
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.kind == tEOF {
			return toks, nil
		}
	}
}

func (l *lexer) peekByte(off int) byte {
	if l.pos+off < len(l.src) {
		return l.src[l.pos+off]
	}
	return 0
}

func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			l.line++
			l.pos++
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case c == '/' && l.peekByte(1) == '/':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '/' && l.peekByte(1) == '*':
			start := l.line
			l.pos += 2
			for {
				if l.pos+1 >= len(l.src) {
					return token{}, errf(start, "unterminated comment")
				}
				if l.src[l.pos] == '\n' {
					l.line++
				}
				if l.src[l.pos] == '*' && l.src[l.pos+1] == '/' {
					l.pos += 2
					break
				}
				l.pos++
			}
		default:
			goto scan
		}
	}
	return token{kind: tEOF, line: l.line}, nil

scan:
	c := l.src[l.pos]
	switch {
	case isLetter(rune(c)):
		start := l.pos
		for l.pos < len(l.src) && isIdentPart(rune(l.src[l.pos])) {
			l.pos++
		}
		text := l.src[start:l.pos]
		k := tIdent
		if keywords[text] {
			k = tKeyword
		}
		return token{kind: k, text: text, line: l.line}, nil

	case c >= '0' && c <= '9':
		start := l.pos
		for l.pos < len(l.src) && isIdentPart(rune(l.src[l.pos])) {
			l.pos++
		}
		text := l.src[start:l.pos]
		var v int64
		var err error
		if strings.HasPrefix(text, "0x") || strings.HasPrefix(text, "0X") {
			v, err = strconv.ParseInt(text[2:], 16, 64)
		} else {
			v, err = strconv.ParseInt(text, 10, 64)
		}
		if err != nil {
			return token{}, errf(l.line, "bad number %q", text)
		}
		return token{kind: tNumber, text: text, num: v, line: l.line}, nil

	case c == '"':
		l.pos++
		var sb strings.Builder
		for {
			if l.pos >= len(l.src) || l.src[l.pos] == '\n' {
				return token{}, errf(l.line, "unterminated string")
			}
			if l.src[l.pos] == '"' {
				l.pos++
				break
			}
			ch, err := l.scanCharInner()
			if err != nil {
				return token{}, err
			}
			sb.WriteByte(ch)
		}
		return token{kind: tString, text: sb.String(), line: l.line}, nil

	case c == '\'':
		l.pos++
		if l.pos >= len(l.src) {
			return token{}, errf(l.line, "unterminated character literal")
		}
		ch, err := l.scanCharInner()
		if err != nil {
			return token{}, err
		}
		if l.pos >= len(l.src) || l.src[l.pos] != '\'' {
			return token{}, errf(l.line, "unterminated character literal")
		}
		l.pos++
		return token{kind: tChar, num: int64(ch), line: l.line}, nil

	default:
		for _, op := range punct2 {
			if strings.HasPrefix(l.src[l.pos:], op) {
				l.pos += len(op)
				return token{kind: tPunct, text: op, line: l.line}, nil
			}
		}
		l.pos++
		return token{kind: tPunct, text: string(c), line: l.line}, nil
	}
}

func (l *lexer) scanCharInner() (byte, error) {
	c := l.src[l.pos]
	if c != '\\' {
		l.pos++
		return c, nil
	}
	if l.pos+1 >= len(l.src) {
		return 0, errf(l.line, "bad escape")
	}
	e := l.src[l.pos+1]
	l.pos += 2
	switch e {
	case 'n':
		return '\n', nil
	case 't':
		return '\t', nil
	case '0':
		return 0, nil
	case 'r':
		return '\r', nil
	case '\\':
		return '\\', nil
	case '\'':
		return '\'', nil
	case '"':
		return '"', nil
	}
	return 0, errf(l.line, "unknown escape \\%c", e)
}

func isLetter(r rune) bool    { return r == '_' || unicode.IsLetter(r) }
func isIdentPart(r rune) bool { return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r) }
