// Package syntax is the two-pass assembler core shared by the RISC I,
// CISC baseline and RV32 assemblers: the line scanner (tokens, numeric
// literals in decimal, 0x, 0b and character form, strings with
// escapes), the constant-expression tree resolved against the symbol
// table, and the Dialect-driven assembler itself — labels, data and
// location directives, layout, segment emit and the entry rule — with
// the Program it produces. Each backend supplies only its instruction
// set.
package syntax

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// Kind classifies a token.
type Kind uint8

const (
	Ident  Kind = iota // mnemonics, labels, symbols, register names
	Number             // numeric literal
	String             // "..." with escapes resolved
	Char               // 'c'
	Punct              // single punctuation rune
)

// Token is one lexical element of a source line.
type Token struct {
	Kind Kind
	Text string
	Num  int64 // valid for Number and Char
}

// Error is a diagnostic with a source line number.
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("line %d: %s", e.Line, e.Msg) }

// Errorf builds a positioned diagnostic.
func Errorf(line int, format string, args ...any) error {
	return &Error{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// ScanLine tokenizes one source line, appending its tokens to toks.
// Comments start with ';' or '#' and run to end of line. The assembler
// passes the previous line's slice truncated to zero length, so a whole
// assembly scans into one buffer.
func ScanLine(toks []Token, line string, lineNo int) ([]Token, error) {
	i := 0
	n := len(line)
	for i < n {
		ch := line[i]
		switch {
		case ch == ';' || ch == '#':
			return toks, nil
		case ch == ' ' || ch == '\t' || ch == '\r':
			i++
		case isIdentStart(rune(ch)):
			j := i + 1
			for j < n && isIdentPart(rune(line[j])) {
				j++
			}
			toks = append(toks, Token{Kind: Ident, Text: line[i:j]})
			i = j
		case ch >= '0' && ch <= '9':
			j := i + 1
			for j < n && isIdentPart(rune(line[j])) {
				j++
			}
			text := line[i:j]
			v, err := ParseNumber(text)
			if err != nil {
				return nil, Errorf(lineNo, "bad number %q", text)
			}
			toks = append(toks, Token{Kind: Number, Text: text, Num: v})
			i = j
		case ch == '"':
			s, next, err := scanString(line, i, lineNo)
			if err != nil {
				return nil, err
			}
			toks = append(toks, Token{Kind: String, Text: s})
			i = next
		case ch == '\'':
			c, next, err := scanChar(line, i, lineNo)
			if err != nil {
				return nil, err
			}
			toks = append(toks, Token{Kind: Char, Num: int64(c)})
			i = next
		default:
			toks = append(toks, Token{Kind: Punct, Text: string(ch)})
			i++
		}
	}
	return toks, nil
}

func scanString(line string, i, lineNo int) (string, int, error) {
	n := len(line)
	j := i + 1
	var sb strings.Builder
	for j < n && line[j] != '"' {
		c := line[j]
		if c == '\\' && j+1 < n {
			j++
			var err error
			c, err = unescape(line[j], lineNo)
			if err != nil {
				return "", 0, err
			}
		}
		sb.WriteByte(c)
		j++
	}
	if j >= n {
		return "", 0, Errorf(lineNo, "unterminated string")
	}
	return sb.String(), j + 1, nil
}

func scanChar(line string, i, lineNo int) (byte, int, error) {
	n := len(line)
	if i+2 < n && line[i+1] == '\\' && i+3 < n && line[i+3] == '\'' {
		c, err := unescape(line[i+2], lineNo)
		return c, i + 4, err
	}
	if i+2 < n && line[i+2] == '\'' {
		return line[i+1], i + 3, nil
	}
	return 0, 0, Errorf(lineNo, "bad character literal")
}

func unescape(c byte, lineNo int) (byte, error) {
	switch c {
	case 'n':
		return '\n', nil
	case 't':
		return '\t', nil
	case '0':
		return 0, nil
	case '\\':
		return '\\', nil
	case '"':
		return '"', nil
	case '\'':
		return '\'', nil
	}
	return 0, Errorf(lineNo, "unknown escape \\%c", c)
}

func isIdentStart(r rune) bool {
	return r == '_' || r == '.' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

// ParseNumber parses decimal, hexadecimal (0x), and binary (0b)
// literals; the whole string must be consumed.
func ParseNumber(s string) (int64, error) {
	switch {
	case strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X"):
		return strconv.ParseInt(s[2:], 16, 64)
	case strings.HasPrefix(s, "0b") || strings.HasPrefix(s, "0B"):
		if len(s) == 2 {
			return 0, fmt.Errorf("empty binary literal")
		}
		var v int64
		for _, c := range s[2:] {
			if c != '0' && c != '1' {
				return 0, fmt.Errorf("bad binary digit")
			}
			v = v<<1 | int64(c-'0')
		}
		return v, nil
	default:
		return strconv.ParseInt(s, 10, 64)
	}
}
