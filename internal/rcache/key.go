package rcache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
)

// A Key names one cache entry: the hex SHA-256 of a canonical
// serialization of everything that determines the cached value. Two
// requests collide exactly when every field the builder saw is equal,
// which is what makes the cache content-addressed rather than
// identity-addressed.
type Key = string

// KeyBuilder accumulates (name, value) fields into a canonical byte
// stream and hashes it once in Sum. Fields are length-prefixed and
// tagged with their type, so no two distinct field sequences serialize
// to the same byte stream (a source containing "opt=1" can never alias
// an actual opt field).
type KeyBuilder struct {
	buf []byte
}

// NewKey starts a builder. The domain string separates key spaces:
// compiled-program keys and run-report keys for the same source must
// never collide.
func NewKey(domain string) *KeyBuilder {
	b := &KeyBuilder{buf: make([]byte, 0, 256)}
	b.raw('D', domain)
	return b
}

func (b *KeyBuilder) raw(tag byte, s string) {
	b.word(tag, uint64(len(s)))
	b.buf = append(b.buf, s...)
}

// word appends a tag byte and a big-endian 64-bit value.
func (b *KeyBuilder) word(tag byte, v uint64) {
	b.buf = binary.BigEndian.AppendUint64(append(b.buf, tag), v)
}

// Str adds a string field.
func (b *KeyBuilder) Str(name, v string) *KeyBuilder {
	b.raw('N', name)
	b.raw('S', v)
	return b
}

// Int adds a signed integer field.
func (b *KeyBuilder) Int(name string, v int64) *KeyBuilder {
	b.raw('N', name)
	b.word('I', uint64(v))
	return b
}

// Uint adds an unsigned integer field.
func (b *KeyBuilder) Uint(name string, v uint64) *KeyBuilder {
	b.raw('N', name)
	b.word('U', v)
	return b
}

// Bool adds a boolean field.
func (b *KeyBuilder) Bool(name string, v bool) *KeyBuilder {
	var x uint64
	if v {
		x = 1
	}
	b.raw('N', name)
	b.word('B', x)
	return b
}

// Sum finishes the key. The builder must not be reused afterwards.
func (b *KeyBuilder) Sum() Key {
	sum := sha256.Sum256(b.buf)
	var dst [2 * sha256.Size]byte
	hex.Encode(dst[:], sum[:])
	return string(dst[:])
}
