package rv32

import (
	"fmt"
	"testing"
)

// encodable is the reference legality predicate, read straight from the
// opcode metadata rather than from Decode's tables: a word is legal iff
// some opcode's fixed fields (major opcode, plus funct3 and funct7 where
// its format has them, or the whole word for SYSTEM) match it.
func encodable(w uint32) bool {
	opc, f3, f7 := w&0x7f, w>>12&7, w>>25
	for _, info := range Instructions() {
		if info.Opcode != opc {
			continue
		}
		switch info.Fmt {
		case FmtU, FmtJ:
			return true
		case FmtI, FmtS, FmtB:
			if f3 == info.Funct3 {
				return true
			}
		case FmtR, FmtIS:
			if f3 == info.Funct3 && f7 == info.Funct7 {
				return true
			}
		case FmtSys:
			if want, _ := Encode(info.Op, 0, 0, 0, 0); w == want {
				return true
			}
		}
	}
	return false
}

// reencode packs a decoded instruction back into its word.
func reencode(in Inst) (uint32, error) { return Encode(in.Op, in.Rd, in.Rs1, in.Rs2, in.Imm) }

// checkWord asserts Decode's contract on one word: it accepts exactly
// the words Encode can produce, and an accepted word re-encodes to
// itself; every other word gets the illegal-instruction error.
func checkWord(t *testing.T, w uint32) {
	t.Helper()
	in, err := Decode(w)
	legal := encodable(w)
	switch {
	case err != nil && legal:
		t.Fatalf("Decode(%#08x) rejected an encodable word: %v", w, err)
	case err != nil:
		if want := fmt.Sprintf("rv32: illegal instruction %#08x", w); err.Error() != want {
			t.Fatalf("Decode(%#08x) error %q, want %q", w, err, want)
		}
	case !legal:
		t.Fatalf("Decode(%#08x) accepted an unencodable word as %+v", w, in)
	default:
		back, err := reencode(in)
		if err != nil || back != w {
			t.Fatalf("Decode(%#08x) = %+v re-encodes to %#08x, %v", w, in, back, err)
		}
		if again, _ := Decode(back); again != in {
			t.Fatalf("Decode(Encode(%+v)) = %+v", in, again)
		}
	}
}

// TestDecodeExhaustive walks every (major opcode, funct3, funct7)
// triple under three register-field fillers, plus both SYSTEM words.
func TestDecodeExhaustive(t *testing.T) {
	fillers := []uint32{0, 0x1f, 0b10110}
	accepted := map[Op]bool{}
	for opc := uint32(0); opc < 128; opc++ {
		for f3 := uint32(0); f3 < 8; f3++ {
			for f7 := uint32(0); f7 < 128; f7++ {
				for _, r := range fillers {
					w := opc | r<<7 | f3<<12 | r<<15 | r<<20 | f7<<25
					checkWord(t, w)
					if in, err := Decode(w); err == nil {
						accepted[in.Op] = true
					}
				}
			}
		}
	}
	for _, c := range []struct {
		w  uint32
		op Op
	}{{0x00000073, ECALL}, {0x00100073, EBREAK}} {
		checkWord(t, c.w)
		if in, err := Decode(c.w); err != nil || in != (Inst{Op: c.op}) {
			t.Errorf("Decode(%#08x) = %+v, %v, want %v", c.w, in, err, infos[c.op].Name)
		}
		accepted[c.op] = true
	}
	for _, info := range Instructions() {
		if !accepted[info.Op] {
			t.Errorf("no word decoded to %s", info.Name)
		}
	}
}

// TestDecodeAllocFree pins the table-driven decoder: decoding a legal
// word allocates nothing.
func TestDecodeAllocFree(t *testing.T) {
	var words []uint32
	for _, info := range Instructions() {
		w, err := Encode(info.Op, 5, 6, 7, 4)
		if err != nil {
			t.Fatalf("encode %s: %v", info.Name, err)
		}
		words = append(words, w)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, w := range words {
			if _, err := Decode(w); err != nil {
				panic(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("Decode allocates %v times per %d legal words, want 0", allocs, len(words))
	}
}

// FuzzRV32Decode round-trips arbitrary words through Decode and Encode.
func FuzzRV32Decode(f *testing.F) {
	for _, info := range Instructions() {
		if w, err := Encode(info.Op, 1, 2, 3, 4); err == nil {
			f.Add(w)
		}
	}
	f.Add(uint32(0))
	f.Add(uint32(0xffffffff))
	f.Add(uint32(0x00001073)) // csrrw: SYSTEM, but not ecall/ebreak
	f.Fuzz(func(t *testing.T, w uint32) { checkWord(t, w) })
}
