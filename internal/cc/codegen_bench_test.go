package cc

import (
	"math/rand"
	"testing"

	"risc1/internal/cc/ir"
	"risc1/internal/cc/progen"
)

// BenchmarkCodegen times the code generators alone, one op per program,
// over a fixed corpus of 64 progen programs lowered and optimized once
// at -O1 up front (the generators do not modify the IR).
func BenchmarkCodegen(b *testing.B) {
	var progs []*ir.Program
	for seed := int64(1); seed <= 64; seed++ {
		src, _ := progen.Program(rand.New(rand.NewSource(seed)))
		p, _, err := Frontend(src, 1)
		if err != nil {
			b.Fatal(err)
		}
		progs = append(progs, p)
	}
	for _, g := range []struct {
		name string
		gen  func(*ir.Program) (string, error)
	}{{"risc1", GenRISC}, {"cisc", GenVAX}, {"rv32", GenRV32}} {
		b.Run(g.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := g.gen(progs[i%len(progs)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
