package exec

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"
)

// warmSrc exercises data as well as code: initialized globals (scalar
// and string) are populated by the prelude's segment load, so a warm
// restore has real data pages to share, and main overwrites the scratch
// array in place — a stale or shared-page-corruption bug would change
// the checksum of the next run.
const warmSrc = `
int result;
int bias = 7;
char tag[12] = "warm-start!";
int scratch[16];

int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }

int main() {
	int i;
	int acc;
	acc = bias;
	for (i = 0; i < 16; i = i + 1) {
		acc = acc * 3 + tag[i % 11] + i;
		scratch[i] = acc;
	}
	for (i = 0; i < 16; i = i + 1) {
		acc = acc + scratch[15 - i];
	}
	result = acc + fib(10);
	return 0;
}
`

// preludeHeavySrc has data pages far apart: an 896 KiB zero-initialized
// global array whose segment the cold path copies in on every run, with
// a tiny run that touches both ends of it, so a restore that lost or
// shared the wrong data page would change the result.
const preludeHeavySrc = `
int result;
int big[229376];

int main() {
	big[0] = 40;
	big[229375] = 2;
	result = big[0] + big[229375];
	return 0;
}
`

// TestForkedVsColdDifferential is the acceptance differential for warm
// start: across every (machine, opt) corner on a Workers:8 pool, a
// run re-entered from the shared warm-start image must be byte-identical
// — value and full JSON report — to a cold run that performs the whole
// prelude. The warm runs go first and are repeated, so later warm runs
// restore an image whose pages earlier runs have already written through
// (the copy-on-write sharing is what is under test).
func TestForkedVsColdDifferential(t *testing.T) {
	p := NewPool(Config{Workers: 8})
	defer p.Close()

	for _, src := range []struct {
		name, source string
		want         int32
	}{
		{"warm", warmSrc, -1736750417},
		{"prelude-heavy", preludeHeavySrc, 42},
	} {
		for _, mach := range []string{"risc1", "cisc", "rv32"} {
			for _, opt := range []int{0, 1} {
				spec := Spec{
					Name:       src.name,
					Machine:    mach,
					Source:     src.source,
					Opt:        opt,
					DelaySlots: mach == "risc1",
					Fuel:       1 << 24,
				}
				runOnce := func(cold bool) (Outcome, []byte) {
					s := spec
					s.ColdStart = cold
					tk, err := p.Submit(context.Background(), s.Job(src.name, time.Minute))
					if err != nil {
						t.Fatal(err)
					}
					res, err := tk.Result(context.Background())
					if err != nil || res.Err != nil {
						t.Fatalf("%s %s/O%d cold=%v: %v / %v", src.name, mach, opt, cold, err, res.Err)
					}
					out := res.Value.(Outcome)
					b, err := out.Report.JSON()
					if err != nil {
						t.Fatal(err)
					}
					return out, b
				}

				warm1, warmJSON1 := runOnce(false)
				warm2, warmJSON2 := runOnce(false)
				cold, coldJSON := runOnce(true)

				if warm1.Value != src.want || warm2.Value != src.want || cold.Value != src.want {
					t.Errorf("%s %s/O%d: warm values %d,%d, cold %d, want %d", src.name, mach, opt, warm1.Value, warm2.Value, cold.Value, src.want)
				}
				if !bytes.Equal(warmJSON1, coldJSON) {
					t.Errorf("%s %s/O%d: first warm report diverged from cold:\n%s\n---\n%s", src.name, mach, opt, warmJSON1, coldJSON)
				}
				if !bytes.Equal(warmJSON2, coldJSON) {
					t.Errorf("%s %s/O%d: repeated warm report diverged from cold:\n%s\n---\n%s", src.name, mach, opt, warmJSON2, coldJSON)
				}
			}
		}
	}
}

// TestForkedVsColdConcurrent hammers one warm-start image from eight
// workers at once while interleaving cold runs of the same program: all
// results must agree. Run under -race in CI, this is the page-sharing
// correctness test — concurrent restores and copy-on-write writes to
// the same shared image.
func TestForkedVsColdConcurrent(t *testing.T) {
	p := NewPool(Config{Workers: 8})
	defer p.Close()

	var jobs []Job
	for i := 0; i < 32; i++ {
		s := Spec{
			Name:       "warm",
			Source:     warmSrc,
			Opt:        1,
			DelaySlots: true,
			Fuel:       1 << 24,
			ColdStart:  i%4 == 0, // every fourth run pays the full prelude
		}
		jobs = append(jobs, s.Job(fmt.Sprintf("w%d", i), time.Minute))
	}
	results := p.RunBatch(context.Background(), jobs)
	var want []byte
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("job %d: %v", i, res.Err)
		}
		rep := res.Value.(Outcome).Report
		b, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = b
		} else if !bytes.Equal(b, want) {
			t.Fatalf("job %d report diverged from job 0:\n%s\n---\n%s", i, b, want)
		}
	}
}
