package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// fill sets every exported field reachable from v to a random value.
// With full, no pointer or slice is nil or empty and no scalar is zero,
// so every field, including ones added later, reaches the encoder.
func fill(rng *rand.Rand, v reflect.Value, full bool) {
	strs := []string{"add", "fib", "", "a<b>&c", "quote\"back\\slash", "tab\tnl\n", "\x01\x7f", "é→ ", "\xff\xfe", "0x00001000"}
	floats := []float64{0, 1, -2.5, 0.1, 1.2952771272443404, 1e-6, 9.99e-7, 1e-7, 2.5e-9, 5e-324, 1e20, 1e21, 1.5e300, -1e-300, 400}
	switch v.Kind() {
	case reflect.String:
		s := strs[rng.Intn(len(strs))]
		if full && s == "" {
			s = "x"
		}
		v.SetString(s)
	case reflect.Bool:
		v.SetBool(full || rng.Intn(2) == 0)
	case reflect.Int, reflect.Int64:
		v.SetInt(rng.Int63n(1<<40) - 1<<20*int64(rng.Intn(2)) + 1)
	case reflect.Uint32, reflect.Uint64:
		n := rng.Uint64() >> uint(rng.Intn(64))
		if full && n == 0 {
			n = 7
		}
		v.SetUint(n)
	case reflect.Float64:
		f := floats[rng.Intn(len(floats))]
		if full && f == 0 {
			f = 0.25
		}
		if rng.Intn(4) == 0 {
			f = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(30)-15))
		}
		v.SetFloat(f)
	case reflect.Pointer:
		if !full && rng.Intn(3) == 0 {
			return
		}
		p := reflect.New(v.Type().Elem())
		fill(rng, p.Elem(), full)
		v.Set(p)
	case reflect.Slice:
		n := rng.Intn(4)
		if full {
			n++
		} else if rng.Intn(4) == 0 {
			return // nil
		}
		s := reflect.MakeSlice(v.Type(), n, n)
		for i := 0; i < n; i++ {
			fill(rng, s.Index(i), full)
		}
		v.Set(s)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fill(rng, v.Field(i), full)
			}
		}
	default:
		panic("fill: unhandled kind " + v.Kind().String())
	}
}

func checkReportJSON(t *testing.T, r *Report) {
	t.Helper()
	want, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	got, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Report.JSON differs from json.MarshalIndent\n got: %s\nwant: %s", got, want)
	}
}

func TestReportJSONMatchesEncodingJSON(t *testing.T) {
	checkReportJSON(t, &Report{})
	checkReportJSON(t, &Report{Mix: []MixEntry{}, Ops: []MixEntry{}, Profile: &Profile{TopFunctions: []FuncRow{}},
		Windows: &Windows{DepthHist: []uint64{}}, Config: ReportConfig{Passes: []PassStat{}}})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		var r Report
		fill(rng, reflect.ValueOf(&r).Elem(), true)
		checkReportJSON(t, &r)
	}
	for i := 0; i < 2000; i++ {
		var r Report
		fill(rng, reflect.ValueOf(&r).Elem(), false)
		checkReportJSON(t, &r)
	}
}

func TestReportJSONRejectsNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		r := Report{Totals: Totals{CPI: f}}
		_, err := r.JSON()
		var uv *json.UnsupportedValueError
		if !errors.As(err, &uv) {
			t.Errorf("CPI %v: err = %v, want *json.UnsupportedValueError", f, err)
		}
	}
}

func BenchmarkReportJSON(b *testing.B) {
	var r Report
	fill(rand.New(rand.NewSource(1)), reflect.ValueOf(&r).Elem(), true)
	r.Profile = nil
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := r.JSON(); err != nil {
			b.Fatal(err)
		}
	}
}
