package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"testing"
	"time"

	"risc1/internal/exec"
	"risc1/internal/obs"
)

// encodingJSONResponse is runResponse as it was before responses
// carried encoded report bytes: the report as a struct, left to
// encoding/json. The hand-written writer must reproduce its
// json.MarshalIndent output byte for byte.
type encodingJSONResponse struct {
	Schema string      `json:"schema"`
	ID     string      `json:"id,omitempty"`
	Status string      `json:"status,omitempty"`
	Value  *int32      `json:"value,omitempty"`
	Report *obs.Report `json:"report,omitempty"`
	Error  *apiError   `json:"error,omitempty"`
}

// documentedCodes is the error-code table of docs/API.md.
var documentedCodes = []string{
	codeBadRequest, codeCompileError, codeNotFound, codeSessionNotFound,
	codeSessionBusy, codeBodyTooLarge, codeUnsupportedSchema,
	codeUnsupportedMachine, codeFuelExceeded, codeQueueFull, codePeerProtocol,
	codePeerUnavailable, codeInternal, codeDeadline,
}

// awkwardStrings exercise every escaping path of a JSON string: plain
// ASCII, quotes and backslashes, control bytes, the HTML-sensitive
// <, > and &, U+2028/U+2029, other non-ASCII, and invalid UTF-8.
var awkwardStrings = []string{
	"",
	"plain message",
	`say "hi" \ bye`,
	"tab\there\nnewline\r\x00\x01\x1f\x7f",
	"<script>&amp;</script>",
	"fish & chips",
	"x > y",
	"line\u2028sep\u2029para",
	"héllo wörld — ✓ 日本",
	"bad \xff\xfe utf8 \xc3",
}

// TestRunResponseMatchesEncodingJSON pins the hand-written response
// writer to encoding/json: ok responses from every backend (with the
// report spliced in from its stored bytes), pending responses, every
// error code with every awkward message, and values at the int32
// extremes.
func TestRunResponseMatchesEncodingJSON(t *testing.T) {
	check := func(name string, resp *runResponse, want *encodingJSONResponse) {
		t.Helper()
		wantJSON, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		wantJSON = append(wantJSON, '\n')
		if got := resp.appendJSON(nil); !bytes.Equal(got, wantJSON) {
			t.Errorf("%s: writer diverged from encoding/json:\n%s\n---\n%s", name, got, wantJSON)
		}
	}

	// ok responses: a report from each backend, including one whose
	// workload name needs escaping inside the spliced report.
	pool := exec.NewPool(exec.Config{Workers: 1})
	defer pool.Close()
	for _, machine := range []string{"risc1", "cisc", "rv32"} {
		for _, name := range []string{"fib", "<odd> \"name\" é"} {
			spec := exec.Spec{Name: name, Machine: machine, Source: serveSrc, Opt: 1, DelaySlots: true, Fuel: 1 << 24}
			tk, err := pool.Submit(context.Background(), spec.Job(name, time.Minute))
			if err != nil {
				t.Fatal(err)
			}
			res, err := tk.Result(context.Background())
			if err != nil || res.Err != nil {
				t.Fatalf("%s: %v / %v", machine, err, res.Err)
			}
			out := res.Value.(exec.Outcome)
			rep := out.Report
			rep.Exec = &obs.ExecStat{Attempts: 1, FuelLimit: spec.Fuel}
			b, err := rep.JSON()
			if err != nil {
				t.Fatal(err)
			}
			v := out.Value
			check(machine+" ok",
				&runResponse{Schema: ResponseSchemaV1, Status: "ok", Value: &v, Report: b},
				&encodingJSONResponse{Schema: ResponseSchemaV1, Status: "ok", Value: &v, Report: &rep})
			// An async job's final response carries its id as well.
			check(machine+" ok with id",
				&runResponse{Schema: ResponseSchemaV1, ID: "job-000001", Status: "ok", Value: &v, Report: b},
				&encodingJSONResponse{Schema: ResponseSchemaV1, ID: "job-000001", Status: "ok", Value: &v, Report: &rep})
		}
	}

	check("pending",
		&runResponse{Schema: ResponseSchemaV1, ID: "job-000042", Status: "pending"},
		&encodingJSONResponse{Schema: ResponseSchemaV1, ID: "job-000042", Status: "pending"})

	for _, v := range []int32{0, -1, 1, math.MinInt32, math.MaxInt32} {
		check("value",
			&runResponse{Schema: ResponseSchemaV1, Status: "ok", Value: &v},
			&encodingJSONResponse{Schema: ResponseSchemaV1, Status: "ok", Value: &v})
	}

	for _, code := range documentedCodes {
		for _, msg := range awkwardStrings {
			for _, id := range []string{"", "job-000007"} {
				e := apiError{Code: code, Message: msg}
				check(code,
					&runResponse{Schema: ResponseSchemaV1, ID: id, Error: &e},
					&encodingJSONResponse{Schema: ResponseSchemaV1, ID: id, Error: &e})
			}
		}
	}
}
