package main

import (
	"bytes"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// newClient returns the one keep-alive client every phase shares: at
// most conns connections per replica, none idle-closed mid-run.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		IdleConnTimeout:     time.Minute,
		DisableCompression:  true,
	}}
}

// outcome is one request as the client saw it.
type outcome struct {
	ok       bool    // 200, status ok, right value
	wrong    bool    // answered, but not with the expected value
	latency  float64 // ms; +Inf when !ok
	instr    uint64  // the report's instruction count
	bytes    int     // response body size
	sentLate float64 // ms between due time and hand-off (open loop)
}

// post sends one run request and classifies the answer. The body is
// read into buf, which the caller reuses across requests, and is valid
// until buf's next use. Only the fields the checks need are read from
// it, by scanning rather than decoding, so the client spends little of
// the CPU it shares with the server.
func post(c *http.Client, url string, rq request, buf *bytes.Buffer) (outcome, []byte) {
	resp, err := c.Post(url+"/v1/run", "application/json", bytes.NewReader(rq.body))
	if err != nil {
		return outcome{latency: math.Inf(1)}, nil
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	body := buf.Bytes()
	if err != nil || resp.StatusCode != http.StatusOK {
		return outcome{latency: math.Inf(1), bytes: len(body)}, body
	}
	o := outcome{bytes: len(body)}
	v, vok := scanInt(body, `"value": `)
	n, nok := scanInt(body, `"instructions": `)
	if !vok || !nok || !bytes.Contains(body, []byte(`"status": "ok"`)) || int32(v) != rq.Want || n < 0 {
		o.wrong = true
		o.latency = math.Inf(1)
		return o, body
	}
	o.ok = true
	o.instr = uint64(n)
	return o, body
}

// scanInt reads the integer that follows the first occurrence of key.
func scanInt(b []byte, key string) (int64, bool) {
	i := bytes.Index(b, []byte(key))
	if i < 0 {
		return 0, false
	}
	b = b[i+len(key):]
	end := 0
	for end < len(b) && (b[end] == '-' || (b[end] >= '0' && b[end] <= '9')) {
		end++
	}
	v, err := strconv.ParseInt(string(b[:end]), 10, 64)
	return v, err == nil
}

// openLoop offers reqs[i] at start+due[i] — a schedule fixed in advance —
// to at most workers requests in flight. Latency runs from the due time,
// not the send time, so time spent waiting behind a slow request or a
// late generator is counted, never hidden; sentLate records how far
// behind its schedule the generator handed each request off.
func openLoop(c *http.Client, urls []string, reqs []request, due []time.Duration, workers int) []outcome {
	out := make([]outcome, len(due))
	queue := make(chan int, len(due))
	dueAt := make([]time.Time, len(due))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for i := range queue {
				o, _ := post(c, urls[i%len(urls)], reqs[i], &buf)
				if o.ok {
					o.latency = float64(time.Since(dueAt[i])) / 1e6
				}
				o.sentLate = out[i].sentLate
				out[i] = o
			}
		}()
	}
	start := time.Now()
	for i, d := range due {
		at := start.Add(d)
		if wait := time.Until(at); wait > 0 {
			time.Sleep(wait)
		}
		dueAt[i] = at
		out[i].sentLate = float64(time.Since(at)) / 1e6
		queue <- i
	}
	close(queue)
	wg.Wait()
	return out
}

// closedLoop runs workers back-to-back request loops over reqs until d
// has passed or reqs runs out (d <= 0 means run them all). It returns
// the outcomes of the requests taken, in order, and the time from start
// to the last completion.
func closedLoop(c *http.Client, urls []string, reqs []request, workers int, d time.Duration) ([]outcome, time.Duration) {
	out := make([]outcome, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	stop := start.Add(d)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				if d > 0 && !time.Now().Before(stop) {
					return
				}
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				t0 := time.Now()
				o, _ := post(c, urls[i%len(urls)], reqs[i], &buf)
				if o.ok {
					o.latency = float64(time.Since(t0)) / 1e6
				}
				out[i] = o
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	n := int(next.Load())
	if n > len(reqs) {
		n = len(reqs)
	}
	return out[:n], elapsed
}
