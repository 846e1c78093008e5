package main

import (
	"math/rand"
	"time"
)

// poissonSchedule returns the due offsets of a Poisson arrival process
// at rate requests per second over [0, span): exponential gaps drawn from
// a stream seeded by seed. The schedule is a pure function of its
// arguments, fixed before the first request is sent, so the offered load
// cannot bend to how the server behaves.
func poissonSchedule(seed int64, rate float64, span time.Duration) []time.Duration {
	r := rand.New(rand.NewSource(seed))
	var out []time.Duration
	var t float64 // seconds
	for {
		t += r.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= span {
			return out
		}
		out = append(out, at)
	}
}
