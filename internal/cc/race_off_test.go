//go:build !race

package cc

// raceEnabled is false in ordinary test builds; see race_on_test.go.
const raceEnabled = false
