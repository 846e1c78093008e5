//go:build race

package cc

// raceEnabled reports whether this test binary was built with the race
// detector. Allocation pins skip under it: a race build of the compiler
// allocates about 10% more per compile, so a count measured there says
// nothing about production builds.
const raceEnabled = true
