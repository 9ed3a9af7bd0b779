// Package ndet is the nodeterm analyzer fixture: each ambient
// nondeterminism source fires once, while explicitly seeded
// generators and methods on *rand.Rand stay silent.
package ndet

import (
	"math/rand"
	"os"
	"time"
)

func wallClock() int64 {
	return time.Now().Unix() // want `time.Now injects ambient nondeterminism`
}

func elapsed(t0 time.Time) time.Duration {
	return time.Since(t0) // want `time.Since injects ambient nondeterminism`
}

func globalRand() int {
	return rand.Intn(10) // want `math/rand.Intn injects ambient nondeterminism`
}

func globalShuffle(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] }) // want `math/rand.Shuffle injects ambient nondeterminism`
}

func env() string {
	return os.Getenv("HOME") // want `os.Getenv injects ambient nondeterminism`
}

func lookup() (string, bool) {
	return os.LookupEnv("HOME") // want `os.LookupEnv injects ambient nondeterminism`
}

// seeded is the legal pattern: an explicit source derived from a
// config seed; constructors and *rand.Rand methods are never flagged.
func seeded(seed int64) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(10)
}

// timeValues shows that using time *types* (not the wall clock) is
// fine.
func timeValues(d time.Duration) time.Duration {
	return d * 2
}
