// Package det exercises the detflow analyzer: //simlint:deterministic
// roots must transitively avoid order-unstable map ranges, wall-clock
// reads, global random draws and environment reads.
package det

import (
	"math/rand"
	"os"
	"sort"
	"time"
)

// Stamp reads the wall clock directly.
//
//simlint:deterministic
func Stamp() int64 {
	return time.Now().Unix() // want `det\.Stamp is //simlint:deterministic but contains a nondeterministic construct: wall-clock read \(time\.Now\) \(det\.go:\d+\)`
}

// Jitter draws from the process-global random source.
//
//simlint:deterministic
func Jitter() int {
	return rand.Intn(8) // want `det\.Jitter is //simlint:deterministic but contains a nondeterministic construct: draw from the process-global random source \(rand\.Intn\) \(det\.go:\d+\)`
}

// Home reads the environment.
//
//simlint:deterministic
func Home() string {
	return os.Getenv("HOME") // want `det\.Home is //simlint:deterministic but contains a nondeterministic construct: environment read \(os\.Getenv\) \(det\.go:\d+\)`
}

// Tally reaches an unstable map range two calls down; the finding
// carries the chain and anchors at the construct.
//
//simlint:deterministic
func Tally(m map[string]int) int {
	return gather(m)
}

func gather(m map[string]int) int {
	return walkMap(m)
}

func walkMap(m map[string]int) int {
	total := 0
	for _, v := range m { // want `det\.Tally is //simlint:deterministic but reaches a nondeterministic construct via det\.Tally → det\.gather → det\.walkMap: map range with unstable iteration order \(det\.go:\d+\)`
		total += v
	}
	return total
}

// Names ranges over a map but only to collect keys into a slice that
// is sorted before use: the accepted deterministic idiom.
//
//simlint:deterministic
func Names(m map[string]int) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Inner is its own verified root; its violation reports once, with
// Inner's chain.
//
//simlint:deterministic
func Inner() int64 {
	return stamp()
}

func stamp() int64 {
	return time.Now().UnixNano() // want `det\.Inner is //simlint:deterministic but reaches a nondeterministic construct via det\.Inner → det\.stamp: wall-clock read \(time\.Now\) \(det\.go:\d+\)`
}

// Outer calls another deterministic root: the traversal stops at the
// annotation instead of re-reporting Inner's findings, by induction.
//
//simlint:deterministic
func Outer() int64 {
	return Inner() + 1
}

// load owns its environment read by design.
//
//simlint:configload
func load() string {
	return os.Getenv("DET_CONFIG")
}

// FromConfig may call the loader: //simlint:configload stops the
// traversal.
//
//simlint:deterministic
func FromConfig() string {
	return load()
}

// Seeded draws from an explicitly seeded source: the constructors are
// exempt and methods on the seeded source replay deterministically.
//
//simlint:deterministic
func Seeded(seed int64) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(100)
}

