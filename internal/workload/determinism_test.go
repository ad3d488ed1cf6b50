package workload_test

// Determinism golden test: the simulator must be a pure function of
// (config, seed, workload). Two back-to-back runs with identical
// inputs have to produce byte-identical statistics — any divergence
// means hidden global state (an unseeded rand source, map-iteration
// order leaking into results, wall-clock coupling) crept into a hot
// path. It runs two kernels, mgrid and fftpde, so it catches state
// every kernel shares (the Machine's random source, the System) but
// not a global draw inside one of the other kernels: the gate for
// every kernel is TestBatchedReplayMatchesScalar (batch_equiv_test.go),
// which runs each workload three times. The detflow analyzer checks
// the property statically on its annotated roots, and reaches kernels
// only through func values, so it cannot see inside them.

import (
	"bytes"
	"encoding/json"
	"testing"

	"streamsim/internal/core"
	"streamsim/internal/workload"
)

// determinismScale keeps the paired full-system runs fast while still
// exercising every component: caches, streams, both filters, czones.
const determinismScale = 0.05

// runOnce executes one full simulation and returns its Results
// serialized to JSON. JSON (not fmt's %+v of live structs) makes the
// comparison structural and byte-stable.
func runOnce(t *testing.T, name string, cfg core.Config) []byte {
	t.Helper()
	w, err := workload.New(name, workload.SizeSmall)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(sys, determinismScale); err != nil {
		t.Fatal(err)
	}
	out, err := json.MarshalIndent(sys.Results(), "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestDeterministicReplay(t *testing.T) {
	// mgrid stresses the unit-stride path, fftpde the czone path; both
	// caches use random replacement, so this also proves the seeded
	// RNG plumbing is repeatable.
	for _, name := range []string{"mgrid", "fftpde"} {
		t.Run(name, func(t *testing.T) {
			cfg := core.DefaultConfig()
			first := runOnce(t, name, cfg)
			second := runOnce(t, name, cfg)
			if !bytes.Equal(first, second) {
				t.Errorf("two identical %s runs diverged:\nfirst:\n%s\nsecond:\n%s",
					name, first, second)
			}
			if len(first) == 0 || !bytes.Contains(first, []byte("Bandwidth")) {
				t.Fatalf("results serialization looks empty: %s", first)
			}
		})
	}
}

// TestSeedChangesResults is the control: with a different cache
// replacement seed the random-replacement caches must behave
// differently, proving the test above compares live state rather than
// constants.
func TestSeedChangesResults(t *testing.T) {
	cfg := core.DefaultConfig()
	base := runOnce(t, "mgrid", cfg)
	cfg.L1D.Seed = 12345
	reseeded := runOnce(t, "mgrid", cfg)
	if bytes.Equal(base, reseeded) {
		t.Error("changing the L1D replacement seed did not change the results; " +
			"the seed is not reaching the cache RNG")
	}
}
