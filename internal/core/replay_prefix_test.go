package core_test

import (
	"context"
	"reflect"
	"testing"

	"streamsim/internal/core"
	"streamsim/internal/trace"
)

// TestReplayStoreMultiPrefixMatchesIndependent pins the prefix
// engine's contract, which the search optimizer's determinism rests
// on: a generation of candidates evaluated together on the first w
// windows produces per-system results identical to each candidate
// replayed alone over the same prefix — regardless of how candidates
// are grouped, and through both a shared front (multiConfigs: one
// leader, four followers) and two fronts of one system each.
//
//simlint:deterministic streamsim/internal/core.ReplayStoreMultiPrefixFrom
func TestReplayStoreMultiPrefixMatchesIndependent(t *testing.T) {
	ctx := context.Background()
	cfgs := multiConfigs()
	direct := core.DefaultConfig()
	direct.L1D.Assoc = 1
	mixed := []core.Config{core.DefaultConfig(), direct}
	for _, tc := range []struct {
		name string
		cfgs []core.Config
	}{
		{"shared-front", cfgs},
		{"mixed-front", mixed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := recordTrace(t, "mgrid", 0.05)
			for _, windows := range []int{1, 3, st.WindowCount() / 2} {
				want := make([]core.Results, len(tc.cfgs))
				for i, sys := range newSystems(t, tc.cfgs) {
					one := []*core.System{sys}
					if err := core.ReplayStoreMultiPrefixFrom(ctx, one, st, 0, windows); err != nil {
						t.Fatal(err)
					}
					want[i] = sys.Results()
				}
				systems := newSystems(t, tc.cfgs)
				if err := core.ReplayStoreMultiPrefixFrom(ctx, systems, st, 0, windows); err != nil {
					t.Fatal(err)
				}
				for i, sys := range systems {
					if got := sys.Results(); !reflect.DeepEqual(got, want[i]) {
						t.Errorf("windows=%d: config %d results diverge from solo prefix replay:\ngot  %+v\nwant %+v",
							windows, i, got, want[i])
					}
				}
			}
		})
	}
}

// TestReplayStoreMultiPrefixFullMatchesReplayStore checks the
// whole-trace degenerate cases: an end window <= 0 and one beyond the
// window count both replay the full trace byte-identically to
// ReplayStore, and the counted prefix references add up to exactly the
// windows' lengths.
func TestReplayStoreMultiPrefixFullMatchesReplayStore(t *testing.T) {
	ctx := context.Background()
	st := recordTrace(t, "cgm", 0.05)
	cfg := core.DefaultConfig()
	ref, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.ReplayStore(ctx, ref, st); err != nil {
		t.Fatal(err)
	}
	want := ref.Results()
	for _, windows := range []int{0, -1, st.WindowCount(), st.WindowCount() + 7} {
		sys, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := core.ReplayStoreMultiPrefixFrom(ctx, []*core.System{sys}, st, 0, windows); err != nil {
			t.Fatal(err)
		}
		if got := sys.Results(); !reflect.DeepEqual(got, want) {
			t.Errorf("windows=%d: full prefix replay diverges from ReplayStore", windows)
		}
	}

	// A true prefix consumes exactly the first windows' references.
	const w = 2
	sys, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.ReplayStoreMultiPrefixFrom(ctx, []*core.System{sys}, st, 0, w); err != nil {
		t.Fatal(err)
	}
	wantRefs := uint64(min(w*trace.WindowRefs, st.Len()))
	r := sys.Results()
	if got := r.L1I.Accesses + r.L1D.Accesses; got != wantRefs {
		t.Errorf("prefix of %d windows consumed %d refs, want %d", w, got, wantRefs)
	}
}

// TestReplayStoreMultiPrefixCancel checks prompt cancellation: a
// pre-cancelled context stops the generation within one batch.
func TestReplayStoreMultiPrefixCancel(t *testing.T) {
	st := syntheticStore(64 * trace.ReplayBatchLen)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	systems := newSystems(t, multiConfigs())
	if err := core.ReplayStoreMultiPrefixFrom(ctx, systems, st, 0, 0); err != context.Canceled {
		t.Fatalf("ReplayStoreMultiPrefixFrom = %v, want context.Canceled", err)
	}
	for i, sys := range systems {
		r := sys.Results()
		if consumed := r.L1I.Accesses + r.L1D.Accesses; consumed > trace.ReplayBatchLen {
			t.Errorf("system %d consumed %d refs after pre-cancel, want <= one batch (%d)",
				i, consumed, trace.ReplayBatchLen)
		}
	}
}
