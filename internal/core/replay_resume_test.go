package core_test

import (
	"context"
	"reflect"
	"testing"

	"streamsim/internal/core"
	"streamsim/internal/trace"
	"streamsim/internal/workload"
)

// TestCheckpointResumeMatchesScratch pins the contract the optimizer's
// incremental rungs rest on, over every workload generator: replaying
// windows [0, F), checkpointing each system, restoring, and extending
// the restored systems over [F, K) via ReplayStoreMultiPrefixFrom
// yields Results byte-identical to one uninterrupted full replay — for
// the shared-front fan-out and for solo systems alike. It also pins
// the snapshot's isolation: extending the original systems after the
// checkpoint, and restoring the same checkpoint twice, both reproduce
// the scratch results, so neither the live system nor a previous
// restore can disturb a saved snapshot.
//
//simlint:deterministic streamsim/internal/core.ReplayStoreMultiPrefixFrom
//simlint:deterministic (*streamsim/internal/core.Checkpoint).Restore
func TestCheckpointResumeMatchesScratch(t *testing.T) {
	const scale = 0.05
	ctx := context.Background()
	cfgs := multiConfigs()
	for _, name := range workload.Names() {
		t.Run(name, func(t *testing.T) {
			st := recordTrace(t, name, scale)
			K := st.WindowCount()
			F := K / 2
			if F < 1 {
				F = 1
			}

			// Scratch reference: one uninterrupted full replay per config.
			want := replayEach(t, cfgs, st)

			// Prefix to F as a generation, checkpoint every system.
			systems := newSystems(t, cfgs)
			if err := core.ReplayStoreMultiPrefixFrom(ctx, systems, st, 0, F); err != nil {
				t.Fatal(err)
			}
			cks := make([]*core.Checkpoint, len(systems))
			for i, sys := range systems {
				cks[i] = sys.Checkpoint()
			}

			// The originals keep going: a checkpoint must not disturb the
			// live system it was taken from.
			if err := core.ReplayStoreMultiPrefixFrom(ctx, systems, st, F, K); err != nil {
				t.Fatal(err)
			}
			for i, sys := range systems {
				if got := sys.Results(); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("config %d: original extended past checkpoint diverges from scratch replay:\ngot  %+v\nwant %+v",
						i, got, want[i])
				}
			}

			// Restore and resume — twice from the same snapshots, solo the
			// second time, to pin multi-restore and grouping independence.
			for round := 0; round < 2; round++ {
				restored := make([]*core.System, len(cks))
				for i, ck := range cks {
					restored[i] = ck.Restore()
				}
				if round == 0 {
					if err := core.ReplayStoreMultiPrefixFrom(ctx, restored, st, F, K); err != nil {
						t.Fatal(err)
					}
				} else {
					for _, sys := range restored {
						if err := core.ReplayStoreMultiPrefixFrom(ctx, []*core.System{sys}, st, F, K); err != nil {
							t.Fatal(err)
						}
					}
				}
				for i, sys := range restored {
					if got := sys.Results(); !reflect.DeepEqual(got, want[i]) {
						t.Errorf("config %d (restore round %d): resumed replay diverges from scratch replay:\ngot  %+v\nwant %+v",
							i, round, got, want[i])
					}
				}
			}
		})
	}
}

// TestReplayStoreMultiPrefixFromBounds checks the range clamps: an
// empty range replays nothing, toWindow <= 0 or beyond the window
// count means end of trace, and a from beyond to is clamped shut.
func TestReplayStoreMultiPrefixFromBounds(t *testing.T) {
	ctx := context.Background()
	st := recordTrace(t, "mgrid", 0.05)
	K := st.WindowCount()
	for _, tc := range []struct{ from, to int }{
		{0, 0},  // to<=0 is end-of-trace, so from 0: full replay
		{2, -1}, // negative to is end-of-trace too
		{K, K + 3},
		{3, 3},
		{5, 2},
	} {
		sys, err := core.New(core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := core.ReplayStoreMultiPrefixFrom(ctx, []*core.System{sys}, st, tc.from, tc.to); err != nil {
			t.Fatal(err)
		}
		from, to := tc.from, tc.to
		if to <= 0 || to > K {
			to = K
		}
		if from < 0 {
			from = 0
		}
		if from > to {
			from = to
		}
		wantRefs := uint64(st.PrefixLen(to) - st.PrefixLen(from))
		r := sys.Results()
		if got := r.L1I.Accesses + r.L1D.Accesses; got != wantRefs {
			t.Errorf("From(%d, %d): consumed %d refs, want %d", tc.from, tc.to, got, wantRefs)
		}
	}
}

// TestReplayStoreMultiPrefixFromCancel checks prompt cancellation of a
// resumed replay: a pre-cancelled context stops the generation within
// one batch past the resume point.
func TestReplayStoreMultiPrefixFromCancel(t *testing.T) {
	st := syntheticStore(64 * trace.ReplayBatchLen)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	systems := newSystems(t, multiConfigs())
	if err := core.ReplayStoreMultiPrefixFrom(ctx, systems, st, 2, 0); err != context.Canceled {
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
