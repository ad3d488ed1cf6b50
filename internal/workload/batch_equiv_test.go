package workload_test

// Batched-path equivalence: the batched hot path (Machine access
// buffering -> System.AccessBatch) and the compact trace store must be
// invisible in the statistics. For every benchmark, three executions —
// scalar per-access delivery, direct batched delivery, and
// record-to-store-then-batched-replay — have to produce byte-identical
// serialized Results. This extends the determinism golden test from
// "same inputs, same outputs" to "same inputs, same outputs, on every
// delivery path". It is also the gate against a global or
// clock-seeded random draw inside any workload kernel: the three runs
// of that workload would diverge. The determinism golden runs only
// mgrid and fftpde, and the detflow analyzer does not reach kernels,
// so for the other thirteen kernels this test is the only such gate.

import (
	"bytes"
	"encoding/json"
	"testing"

	"streamsim/internal/core"
	"streamsim/internal/mem"
	"streamsim/internal/trace"
	"streamsim/internal/workload"
)

const equivScale = 0.05

// scalarOnly hides System.AccessBatch so the Machine takes the
// per-access path — the pre-batching behaviour.
type scalarOnly struct{ sys *core.System }

func (s scalarOnly) Access(a mem.Access)      { s.sys.Access(a) }
func (s scalarOnly) AddInstructions(n uint64) { s.sys.AddInstructions(n) }

// storeRec records into a trace.Store, the experiments recording path.
type storeRec struct {
	store *trace.Store
	insts uint64
}

func (r *storeRec) Access(a mem.Access)           { r.store.Append(a) }
func (r *storeRec) AccessBatch(accs []mem.Access) { r.store.AppendBatch(accs) }
func (r *storeRec) AddInstructions(n uint64)      { r.insts += n }

func resultsJSON(t *testing.T, sys *core.System) []byte {
	t.Helper()
	out, err := json.Marshal(sys.Results())
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func newSystem(t *testing.T) *core.System {
	t.Helper()
	sys, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestBatchedReplayMatchesScalar(t *testing.T) {
	for _, name := range workload.Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			w, err := workload.New(name, workload.SizeSmall)
			if err != nil {
				t.Fatal(err)
			}

			scalarSys := newSystem(t)
			if err := w.Run(scalarOnly{scalarSys}, equivScale); err != nil {
				t.Fatal(err)
			}
			scalar := resultsJSON(t, scalarSys)

			batchSys := newSystem(t)
			if err := w.Run(batchSys, equivScale); err != nil {
				t.Fatal(err)
			}
			if batched := resultsJSON(t, batchSys); !bytes.Equal(scalar, batched) {
				t.Errorf("batched delivery diverged from scalar:\nscalar: %s\nbatched: %s", scalar, batched)
			}

			rec := &storeRec{store: trace.NewStore(int(workload.EstimateRefs(name, workload.SizeSmall, equivScale)))}
			if err := w.Run(rec, equivScale); err != nil {
				t.Fatal(err)
			}
			if err := rec.store.Err(); err != nil {
				t.Fatal(err)
			}
			replaySys := newSystem(t)
			buf := make([]mem.Access, trace.ReplayBatchLen)
			it := rec.store.Iter()
			for n := it.Next(buf); n > 0; n = it.Next(buf) {
				replaySys.AccessBatch(buf[:n])
			}
			replaySys.AddInstructions(rec.insts)
			if replayed := resultsJSON(t, replaySys); !bytes.Equal(scalar, replayed) {
				t.Errorf("store replay diverged from scalar:\nscalar: %s\nreplayed: %s", scalar, replayed)
			}
		})
	}
}
