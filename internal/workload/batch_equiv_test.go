package workload_test

// Delivery-path equivalence: the machine's batched delivery
// (System.AccessBatch) and the compact trace store must be invisible
// in the statistics. For every benchmark, two executions in one
// process, a direct run into a system and a run recorded into a store
// whose references then replay one at a time through System.Access,
// have to produce byte-identical serialized Results. This extends the
// determinism golden test from "same inputs, same outputs" to "same
// inputs, same outputs, on every delivery path". It is also the gate
// against a global or clock-seeded random draw inside any workload
// kernel: the two runs of that workload would diverge. The
// determinism golden runs only mgrid and fftpde, and the detflow
// analyzer does not reach kernels, so for the other thirteen kernels
// this test is the only such gate.

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

			batchSys := newSystem(t)
			if err := w.Run(batchSys, equivScale); err != nil {
				t.Fatal(err)
			}
			batched := resultsJSON(t, batchSys)

			st := trace.NewStore(int(workload.EstimateRefs(name, workload.SizeSmall, equivScale)))
			if err := w.Run(st, equivScale); err != nil {
				t.Fatal(err)
			}
			if err := st.Err(); err != nil {
				t.Fatal(err)
			}
			scalarSys := newSystem(t)
			buf := make([]mem.Access, trace.ReplayBatchLen)
			it := st.Iter()
			for n := it.Next(buf); n > 0; n = it.Next(buf) {
				for _, a := range buf[:n] {
					scalarSys.Access(a)
				}
			}
			scalarSys.AddInstructions(st.Instructions())
			if scalar := resultsJSON(t, scalarSys); !bytes.Equal(batched, scalar) {
				t.Errorf("store replay through Access diverged from batched delivery:\nbatched: %s\nscalar: %s", batched, scalar)
			}
		})
	}
}
