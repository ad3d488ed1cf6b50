package timing

import (
	"context"
	"testing"

	"streamsim/internal/core"
	"streamsim/internal/trace"
	"streamsim/internal/workload"
)

// TestChargeBatchIgnoresPoisonedLogs is the timed half of core's
// poisoned-buffer test (TestReplayIgnoresPoisonedBuffers). It replays
// as Replay does, but lends each model its miss log in a buffer of its
// own, one of two in turn, and poisons that buffer, and the system's
// miss log up to its capacity, when chargeBatch returns. Two models
// share a front, so the second charges a follower's log; each must end
// with Replay's Stats and Results.
func TestChargeBatchIgnoresPoisonedLogs(t *testing.T) {
	w, err := workload.New("appsp", workload.SizeSmall)
	if err != nil {
		t.Fatal(err)
	}
	st := trace.NewStore(0)
	if err := w.Run(st, 0.01); err != nil {
		t.Fatal(err)
	}
	models := func() []*Model {
		a, errA := New(smallCfg(2), DefaultLatencies())
		b, errB := New(smallCfg(4), DefaultLatencies())
		if errA != nil || errB != nil {
			t.Fatal(errA, errB)
		}
		return []*Model{a, b}
	}
	want := models()
	if err := Replay(context.Background(), want, st, nil); err != nil {
		t.Fatal(err)
	}

	poison := func(log []core.Miss) {
		log = log[:cap(log)]
		for i := range log {
			log[i] = core.Miss{Index: 1, TapEnd: 1, Addr: 0xdeadbeef << 12, Write: true, Outcome: core.Outcome{Level: core.LevelMemory, WroteBack: true, Prefetches: 9}}
		}
	}
	got := models()
	systems := []*core.System{got[0].sys, got[1].sys}
	perAccess := st.Instructions() / uint64(st.Len())
	var bufs [2][2][]core.Miss
	k := 0
	err = core.ReplayStoreFronts(context.Background(), systems, st, nil, func(n int) {
		for i, m := range got {
			lent := append(bufs[i][k%2][:0], m.sys.MissLog()...)
			m.chargeBatch(n, lent, perAccess)
			poison(lent)
			poison(m.sys.MissLog())
			bufs[i][k%2] = lent
		}
		k++
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range got {
		m.AddInstructions(st.Instructions() - uint64(st.Len())*perAccess)
		if m.Stats() != want[i].Stats() || m.Results() != want[i].Results() {
			t.Errorf("model %d's ledger or results differ when its miss logs are poisoned:\ngot  %+v\nwant %+v", i, m.Stats(), want[i].Stats())
		}
	}
}
