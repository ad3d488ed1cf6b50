package core

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"streamsim/internal/mem"
	"streamsim/internal/trace"
	"streamsim/internal/workload"
)

// poisonAddr is an address no trace reaches: a poisoned word is a
// store to it, which a tap reads as a write-back.
const poisonAddr = mem.Addr(0xdeadbeef << 12)

var (
	poisonWord   = uint64(poisonAddr)<<2 | uint64(mem.Write)
	poisonMiss   = Miss{Index: 1, TapEnd: 1, Addr: poisonAddr, Write: true, Outcome: Outcome{Level: LevelStream, WroteBack: true, Prefetches: 9}}
	poisonAccess = mem.Access{Addr: poisonAddr, PC: poisonAddr, Kind: mem.Write}
)

// poison overwrites b up to its capacity with v.
func poison[T any](b []T, v T) {
	b = b[:cap(b)]
	for i := range b {
		b[i] = v
	}
}

// relend poisons the buffer *b, when one is armed, and puts the spare
// kept for it in its place, keeping the poisoned one as the next spare.
func relend[T any](spares map[*[]T][]T, b *[]T, v T) {
	if *b == nil {
		return
	}
	poison(*b, v)
	spare := spares[b]
	if spare == nil {
		spare = make([]T, 0, cap(*b))
	}
	spares[b], *b = *b, spare[:0]
}

// replayPoisoned is ReplayStoreFronts with every lent buffer relent:
// one frontPlan.replay call per batch, with two decode buffers in turn,
// and after each step the taps and miss logs of every system and
// stored front.
func replayPoisoned(t *testing.T, systems []*System, st *trace.Store, memo FrontMemo, batch func(n int)) {
	p := planFronts(systems, batch != nil, memo, st)
	words, misses := map[*[]uint64][]uint64{}, map[*[]Miss][]Miss{}
	visit := func(n int) {
		if batch != nil {
			batch(n)
		}
		for _, sys := range systems {
			relend(words, &sys.tap, poisonWord)
			relend(misses, &sys.log, poisonMiss)
		}
		for _, c := range p.classes {
			if c.stored != nil {
				relend(words, &c.stored.tap, poisonWord)
				relend(misses, &c.stored.entries, poisonMiss)
			}
		}
	}
	it := st.Iter()
	bufs := [2][]uint64{make([]uint64, trace.ReplayBatchLen), make([]uint64, trace.ReplayBatchLen)}
	for k, left := 0, st.Len(); left > 0; k++ {
		n := min(left, trace.ReplayBatchLen)
		if err := p.replay(context.Background(), &it, n, bufs[k%2], visit); err != nil {
			t.Fatal(err)
		}
		poison(bufs[k%2], poisonWord)
		left -= n
	}
	p.settle(true)
	if memo != nil {
		p.record(memo)
	}
}

// poisonSink hands each batch of a workload to its sink in a buffer of
// its own, one of two in turn, and poisons it when the call returns.
type poisonSink struct {
	mem.Sink
	bufs [2][]mem.Access
	k    int
}

func (p *poisonSink) AccessBatch(accs []mem.Access) {
	b := append(p.bufs[p.k][:0], accs...)
	p.Sink.AccessBatch(b)
	poison(b, poisonAccess)
	p.bufs[p.k], p.k = b, 1-p.k
}

// TestReplayIgnoresPoisonedBuffers is the poisoned-buffer test. A
// replay lends buffers and refills them once the call returns: the
// decode batch, each leader's tap and miss log, a stored front's
// decoded tap and log, and a workload's batch to a Store or a System.
// A callee that kept one and read it on a later call would read
// another batch. Here every lender lends two buffers in turn and
// poisons the one it lent when the call returns, so a kept slice reads
// poison. Each component row leads a front class with a follower of
// deeper streams, and the paper's L1s under each backend (paperRows)
// share one class, the one a front memo serves; replayed live and
// from the stored front, logged and not, every system's Results and
// miss logs must equal ReplayStoreFronts'. Recorded through poisoned batches, the workload
// must decode to the same trace, and driven through them, each row's
// system must end with its replay's Results.
func TestReplayIgnoresPoisonedBuffers(t *testing.T) {
	const scale = 0.01
	w, err := workload.New("appsp", workload.SizeSmall)
	if err != nil {
		t.Fatal(err)
	}
	st := trace.NewStore(0)
	if err := w.Run(st, scale); err != nil {
		t.Fatal(err)
	}
	rows := append(componentRows(), paperRows()...)
	run := func(logged bool, replay func([]*System, func(int))) (results []Results, logs [][]Miss) {
		var systems []*System
		for _, row := range rows {
			follower := row
			follower.cfg.Streams.Depth++
			systems = append(systems, row.build(t), follower.build(t))
		}
		logs = make([][]Miss, len(systems))
		var batch func(int)
		if logged {
			batch = func(int) {
				for i, sys := range systems {
					logs[i] = append(logs[i], sys.MissLog()...)
				}
			}
		}
		replay(systems, batch)
		for _, sys := range systems {
			results = append(results, sys.Results())
		}
		return results, logs
	}
	// The first poisoned replay, live, records the front the stored
	// replays serve.
	memo := &oneFront{}
	var live []Results
	for _, mode := range []struct{ stored, logged bool }{{false, false}, {false, true}, {true, false}, {true, true}} {
		var m FrontMemo
		if mode.stored {
			m = memo
		}
		want, wantLogs := run(mode.logged, func(systems []*System, batch func(int)) {
			if err := ReplayStoreFronts(context.Background(), systems, st, m, batch); err != nil {
				t.Fatal(err)
			}
		})
		if live == nil {
			live, m = want, memo
		}
		got, gotLogs := run(mode.logged, func(systems []*System, batch func(int)) {
			replayPoisoned(t, systems, st, m, batch)
		})
		if !slices.Equal(got, want) || !reflect.DeepEqual(gotLogs, wantLogs) {
			t.Errorf("%+v: results or miss logs differ when lent buffers are poisoned", mode)
		}
	}
	if memo.f == nil {
		t.Fatal("the memo holds no front")
	}

	rec := trace.NewStore(0)
	if err := w.Run(&poisonSink{Sink: rec}, scale); err != nil {
		t.Fatal(err)
	}
	a, b := st.Iter(), rec.Iter()
	bufA, bufB := make([]mem.Access, trace.ReplayBatchLen), make([]mem.Access, trace.ReplayBatchLen)
	for n := 1; n > 0; {
		n = a.Next(bufA)
		if m := b.Next(bufB); !slices.Equal(bufA[:n], bufB[:m]) || rec.Instructions() != st.Instructions() {
			t.Fatal("a trace recorded through poisoned batches decodes differently")
		}
	}
	for i, row := range rows {
		sys := row.build(t)
		if err := w.Run(&poisonSink{Sink: sys}, scale); err != nil {
			t.Fatal(err)
		}
		got := sys.Results()
		got.Instructions = 0
		if got != live[2*i] {
			t.Errorf("%s: driven from the workload through poisoned batches:\ngot  %+v\nwant %+v", row.name, got, live[2*i])
		}
	}
}
