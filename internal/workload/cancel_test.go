package workload

import (
	"context"
	"errors"
	"testing"

	"streamsim/internal/mem"
)

// tallySink counts batched references and does nothing else.
type tallySink struct {
	refs  int
	insts uint64
}

func (s *tallySink) AccessBatch(accs []mem.Access) { s.refs += len(accs) }
func (s *tallySink) AddInstructions(n uint64)      { s.insts += n }

func TestRunContextPreCancelled(t *testing.T) {
	w, err := New("mgrid", SizeSmall)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sink := &tallySink{}
	if err := w.RunContext(ctx, sink, 1.0); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext on cancelled ctx = %v, want context.Canceled", err)
	}
	// The machine polls once per accBufLen emits, so at most a couple
	// of batches escape before the kernel unwinds.
	if sink.refs > 4*accBufLen {
		t.Errorf("cancelled run emitted %d refs, want <= %d", sink.refs, 4*accBufLen)
	}
}

func TestRunContextCancelMidRun(t *testing.T) {
	w, err := New("mgrid", SizeSmall)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const stopAfter = 50 * accBufLen
	sink := &tallySink{}
	cancelling := &cancelAfterSink{tally: sink, stopAfter: stopAfter, cancel: cancel}
	if err := w.RunContext(ctx, cancelling, 1.0); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext = %v, want context.Canceled", err)
	}
	// Cancellation lands within one batch of the triggering reference.
	if sink.refs > stopAfter+2*accBufLen {
		t.Errorf("run emitted %d refs after cancel at %d, want <= %d",
			sink.refs, stopAfter, stopAfter+2*accBufLen)
	}
	if sink.refs < stopAfter {
		t.Errorf("run emitted %d refs, want >= %d (cancel should not fire early)", sink.refs, stopAfter)
	}
}

// cancelAfterSink cancels its context once stopAfter references have
// been delivered.
type cancelAfterSink struct {
	tally     *tallySink
	stopAfter int
	cancel    context.CancelFunc
}

func (s *cancelAfterSink) AccessBatch(accs []mem.Access) {
	s.tally.AccessBatch(accs)
	if s.tally.refs >= s.stopAfter {
		s.cancel()
	}
}

func (s *cancelAfterSink) AddInstructions(n uint64) { s.tally.AddInstructions(n) }

func TestRunContextMatchesRun(t *testing.T) {
	for _, name := range []string{"mgrid", "is"} {
		w, err := New(name, SizeSmall)
		if err != nil {
			t.Fatal(err)
		}
		plain := &tallySink{}
		if err := w.Run(plain, 0.05); err != nil {
			t.Fatal(err)
		}
		ctx := &tallySink{}
		if err := w.RunContext(context.Background(), ctx, 0.05); err != nil {
			t.Fatal(err)
		}
		if plain.refs != ctx.refs || plain.insts != ctx.insts {
			t.Errorf("%s: RunContext (%d refs, %d insts) differs from Run (%d refs, %d insts)",
				name, ctx.refs, ctx.insts, plain.refs, plain.insts)
		}
	}
}

// TestCancelCheckAllocFree is the alloc gate for the context check:
// a machine generating references under a live, cancellable context
// must stay allocation-free on the emit hot path.
func TestCancelCheckAllocFree(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sink := &tallySink{}
	m := newMachine(sink, "allocgate")
	m.ctx, m.done = ctx, ctx.Done()
	base := m.Alloc(1 << 20)
	avg := testing.AllocsPerRun(100, func() {
		// 8 batch boundaries (and cancel polls) per run.
		for i := 0; i < 8*accBufLen; i++ {
			m.Load(base + mem.Addr(8*i))
		}
	})
	if avg != 0 {
		t.Fatalf("AllocsPerRun with context check = %v, want 0", avg)
	}
}
