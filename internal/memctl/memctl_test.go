package memctl

import (
	"testing"
	"testing/quick"

	"streamsim/internal/mem"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Banks: 0, BusyCycles: 10}); err == nil {
		t.Error("zero banks should be rejected")
	}
	if _, err := New(Config{Banks: 12, BusyCycles: 10}); err == nil {
		t.Error("non-power-of-two banks should be rejected")
	}
	if _, err := New(Config{Banks: 8, BusyCycles: 0}); err == nil {
		t.Error("zero recovery should be rejected")
	}
	if _, err := New(DefaultConfig()); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestIdleBankStartsImmediately(t *testing.T) {
	b, _ := New(Config{Banks: 4, BusyCycles: 10})
	if start := b.Access(0, 100); start != 100 {
		t.Errorf("idle bank start = %d, want 100", start)
	}
	if s := b.Stats(); s.Conflicts != 0 || s.WaitCycles != 0 {
		t.Errorf("idle access recorded a conflict: %+v", s)
	}
}

func TestSameBankSerializes(t *testing.T) {
	b, _ := New(Config{Banks: 4, BusyCycles: 10})
	b.Access(0, 0)
	// Block 4 maps to the same bank (4 % 4 == 0).
	start := b.Access(4, 1)
	if start != 10 {
		t.Errorf("conflicting access start = %d, want 10", start)
	}
	s := b.Stats()
	if s.Conflicts != 1 || s.WaitCycles != 9 {
		t.Errorf("conflict ledger = %+v, want 1 conflict, 9 wait cycles", s)
	}
}

func TestDifferentBanksParallel(t *testing.T) {
	b, _ := New(Config{Banks: 4, BusyCycles: 10})
	for blk := mem.Addr(0); blk < 4; blk++ {
		if start := b.Access(blk, 0); start != 0 {
			t.Errorf("bank %d busy at time 0", blk)
		}
	}
}

func TestUnitStrideSweepsAllBanks(t *testing.T) {
	// A unit-stride block walk at a request rate matching aggregate
	// bandwidth never waits: each bank recovers before its next turn.
	b, _ := New(Config{Banks: 8, BusyCycles: 8})
	now := uint64(0)
	for i := 0; i < 1000; i++ {
		b.Access(mem.Addr(i), now)
		now += 1 // 8 banks x 8-cycle recovery: capacity 1 block/cycle
	}
	if got := b.Stats().ConflictRate(); got != 0 {
		t.Errorf("unit stride conflict rate = %.2f, want 0", got)
	}
}

func TestPowerOfTwoStrideCamps(t *testing.T) {
	// Stride 8 over 8 banks: every request lands on bank 0 and
	// serializes completely.
	b, _ := New(Config{Banks: 8, BusyCycles: 8})
	now := uint64(0)
	for i := 0; i < 1000; i++ {
		b.Access(mem.Addr(i*8), now)
		now += 1
	}
	s := b.Stats()
	if s.ConflictRate() < 0.95 {
		t.Errorf("bank-camping conflict rate = %.2f, want ~1", s.ConflictRate())
	}
	if s.AvgWait() < 5 {
		t.Errorf("bank-camping average wait = %.1f, want large", s.AvgWait())
	}
}

// Property: odd strides always use every bank, so sixteen requests at
// once land in sixteen banks without a conflict; the ledger always
// balances (conflicts <= requests, wait only with conflicts).
func TestBankProperties(t *testing.T) {
	f := func(strideRaw uint8, reqs uint8) bool {
		stride := int64(strideRaw) | 1 // odd
		b, err := New(Config{Banks: 16, BusyCycles: 4})
		if err != nil {
			return false
		}
		for i := 0; i < 16; i++ {
			b.Access(mem.Addr(int64(i)*stride), 0)
		}
		if b.Stats().Conflicts != 0 {
			return false
		}
		for i := 0; i < int(reqs); i++ {
			b.Access(mem.Addr(int64(i)*stride), uint64(i))
		}
		s := b.Stats()
		if s.Conflicts > s.Requests {
			return false
		}
		return (s.WaitCycles == 0) == (s.Conflicts == 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
