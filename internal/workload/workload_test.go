package workload

import (
	"math"
	"testing"

	"streamsim/internal/mem"
)

// countSink tallies what a workload emits.
type countSink struct {
	reads, writes, fetches uint64
	insts                  uint64
	minAddr, maxAddr       mem.Addr
}

func (c *countSink) Access(a mem.Access) {
	switch a.Kind {
	case mem.Read:
		c.reads++
	case mem.Write:
		c.writes++
	case mem.IFetch:
		c.fetches++
	}
	if c.minAddr == 0 || a.Addr < c.minAddr {
		c.minAddr = a.Addr
	}
	if a.Addr > c.maxAddr {
		c.maxAddr = a.Addr
	}
}

func (c *countSink) AddInstructions(n uint64) { c.insts += n }

func TestNamesComplete(t *testing.T) {
	names := Names()
	if len(names) != 15 {
		t.Fatalf("Names() has %d entries, want 15", len(names))
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Errorf("duplicate benchmark %q", n)
		}
		seen[n] = true
		if _, err := New(n, SizeSmall); err != nil {
			t.Errorf("New(%q, small): %v", n, err)
		}
	}
}

func TestUnknownBenchmark(t *testing.T) {
	if _, err := New("nosuch", SizeSmall); err == nil {
		t.Error("unknown benchmark should be rejected")
	}
}

func TestGrowableSizes(t *testing.T) {
	grow := map[string]bool{}
	for _, n := range GrowableNames() {
		grow[n] = true
	}
	want := []string{"appbt", "applu", "appsp", "cgm", "mgrid"}
	if len(grow) != len(want) {
		t.Fatalf("GrowableNames() = %v, want %v", GrowableNames(), want)
	}
	for _, n := range want {
		if !grow[n] {
			t.Errorf("%s should be growable", n)
		}
	}
	for _, n := range Names() {
		_, err := New(n, SizeLarge)
		if grow[n] && err != nil {
			t.Errorf("New(%q, large): %v", n, err)
		}
		if !grow[n] && err == nil {
			t.Errorf("New(%q, large) should be rejected", n)
		}
	}
}

func TestSizeString(t *testing.T) {
	if SizeSmall.String() != "small" || SizeLarge.String() != "large" {
		t.Error("Size.String names wrong")
	}
}

func TestScaleValidation(t *testing.T) {
	w, err := New("embar", SizeSmall)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{0, -1, 1.5, math.NaN(), math.Inf(1), math.Inf(-1), math.Nextafter(1, 2)} {
		if err := w.Run(&countSink{}, bad); err == nil {
			t.Errorf("scale %v should be rejected", bad)
		}
	}
}

func TestEveryWorkloadEmits(t *testing.T) {
	for _, name := range Names() {
		w, err := New(name, SizeSmall)
		if err != nil {
			t.Fatal(err)
		}
		var c countSink
		if err := w.Run(&c, 0.02); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if c.reads == 0 {
			t.Errorf("%s emitted no loads", name)
		}
		if c.fetches == 0 {
			t.Errorf("%s emitted no instruction fetches", name)
		}
		if c.insts == 0 {
			t.Errorf("%s retired no instructions", name)
		}
		if c.insts < c.reads {
			t.Errorf("%s: %d instructions < %d loads (unrealistic)", name, c.insts, c.reads)
		}
		if w.DataBytes == 0 || w.Description == "" || w.Input == "" {
			t.Errorf("%s: incomplete metadata: %+v", name, w)
		}
	}
}

func TestDeterministicTraces(t *testing.T) {
	run := func() countSink {
		w, err := New("bdna", SizeSmall)
		if err != nil {
			t.Fatal(err)
		}
		var c countSink
		if err := w.Run(&c, 0.05); err != nil {
			t.Fatal(err)
		}
		return c
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("two runs differ: %+v vs %+v", a, b)
	}
}

func TestMachineAllocSkewed(t *testing.T) {
	m := newMachine(&countSink{}, "test")
	a := m.Alloc(64 << 10)
	b := m.Alloc(64 << 10)
	c := m.Alloc(64 << 10)
	if b <= a || c <= b {
		t.Fatal("allocations must ascend")
	}
	// The skew must break set alignment: gaps differ.
	if b-a == c-b {
		t.Error("allocation gaps identical; de-aliasing skew missing")
	}
	if a%64 != 0 || b%64 != 0 || c%64 != 0 {
		t.Error("allocations must stay block-aligned")
	}
}

func TestMachineInstEmitsFetches(t *testing.T) {
	var c countSink
	m := newMachine(&c, "test")
	// 16 instructions of 4 bytes = 64 bytes = one block crossed.
	m.Inst(16)
	if c.fetches != 1 {
		t.Errorf("fetches = %d, want 1 per block of code", c.fetches)
	}
	m.Inst(16 * 100)
	if c.fetches < 90 {
		t.Errorf("fetches = %d, want ~101", c.fetches)
	}
}

func TestMachineCodeWraps(t *testing.T) {
	var c countSink
	m := newMachine(&c, "test")
	m.codeBytes = 256 // 4 blocks of code
	m.Inst(10000)     // loops many times
	if c.fetches == 0 {
		t.Fatal("no fetches emitted")
	}
	if c.maxAddr >= mem.Addr(codeSegBase+512) {
		t.Errorf("code fetch at %#x escaped the 256-byte footprint", c.maxAddr)
	}
}

func TestMachineInstructionBatching(t *testing.T) {
	var c countSink
	m := newMachine(&c, "test")
	m.Inst(5)
	if c.insts != 0 {
		t.Error("instruction counts should batch, not flush per call")
	}
	m.flush()
	if c.insts != 5 {
		t.Errorf("flushed %d instructions, want 5", c.insts)
	}
}

func TestToolkitBlockRun(t *testing.T) {
	var c countSink
	m := newMachine(&c, "test")
	m.BlockRun(m.Alloc(4096), 200, 1)
	if c.reads != 25 { // 200 bytes / 8-byte touches
		t.Errorf("reads = %d, want 25", c.reads)
	}
}

func TestItersScaling(t *testing.T) {
	if got := iters(100, 0.5); got != 50 {
		t.Errorf("iters(100, 0.5) = %d, want 50", got)
	}
	if got := iters(2, 0.01); got != 1 {
		t.Errorf("iters floor = %d, want 1", got)
	}
}
