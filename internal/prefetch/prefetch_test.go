package prefetch

import (
	"slices"
	"testing"

	"streamsim/internal/mem"
)

func TestNewOBLValidation(t *testing.T) {
	if _, err := NewOBL(0); err == nil {
		t.Error("degree 0 should be rejected")
	}
	o, err := NewOBL(2)
	if err != nil {
		t.Fatal(err)
	}
	if o.Name() != "OBL-2" {
		t.Errorf("Name = %q", o.Name())
	}
}

func TestOBLSuccessors(t *testing.T) {
	o, _ := NewOBL(1)
	got := o.Miss(mem.Access{}, 100, nil)
	if len(got) != 1 || got[0] != 101 {
		t.Errorf("Miss successors = %v, want [101]", got)
	}
	got = o.FirstUse(mem.Access{}, 200, got[:0])
	if len(got) != 1 || got[0] != 201 {
		t.Errorf("FirstUse successors = %v, want [201] (tagged chaining)", got)
	}
	o2, _ := NewOBL(3)
	buf := []mem.Addr{7}
	got = o2.Miss(mem.Access{}, 10, buf)
	want := []mem.Addr{7, 11, 12, 13}
	if !slices.Equal(got, want) {
		t.Errorf("degree-3 successors appended to [7] = %v, want %v", got, want)
	}
}

func newRPT(t *testing.T) *RPT {
	t.Helper()
	r, err := NewRPT(mem.DefaultGeometry(), 256, 4)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestNewRPTValidation(t *testing.T) {
	g := mem.DefaultGeometry()
	if _, err := NewRPT(g, 0, 1); err == nil {
		t.Error("zero entries should be rejected")
	}
	if _, err := NewRPT(g, 10, 4); err == nil {
		t.Error("entries not divisible by assoc should be rejected")
	}
	if _, err := NewRPT(g, 12, 4); err == nil {
		t.Error("non-power-of-two set count should be rejected")
	}
}

func TestRPTDetectsStrideAfterWarmup(t *testing.T) {
	r := newRPT(t)
	pc := mem.Addr(0x400)
	const stride = 4096
	base := mem.Addr(1 << 20)
	// initial -> transient -> steady: the third observation with a
	// matching stride starts predicting.
	for i := 0; i < 3; i++ {
		blk, ok := r.Observe(mem.Access{PC: pc, Addr: base + mem.Addr(i*stride), Kind: mem.Read})
		if i < 2 && ok {
			t.Fatalf("observation %d predicted early (%d)", i, blk)
		}
		if i == 2 {
			if !ok {
				t.Fatal("steady entry should predict")
			}
			want := mem.DefaultGeometry().BlockAddr(base + 3*stride)
			if blk != want {
				t.Errorf("predicted block %d, want %d", blk, want)
			}
		}
	}
}

func TestRPTUnitStrideToo(t *testing.T) {
	// Unlike the off-chip czone filter, the RPT sees every reference
	// and handles unit strides through the same automaton.
	r := newRPT(t)
	pc := mem.Addr(0x404)
	hits := 0
	for i := 0; i < 20; i++ {
		if _, ok := r.Observe(mem.Access{PC: pc, Addr: mem.Addr(1<<20 + i*8), Kind: mem.Read}); ok {
			hits++
		}
	}
	if hits < 17 {
		t.Errorf("steady predictions = %d/20, want ~18", hits)
	}
}

func TestRPTIrregularGoesNoPred(t *testing.T) {
	r := newRPT(t)
	pc := mem.Addr(0x408)
	addrs := []mem.Addr{100, 9000, 200, 77000, 41, 60000, 3000}
	preds := 0
	for _, a := range addrs {
		if _, ok := r.Observe(mem.Access{PC: pc, Addr: a << 10, Kind: mem.Read}); ok {
			preds++
		}
	}
	if preds != 0 {
		t.Errorf("irregular reference pattern produced %d predictions, want 0", preds)
	}
}

func TestRPTRecoversAfterPhaseChange(t *testing.T) {
	r := newRPT(t)
	pc := mem.Addr(0x40c)
	// Steady at stride 64...
	for i := 0; i < 5; i++ {
		r.Observe(mem.Access{PC: pc, Addr: mem.Addr(1<<20 + i*64), Kind: mem.Read})
	}
	// ...then the loop changes to stride 1024.
	base := mem.Addr(1 << 22)
	var sawPred bool
	for i := 0; i < 6; i++ {
		if _, ok := r.Observe(mem.Access{PC: pc, Addr: base + mem.Addr(i*1024), Kind: mem.Read}); ok {
			sawPred = true
		}
	}
	if !sawPred {
		t.Error("RPT failed to re-lock after a stride change")
	}
}

func TestRPTSeparatePCsIndependent(t *testing.T) {
	r := newRPT(t)
	pcA, pcB := mem.Addr(0x500), mem.Addr(0x504)
	// Interleaved: pcA strides by 8, pcB by 4096. Both must go steady.
	var okA, okB bool
	for i := 0; i < 10; i++ {
		if _, ok := r.Observe(mem.Access{PC: pcA, Addr: mem.Addr(1<<20 + i*8), Kind: mem.Read}); ok {
			okA = true
		}
		if _, ok := r.Observe(mem.Access{PC: pcB, Addr: mem.Addr(1<<24 + i*4096), Kind: mem.Write}); ok {
			okB = true
		}
	}
	if !okA || !okB {
		t.Errorf("independent PCs: predictions (A, B) = (%v, %v), want both", okA, okB)
	}
}

func TestRPTIgnoresIFetchAndUnknownPC(t *testing.T) {
	r := newRPT(t)
	if _, ok := r.Observe(mem.Access{PC: 0x400, Addr: 1 << 20, Kind: mem.IFetch}); ok {
		t.Error("ifetches must not be observed")
	}
	if _, ok := r.Observe(mem.Access{PC: 0, Addr: 1 << 20, Kind: mem.Read}); ok {
		t.Error("PC-less references must not be observed")
	}
	if got := r.Stats().Observations; got != 0 {
		t.Errorf("Observations = %d, want 0", got)
	}
}

func TestRPTEviction(t *testing.T) {
	// A tiny 1-set table: more live PCs than ways forces evictions.
	r, err := NewRPT(mem.DefaultGeometry(), 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		pc := mem.Addr(0x400 + i*4*int(2)) // hmm: all PCs map to set 0 (1 set)
		r.Observe(mem.Access{PC: pc, Addr: mem.Addr(i) << 12, Kind: mem.Read})
	}
	if r.Stats().Evictions == 0 {
		t.Error("overcommitted table should evict")
	}
}

func TestRPTZeroStrideNoPrefetch(t *testing.T) {
	r := newRPT(t)
	pc := mem.Addr(0x600)
	for i := 0; i < 10; i++ {
		if _, ok := r.Observe(mem.Access{PC: pc, Addr: 1 << 20, Kind: mem.Read}); ok {
			t.Fatal("repeated same-address references must not prefetch (stride 0)")
		}
	}
}
