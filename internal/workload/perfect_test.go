package workload

// Structural tests for the PERFECT benchmark models.

import (
	"testing"

	"streamsim/internal/mem"
)

// TestPerfectSuiteMembership: Table 1 lists the eight NAS benchmarks,
// then the seven PERFECT ones, and Names keeps that order.
func TestPerfectSuiteMembership(t *testing.T) {
	for i, name := range Names() {
		w, err := New(name, SizeSmall)
		if err != nil {
			t.Fatal(err)
		}
		want := "NAS"
		if i >= 8 {
			want = "PERFECT"
		}
		if w.Suite != want {
			t.Errorf("%s suite = %q, want %s", name, w.Suite, want)
		}
	}
}

func TestAdmMostlyResident(t *testing.T) {
	// adm's references overwhelmingly hit a small workspace; the
	// scattered field gathers are rare (miss rate 0.04% in Table 1).
	c := traceOf(t, "adm", SizeSmall)
	// Workspace churn shows as a small set of recurring deltas
	// covering nearly all references.
	var top uint64
	for _, n := range c.deltas {
		if n > top {
			top = n
		}
	}
	if frac := float64(c.unitish) / float64(c.total); frac < 0.9 {
		t.Errorf("adm resident fraction = %.2f, want > 0.9", frac)
	}
}

func TestBdnaScatteredGathers(t *testing.T) {
	c := traceOf(t, "bdna", SizeSmall)
	// Far partner gathers land all over a ~2 MB arena: many large
	// distinct deltas.
	var farDistinct int
	for d, n := range c.deltas {
		if (d > 4096 || d < -4096) && n > 0 {
			farDistinct++
		}
	}
	if farDistinct < 500 {
		t.Errorf("bdna distinct far deltas = %d, want many (neighbour-list gathers)", farDistinct)
	}
}

func TestMdgPairwiseRecords(t *testing.T) {
	c := traceOf(t, "mdg", SizeSmall)
	// Molecule records are walked in 8-byte steps (144-byte runs).
	if frac := float64(c.deltas[8]) / float64(c.total); frac < 0.3 {
		t.Errorf("mdg 8-byte-step fraction = %.2f, want > 0.3", frac)
	}
}

func TestQcdLatticeStrides(t *testing.T) {
	c := traceOf(t, "qcd", SizeSmall)
	// Hopping terms touch neighbour records at the four dimensional
	// strides of a 12^4 lattice with 576-byte records.
	const l = 12
	found := 0
	for _, dim := range []int64{576 * l, 576 * l * l} {
		for d := range c.deltas {
			if d > dim/2 && d < dim*2 {
				found++
				break
			}
		}
	}
	if found == 0 {
		t.Error("qcd shows no dimensional-stride deltas")
	}
}

func TestTrfdLongRowSweeps(t *testing.T) {
	c := traceOf(t, "trfd", SizeSmall)
	// The row pass steps 16 bytes through the integral matrix between
	// resident-tile touches; as a consecutive-delta signature the
	// dominant recurring pattern is small deltas, with an 8 KB column
	// stride also present.
	var colStride uint64
	for d, n := range c.deltas {
		if d >= 7000 && d <= 9000 {
			colStride += n
		}
	}
	if colStride == 0 {
		t.Error("trfd column-pass stride missing")
	}
}

func TestSpec77ReadDominated(t *testing.T) {
	// Transforms read far more than they write (the FFT lines are the
	// only read-modify-write phase).
	w, err := New("spec77", SizeSmall)
	if err != nil {
		t.Fatal(err)
	}
	var reads, writes uint64
	sink := sinkFunc(func(a mem.Access) {
		switch a.Kind {
		case mem.Read:
			reads++
		case mem.Write:
			writes++
		}
	})
	if err := w.Run(sink, 0.05); err != nil {
		t.Fatal(err)
	}
	if reads < 5*writes {
		t.Errorf("spec77 reads/writes = %d/%d, want read-dominated", reads, writes)
	}
}

func TestDyfesmSmallFootprint(t *testing.T) {
	w, err := New("dyfesm", SizeSmall)
	if err != nil {
		t.Fatal(err)
	}
	if w.DataBytes > 256<<10 {
		t.Errorf("dyfesm data set %d B, want ~100 KB (Table 1: 0.1 MB)", w.DataBytes)
	}
}

func TestAllAddressesInDataOrCodeSegment(t *testing.T) {
	for _, name := range Names() {
		w, err := New(name, SizeSmall)
		if err != nil {
			t.Fatal(err)
		}
		bad := 0
		sink := sinkFunc(func(a mem.Access) {
			if a.Kind == mem.IFetch {
				if a.Addr < codeSegBase || a.Addr >= heapBase {
					bad++
				}
				return
			}
			if a.Addr < heapBase {
				bad++
			}
		})
		if err := w.Run(sink, 0.02); err != nil {
			t.Fatal(err)
		}
		if bad > 0 {
			t.Errorf("%s emitted %d out-of-segment addresses", name, bad)
		}
	}
}
