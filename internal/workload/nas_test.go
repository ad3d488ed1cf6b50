package workload

// Structural tests for the NAS benchmark models: data-set sizes from
// Table 1, access-kind mixes, and the specific address patterns each
// model exists to produce (strides for fftpde/appsp, short block runs
// for appbt, indirection for cgm).

import (
	"testing"

	"streamsim/internal/mem"
)

// strideCounter classifies data-reference deltas to verify a model
// emits the stride mix its benchmark is known for.
type strideCounter struct {
	last      mem.Addr
	have      bool
	unitish   uint64 // |delta| <= one block
	strided   uint64 // constant larger jumps, tallied per distinct delta
	deltas    map[int64]uint64
	total     uint64
	instTotal uint64
}

func newStrideCounter() *strideCounter {
	return &strideCounter{deltas: map[int64]uint64{}}
}

func (s *strideCounter) AccessBatch(accs []mem.Access) {
	for _, a := range accs {
		if a.Kind == mem.IFetch {
			continue
		}
		s.total++
		if s.have {
			d := int64(a.Addr) - int64(s.last)
			s.deltas[d]++
			if d >= -64 && d <= 64 {
				s.unitish++
			}
		}
		s.last, s.have = a.Addr, true
	}
}

func (s *strideCounter) AddInstructions(n uint64) { s.instTotal += n }

// run traces a benchmark into the counter at a small scale.
func traceOf(t *testing.T, name string, size Size) *strideCounter {
	t.Helper()
	w, err := New(name, size)
	if err != nil {
		t.Fatal(err)
	}
	c := newStrideCounter()
	if err := w.Run(c, 0.05); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestTable1DataSetSizes(t *testing.T) {
	// Table 1's MB column, with a generous 2x band (the models size
	// their arrays from the paper's input descriptions).
	want := map[string]float64{
		"embar": 1.0, "mgrid": 1.0, "cgm": 2.9, "fftpde": 14.7, "is": 0.8,
		"spec77": 1.3, "adm": 0.6, "bdna": 2.1, "dyfesm": 0.1, "mdg": 0.2,
		"qcd": 9.2, "trfd": 8.0,
	}
	for name, mb := range want {
		w, err := New(name, SizeSmall)
		if err != nil {
			t.Fatal(err)
		}
		got := float64(w.DataBytes) / (1 << 20)
		if got < mb/2 || got > mb*2 {
			t.Errorf("%s data set %.2f MB, want within 2x of %.1f MB", name, got, mb)
		}
	}
}

func TestEmbarIsStoreDominatedStream(t *testing.T) {
	c := traceOf(t, "embar", SizeSmall)
	// One streaming store per ~37 references; everything else hits a
	// tiny scratch: unit-ish deltas dominate completely.
	if frac := float64(c.unitish) / float64(c.total); frac < 0.9 {
		t.Errorf("embar unit-ish fraction = %.2f, want > 0.9", frac)
	}
}

func TestFftpdeHasLargePowerOfTwoStrides(t *testing.T) {
	c := traceOf(t, "fftpde", SizeSmall)
	// The z-pass walks 64 KB strides; the y-pass 1 KB. Interleaved
	// loads/stores mean the raw consecutive-delta stream sees the
	// stride between the store at column element i and the load at
	// element i+1.
	var big uint64
	for d, n := range c.deltas {
		if d >= 1<<10 || d <= -(1<<10) {
			big += n
		}
	}
	if frac := float64(big) / float64(c.total); frac < 0.10 {
		t.Errorf("fftpde large-stride fraction = %.3f, want > 0.10", frac)
	}
}

func TestAppspStridedShare(t *testing.T) {
	c := traceOf(t, "appsp", SizeLarge)
	// The y/z sweeps walk 5n- and 5n^2-double strides (n=24).
	yStride := int64(5 * 24 * 8)
	var strided uint64
	for d, n := range c.deltas {
		if d >= yStride/2 || d <= -yStride/2 {
			strided += n
		}
	}
	if frac := float64(strided) / float64(c.total); frac < 0.05 {
		t.Errorf("appsp strided fraction = %.3f, want > 0.05", frac)
	}
}

func TestCgmEmitsIndirection(t *testing.T) {
	c := traceOf(t, "cgm", SizeSmall)
	// Sparse gathers produce many distinct deltas; a pure streaming
	// code would have a handful.
	if len(c.deltas) < 100 {
		t.Errorf("cgm distinct deltas = %d, want many (indirection)", len(c.deltas))
	}
}

func TestISWriteShare(t *testing.T) {
	w, err := New("is", SizeSmall)
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
	if writes == 0 || writes > reads {
		t.Errorf("is reads/writes = %d/%d: sorting writes expected but reads dominate", reads, writes)
	}
}

// sinkFunc adapts a per-reference function to mem.Sink.
type sinkFunc func(mem.Access)

func (f sinkFunc) AccessBatch(accs []mem.Access) {
	for _, a := range accs {
		f(a)
	}
}

func (f sinkFunc) AddInstructions(n uint64) {}

func TestAppbtShortRuns(t *testing.T) {
	c := traceOf(t, "appbt", SizeLarge)
	// 8-byte steps within 200-byte Jacobian blocks dominate.
	if frac := float64(c.deltas[8]) / float64(c.total); frac < 0.4 {
		t.Errorf("appbt 8-byte-step fraction = %.2f, want > 0.4 (dense 5x5 blocks)", frac)
	}
}

func TestGrownInputsGrowData(t *testing.T) {
	for _, name := range GrowableNames() {
		small, err := New(name, SizeSmall)
		if err != nil {
			t.Fatal(err)
		}
		large, err := New(name, SizeLarge)
		if err != nil {
			t.Fatal(err)
		}
		if large.DataBytes <= small.DataBytes {
			t.Errorf("%s: large input %d B <= small %d B", name, large.DataBytes, small.DataBytes)
		}
	}
}

func TestInstructionsPerReferencePlausible(t *testing.T) {
	// Scientific codes retire a handful of instructions per memory
	// reference; a model outside [1, 50] is a calibration bug.
	for _, name := range Names() {
		c := traceOf(t, name, SizeSmall)
		ipr := float64(c.instTotal) / float64(c.total)
		if ipr < 1 || ipr > 50 {
			t.Errorf("%s: %.1f instructions per reference, want 1-50", name, ipr)
		}
	}
}
