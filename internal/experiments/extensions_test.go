package experiments

import (
	"context"
	"strconv"
	"testing"

	"streamsim/internal/mem"
	"streamsim/internal/prefetch"
)

// cellFloat parses a numeric table cell.
func cellFloat(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatalf("bad numeric cell %q: %v", cell, err)
	}
	return v
}

// firstUses counts the first uses a Prefetcher is told of.
type firstUses struct {
	prefetch.Prefetcher
	n int
}

func (f *firstUses) FirstUse(a mem.Access, blk mem.Addr, buf []mem.Addr) []mem.Addr {
	f.n++
	return f.Prefetcher.FirstUse(a, blk, buf)
}

// TestOnChipWalkersDoNotAllocate: a warmed walker's access allocates
// nothing under either prefetcher. Each step reads the next block of a
// sequential stream under one load PC, which under OBL is the first use
// of the block its predecessor prefetched and under the RPT a steady
// stride that predicts, and a scattered block that misses; the blocks
// a prefetcher asks for land in the walker's own buffer.
func TestOnChipWalkersDoNotAllocate(t *testing.T) {
	obl, err := prefetch.NewOBL(1)
	if err != nil {
		t.Fatal(err)
	}
	rpt, err := prefetch.NewRPT(mem.DefaultGeometry(), 512, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []prefetch.Prefetcher{obl, rpt} {
		o, err := newOnChipL1(p)
		if err != nil {
			t.Fatal(err)
		}
		i := 0
		step := func() {
			o.access(mem.Access{Addr: mem.Addr(1<<24 + 64*i), Kind: mem.Read, PC: 0x1000})
			scattered := mem.Addr(uint32(i)*2654435761>>12) << 6
			o.access(mem.Access{Addr: 1<<30 + scattered, Kind: mem.Read, PC: 0x2000})
			i++
		}
		for k := 0; k < 4096; k++ {
			step()
		}
		misses := o.misses
		if avg := testing.AllocsPerRun(1000, step); avg != 0 {
			t.Errorf("%s walker allocates %v times per step; want 0", p.Name(), avg)
		}
		if o.misses == misses {
			t.Errorf("%s walker missed nothing while measured", p.Name())
		}
	}
	if rpt.Stats().Predictions == 0 {
		t.Error("the RPT predicted nothing; the test would not exercise its prefetches")
	}
}

// TestOnChipL1KeepsCachesApart: the tag of a prefetched block lives
// with its line, so an instruction fetch that hits block b in the L1I
// is not the first use of b prefetched into the L1D, and that prefetch
// stays untouched (wasted at the end) until a data reference hits it.
func TestOnChipL1KeepsCachesApart(t *testing.T) {
	obl, err := prefetch.NewOBL(1)
	if err != nil {
		t.Fatal(err)
	}
	p := &firstUses{Prefetcher: obl}
	o, err := newOnChipL1(p)
	if err != nil {
		t.Fatal(err)
	}
	const b = 1000 // a block number; b-1, b and b+1 fall in distinct sets
	at := func(blk mem.Addr) mem.Addr { return o.geom.BlockToByte(blk) }
	o.access(mem.Access{Addr: at(b), Kind: mem.IFetch})   // L1I miss: fills b, prefetches b+1 into the L1I
	o.access(mem.Access{Addr: at(b - 1), Kind: mem.Read}) // L1D miss: fills b-1, prefetches b into the L1D
	o.access(mem.Access{Addr: at(b), Kind: mem.IFetch})   // L1I hit on the demand-filled b
	if p.n != 0 {
		t.Errorf("an L1I hit was the first use of an L1D prefetch (%d first uses, want 0)", p.n)
	}
	// With 100 baseline misses, Extra counts wasted blocks: both
	// prefetches are untouched.
	if r := o.result(100); r.Extra != 2 {
		t.Errorf("extra traffic %.0f blocks after the L1I hit, want 2", r.Extra)
	}
	o.access(mem.Access{Addr: at(b), Kind: mem.Read}) // L1D hit on the prefetched b: its first use, prefetching b+1
	if p.n != 1 {
		t.Errorf("%d first uses after the L1D hit, want 1", p.n)
	}
	if r := o.result(100); r.Extra != 2 || o.misses != 2 {
		t.Errorf("extra traffic %.0f blocks and %d misses, want 2 (b+1 in each L1) and 2", r.Extra, o.misses)
	}
}

func TestCPIExperimentShape(t *testing.T) {
	tbl, err := CPI(context.Background(), quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 15 || len(tbl.Columns) != 6 {
		t.Fatalf("extcpi shape %dx%d, want 15x6", len(tbl.Rows), len(tbl.Columns))
	}
	for _, row := range tbl.Rows {
		bare := cellFloat(t, row[1])
		full := cellFloat(t, row[3])
		if bare < 1 || full < 1 {
			t.Errorf("%s: CPI below 1 (bare %.2f, full %.2f)", row[0], bare, full)
		}
		// Streams should never make things dramatically worse.
		if full > bare*1.2 {
			t.Errorf("%s: filtered streams slowed execution %.2f -> %.2f", row[0], bare, full)
		}
	}
}

func TestBaselinesExperimentShape(t *testing.T) {
	tbl, err := Baselines(context.Background(), quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 15 || len(tbl.Columns) != 7 {
		t.Fatalf("extbase shape %dx%d, want 15x7", len(tbl.Rows), len(tbl.Columns))
	}
	byName := map[string][]string{}
	for _, row := range tbl.Rows {
		byName[row[0]] = row
	}
	// embar: every scheme trivially covers a single sequential stream.
	for col := 1; col <= 5; col += 2 {
		if v := cellFloat(t, byName["embar"][col]); v < 90 {
			t.Errorf("embar column %d coverage = %.1f, want > 90", col, v)
		}
	}
	// OBL wastes heavily on the strided codes; the RPT does not.
	if obl := cellFloat(t, byName["fftpde"][4]); obl < 20 {
		t.Errorf("fftpde OBL extra traffic = %.1f, want large (sequential lookahead on strides)", obl)
	}
	if rpt := cellFloat(t, byName["fftpde"][6]); rpt > 15 {
		t.Errorf("fftpde RPT extra traffic = %.1f, want small", rpt)
	}
}

func TestEqualCostExperimentShape(t *testing.T) {
	tbl, err := EqualCost(context.Background(), quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 15 || len(tbl.Columns) != 4 {
		t.Fatalf("extcost shape %dx%d, want 15x4", len(tbl.Rows), len(tbl.Columns))
	}
	wins := 0
	for _, row := range tbl.Rows {
		if cellFloat(t, row[3]) > 1.0 {
			wins++
		}
	}
	// The paper's conclusion holds "for regular scientific workloads":
	// the stream node must win for most benchmarks, not all.
	if wins < 8 {
		t.Errorf("stream node wins only %d/15 equal-cost comparisons", wins)
	}
	if wins == 15 {
		t.Error("stream node should NOT win everywhere (cache-friendly irregular codes exist)")
	}
}

func TestScalabilityExperimentShape(t *testing.T) {
	tbl, err := Scalability(context.Background(), quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 15 || len(tbl.Columns) != 6 {
		t.Fatalf("extscale shape %dx%d, want 15x6", len(tbl.Rows), len(tbl.Columns))
	}
	for _, row := range tbl.Rows {
		gain := cellFloat(t, row[5])
		if gain < 0.9 {
			t.Errorf("%s: filter reduced sustainable machine size (gain %.2f)", row[0], gain)
		}
	}
}

func TestChartForFigures(t *testing.T) {
	tbl, err := Figure9(context.Background(), quick)
	if err != nil {
		t.Fatal(err)
	}
	chart, ok := ChartFor("fig9", tbl)
	if !ok {
		t.Fatal("fig9 should be chartable")
	}
	if len(chart.Series) != 3 {
		t.Errorf("fig9 chart has %d series, want 3", len(chart.Series))
	}
	for _, s := range chart.Series {
		if len(s.Values) != len(figure9CzoneBits) {
			t.Errorf("series %s has %d points, want %d", s.Name, len(s.Values), len(figure9CzoneBits))
		}
	}
	if chart.YMax != 100 {
		t.Error("hit-rate chart should be scaled 0-100")
	}
}

func TestChartForFig3FiltersRows(t *testing.T) {
	tbl, err := Figure3(context.Background(), quick)
	if err != nil {
		t.Fatal(err)
	}
	chart, ok := ChartFor("fig3", tbl)
	if !ok {
		t.Fatal("fig3 should be chartable")
	}
	if len(chart.Series) >= 15 {
		t.Errorf("fig3 chart should subset the 15 curves, has %d", len(chart.Series))
	}
}

func TestChartForTablesNotChartable(t *testing.T) {
	tbl, err := Table2(context.Background(), quick)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ChartFor("table2", tbl); ok {
		t.Error("tables must not be chartable")
	}
}
