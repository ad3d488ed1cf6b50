package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"streamsim/internal/cache"
	"streamsim/internal/sweeprun"
	"streamsim/internal/tab"
	"streamsim/internal/workload"
)

// quick runs experiments at a small scale to keep the suite fast.
var quick = Options{Scale: 0.1}

func TestLookup(t *testing.T) {
	for _, e := range All() {
		got, err := Lookup(e.ID)
		if err != nil {
			t.Errorf("Lookup(%q): %v", e.ID, err)
		}
		if got.Paper != e.Paper {
			t.Errorf("Lookup(%q) returned %q", e.ID, got.Paper)
		}
	}
	if _, err := Lookup("table99"); err == nil {
		t.Error("unknown id should be rejected")
	}
}

func TestAllInPaperOrder(t *testing.T) {
	want := []string{"table1", "fig3", "table2", "fig5", "table3", "fig8", "fig9", "table4", "extcpi", "extbase", "extcost", "extscale", "extbank"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("All() has %d experiments, want %d", len(all), len(want))
	}
	for i, e := range all {
		if e.ID != want[i] {
			t.Errorf("All()[%d] = %q, want %q", i, e.ID, want[i])
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Scale != 1.0 {
		t.Errorf("default scale = %v, want 1.0", o.Scale)
	}
	o = Options{Scale: 0.5}.withDefaults()
	if o.Scale != 0.5 {
		t.Error("explicit scale overwritten")
	}
}

func TestTable1Shape(t *testing.T) {
	tbl, err := Table1(context.Background(), quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 15 {
		t.Errorf("Table 1 has %d rows, want 15", len(tbl.Rows))
	}
	if len(tbl.Columns) != 8 {
		t.Errorf("Table 1 has %d columns, want 8", len(tbl.Columns))
	}
	if tbl.Rows[0][0] != "embar" || tbl.Rows[14][0] != "trfd" {
		t.Error("rows not in the paper's Table 1 order")
	}
	out := tbl.Render()
	if !strings.Contains(out, "benchmark") || !strings.Contains(out, "mgrid") {
		t.Error("render incomplete")
	}
}

func TestFigure3Shape(t *testing.T) {
	tbl, err := Figure3(context.Background(), quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 15 {
		t.Errorf("Figure 3 has %d rows, want 15", len(tbl.Rows))
	}
	// benchmark + one column per stream count.
	if len(tbl.Columns) != 1+len(figure3StreamCounts) {
		t.Errorf("Figure 3 has %d columns, want %d", len(tbl.Columns), 1+len(figure3StreamCounts))
	}
}

func TestTable2Shape(t *testing.T) {
	tbl, err := Table2(context.Background(), quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 15 || len(tbl.Columns) != 4 {
		t.Errorf("Table 2 shape %dx%d, want 15x4", len(tbl.Rows), len(tbl.Columns))
	}
}

func TestFigure5Shape(t *testing.T) {
	tbl, err := Figure5(context.Background(), quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 15 || len(tbl.Columns) != 7 {
		t.Errorf("Figure 5 shape %dx%d, want 15x7", len(tbl.Rows), len(tbl.Columns))
	}
}

func TestTable3SharesSumTo100(t *testing.T) {
	tbl, err := Table3(context.Background(), quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		var sum float64
		for _, cell := range row[1:6] {
			var v float64
			if _, err := fmt.Sscan(cell, &v); err != nil {
				t.Fatalf("%s: bad cell %q", row[0], cell)
			}
			sum += v
		}
		if sum < 99 || sum > 101 {
			t.Errorf("%s: length shares sum to %.1f, want ~100", row[0], sum)
		}
	}
}

func TestFigure8Shape(t *testing.T) {
	tbl, err := Figure8(context.Background(), quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 15 || len(tbl.Columns) != 5 {
		t.Errorf("Figure 8 shape %dx%d, want 15x5", len(tbl.Rows), len(tbl.Columns))
	}
}

func TestFigure9Shape(t *testing.T) {
	tbl, err := Figure9(context.Background(), quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Errorf("Figure 9 has %d rows, want 3 (appsp, fftpde, trfd)", len(tbl.Rows))
	}
	if len(tbl.Columns) != 1+len(figure9CzoneBits) {
		t.Errorf("Figure 9 has %d columns, want %d", len(tbl.Columns), 1+len(figure9CzoneBits))
	}
}

func TestTable4Shape(t *testing.T) {
	tbl, err := Table4(context.Background(), quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 10 { // 5 benchmarks x 2 sizes
		t.Errorf("Table 4 has %d rows, want 10", len(tbl.Rows))
	}
}

// TestTraceCacheReuse: experiments and sweeprun.Record hand out the
// same recording for one key, and different scales never share one.
func TestTraceCacheReuse(t *testing.T) {
	ResetTraceCache()
	a, err := record(context.Background(), "embar", workload.SizeSmall, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	_, b, err := sweeprun.Record(context.Background(), "embar", "small", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("experiments and sweeprun.Record should share one recording per key")
	}
	c, err := record(context.Background(), "embar", workload.SizeSmall, 0.04)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Error("different scale must not share a cache entry")
	}
}

func TestMissStreamDeterministic(t *testing.T) {
	a, err := missStream(context.Background(), "is", workload.SizeSmall, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.events) == 0 {
		t.Fatal("empty miss stream")
	}
	b, err := missStream(context.Background(), "is", workload.SizeSmall, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.events) != len(b.events) {
		t.Fatalf("derivations have %d and %d events", len(a.events), len(b.events))
	}
	for i := range a.events {
		if a.events[i] != b.events[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a.events[i], b.events[i])
		}
	}
}

// TestOnChipBaselineMatchesMissStream: extbase scores its prefetchers
// against the no-prefetch misses it reads from its stream row's replay
// (stridedStreams(16): the paper's L1s, seeds included); for every
// Table 1 input that replay's L1 fills must equal the fills of the L1
// miss stream Table 4 derives from the same recording.
func TestOnChipBaselineMatchesMissStream(t *testing.T) {
	ctx := context.Background()
	opt := Options{Scale: 0.05}
	for _, name := range workload.Names() {
		size := table1Size(name)
		ms, err := missStream(ctx, name, size, opt.Scale)
		if err != nil {
			t.Fatal(err)
		}
		var fills uint64
		for _, ev := range ms.events {
			if !ev.write {
				fills++
			}
		}
		res, err := runConfig(ctx, name, size, opt, stridedStreams(16))
		if err != nil {
			t.Fatal(err)
		}
		if base := res.L1I.Fills + res.L1D.Fills; base != fills || fills == 0 {
			t.Errorf("%s: stream replay filled %d blocks, miss stream has %d fills", name, base, fills)
		}
	}
}

func TestL2HitRateMonotonicInSize(t *testing.T) {
	ms, err := missStream(context.Background(), "cgm", workload.SizeSmall, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for _, size := range []uint{64 << 10, 512 << 10, 4 << 20} {
		hrs, err := ms.l2LocalHitRates(context.Background(), []cache.Config{{
			Name: "L2", SizeBytes: size, Assoc: 4, BlockBytes: 64,
			Replacement: cache.LRU, Write: cache.WriteBack, Alloc: cache.WriteAllocate,
		}})
		if err != nil {
			t.Fatal(err)
		}
		hr := hrs[0]
		if hr < prev-2 { // small tolerance: LRU anomalies exist
			t.Errorf("L2 hit rate fell with size: %.1f after %.1f", hr, prev)
		}
		prev = hr
	}
}

func TestMinL2ReportsUnreachable(t *testing.T) {
	// A target of 101% can never be met.
	name, _, err := minL2ForHitRate(context.Background(), "is", workload.SizeSmall, 0.05, 101)
	if err != nil {
		t.Fatal(err)
	}
	if name != "> 4 MB" {
		t.Errorf("unreachable target reported %q, want \"> 4 MB\"", name)
	}
}

func TestL2SizeName(t *testing.T) {
	cases := map[uint]string{
		64 << 10: "64 KB",
		1 << 20:  "1 MB",
		4 << 20:  "4 MB",
	}
	for in, want := range cases {
		if got := l2SizeName(in); got != want {
			t.Errorf("l2SizeName(%d) = %q, want %q", in, got, want)
		}
	}
}

// withWorkers runs the test at n workers, so the fan-out tests below
// exercise concurrency even on a one-core host.
func withWorkers(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestAddRowsInIndexOrder: every index runs once and rows land in
// index order even though row 0 finishes last.
func TestAddRowsInIndexOrder(t *testing.T) {
	withWorkers(t, 4)
	const n = 37
	var ran [n]atomic.Int32
	var others sync.WaitGroup
	others.Add(n - 1)
	tb := &tab.Table{Rows: [][]string{{"header"}}}
	err := addRows(context.Background(), tb, make([]uint64, n), func(i int) ([]string, error) {
		ran[i].Add(1)
		if i == 0 {
			others.Wait()
		} else {
			others.Done()
		}
		return []string{fmt.Sprint(i)}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ran {
		if c := ran[i].Load(); c != 1 {
			t.Errorf("index %d ran %d times, want 1", i, c)
		}
	}
	if len(tb.Rows) != n+1 || tb.Rows[0][0] != "header" {
		t.Fatalf("rows = %v, want the existing row then %d new ones", tb.Rows, n)
	}
	for i, row := range tb.Rows[1:] {
		if row[0] != fmt.Sprint(i) {
			t.Fatalf("row %d = %v, want %d", i, row, i)
		}
	}
}

// TestAddRowsLowestIndexError: when several rows fail, the error of
// the lowest index wins, even when a higher index failed first, and
// the table is left as it was.
func TestAddRowsLowestIndexError(t *testing.T) {
	withWorkers(t, 4)
	low, high := errors.New("row 3"), errors.New("row 7")
	highDone := make(chan struct{})
	tb := &tab.Table{}
	err := addRows(context.Background(), tb, make([]uint64, 10), func(i int) ([]string, error) {
		switch i {
		case 3:
			<-highDone
			return nil, low
		case 7:
			close(highDone)
			return nil, high
		}
		return []string{"ok"}, nil
	})
	if !errors.Is(err, low) {
		t.Errorf("err = %v, want %v", err, low)
	}
	if len(tb.Rows) != 0 {
		t.Errorf("failed fan-out appended %d rows", len(tb.Rows))
	}
}

// TestAddRowsStopsDispatchOnCancel: once ctx is cancelled no worker
// takes another row. Row 0 cancels; every other row blocks until the
// cancellation, so each worker starts at most one row.
func TestAddRowsStopsDispatchOnCancel(t *testing.T) {
	withWorkers(t, 4)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var started atomic.Int32
	err := addRows(ctx, &tab.Table{}, make([]uint64, 1000), func(i int) ([]string, error) {
		started.Add(1)
		if i == 0 {
			cancel()
			return []string{"0"}, nil
		}
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if s := started.Load(); s > 4 {
		t.Errorf("%d rows started, want at most one per worker (4)", s)
	}

	started.Store(0)
	err = addRows(ctx, &tab.Table{}, make([]uint64, 10), func(int) ([]string, error) {
		started.Add(1)
		return nil, nil
	})
	if !errors.Is(err, context.Canceled) || started.Load() != 0 {
		t.Errorf("pre-cancelled fan-out: err %v, %d rows started; want context.Canceled and none", err, started.Load())
	}
}

// TestAddRowsLongestFirst: on one worker, rows start in descending
// weight and equal weights in index order; rows still land in index
// order; and when a heavy high-index row fails first, a lower-index
// failure still wins.
func TestAddRowsLongestFirst(t *testing.T) {
	withWorkers(t, 1)
	weights := []uint64{5, 9, 0, 9, 7, 5, 12}
	var started []int
	tb := &tab.Table{}
	err := addRows(context.Background(), tb, weights, func(i int) ([]string, error) {
		started = append(started, i)
		return []string{fmt.Sprint(i)}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{6, 1, 3, 4, 0, 5, 2}; fmt.Sprint(started) != fmt.Sprint(want) {
		t.Errorf("rows started in order %v, want %v", started, want)
	}
	if len(tb.Rows) != len(weights) {
		t.Fatalf("%d rows appended, want %d", len(tb.Rows), len(weights))
	}
	for i, row := range tb.Rows {
		if row[0] != fmt.Sprint(i) {
			t.Errorf("row %d = %v, want %d", i, row, i)
		}
	}

	low, heavy := errors.New("row 2"), errors.New("row 6")
	started = started[:0]
	tb = &tab.Table{}
	err = addRows(context.Background(), tb, weights, func(i int) ([]string, error) {
		started = append(started, i)
		switch i {
		case 2:
			return nil, low
		case 6:
			return nil, heavy
		}
		return []string{"ok"}, nil
	})
	if started[0] != 6 {
		t.Errorf("row %d started first, want the heaviest (6)", started[0])
	}
	if !errors.Is(err, low) {
		t.Errorf("err = %v, want %v", err, low)
	}
	if len(tb.Rows) != 0 {
		t.Errorf("failed fan-out appended %d rows", len(tb.Rows))
	}
}

func TestAddRowsZero(t *testing.T) {
	tb := &tab.Table{}
	if err := addRows(context.Background(), tb, nil, func(int) ([]string, error) { return nil, errors.New("never") }); err != nil {
		t.Errorf("zero rows should succeed, got %v", err)
	}
	if len(tb.Rows) != 0 {
		t.Errorf("zero rows appended %d", len(tb.Rows))
	}
}
