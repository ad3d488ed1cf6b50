package cost

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDefaultPricesValid(t *testing.T) {
	if err := DefaultPrices().validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCostRejectsBadInput(t *testing.T) {
	p := DefaultPrices()
	if _, err := p.Cost(Node{BandwidthMBps: 0}); err == nil {
		t.Error("zero bandwidth should be rejected")
	}
	bad := p
	bad.SRAMPerKB = 0
	if _, err := bad.Cost(Node{BandwidthMBps: 100}); err == nil {
		t.Error("non-positive prices should be rejected")
	}
}

func TestL2DominatesNodeCost(t *testing.T) {
	p := DefaultPrices()
	l2Node := Node{L2KB: 1 << 10, BandwidthMBps: 300} // 1 MB L2
	streamNode := Node{Streams: 10, Filtered: true, BandwidthMBps: 300}
	cl2, err := p.Cost(l2Node)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := p.Cost(streamNode)
	if err != nil {
		t.Fatal(err)
	}
	if cs >= cl2 {
		t.Fatalf("stream node ($%.0f) should be far cheaper than the L2 node ($%.0f)", cs, cl2)
	}
	// The paper's point: the gap is the price of a megabyte of SRAM.
	if cl2-cs < 0.8*float64(l2Node.L2KB)*p.SRAMPerKB {
		t.Errorf("cost gap $%.0f too small vs SRAM line item $%.0f",
			cl2-cs, float64(l2Node.L2KB)*p.SRAMPerKB)
	}
}

func TestEqualCostBandwidth(t *testing.T) {
	p := DefaultPrices()
	ref := Node{L2KB: 1 << 10, BandwidthMBps: 300}
	sn, err := p.EqualCostBandwidth(ref, Node{Streams: 10, Filtered: true})
	if err != nil {
		t.Fatal(err)
	}
	if sn.BandwidthMBps <= ref.BandwidthMBps {
		t.Fatalf("stream node bought only %.0f MB/s, reference has 300", sn.BandwidthMBps)
	}
	// Both nodes must now cost the same (within float slack).
	c1, _ := p.Cost(ref)
	c2, _ := p.Cost(sn)
	if math.Abs(c1-c2) > 1 {
		t.Errorf("equal-cost violated: $%.2f vs $%.2f", c1, c2)
	}
}

func TestEqualCostImpossible(t *testing.T) {
	p := DefaultPrices()
	// Reference cheaper than the stream node's fixed parts.
	ref := Node{BandwidthMBps: 1}
	if _, err := p.EqualCostBandwidth(ref, Node{Streams: 1000000}); err == nil {
		t.Error("unaffordable stream node should be rejected")
	}
}

func TestBusBlockCycles(t *testing.T) {
	// 600 MB/s at 100 MHz moving 64-byte blocks: 64B / 600MBps =
	// 106.7ns = 10.67 cycles -> 11.
	n := Node{BandwidthMBps: 600}
	c, err := BusBlockCycles(n, 100, 64)
	if err != nil {
		t.Fatal(err)
	}
	if c != 11 {
		t.Errorf("BusBlockCycles = %d, want 11", c)
	}
	if _, err := BusBlockCycles(Node{}, 100, 64); err == nil {
		t.Error("zero bandwidth should be rejected")
	}
	if _, err := BusBlockCycles(n, 0, 64); err == nil {
		t.Error("zero clock should be rejected")
	}
}

func TestBusBlockCyclesFloor(t *testing.T) {
	// Absurdly high bandwidth still occupies at least one cycle.
	c, err := BusBlockCycles(Node{BandwidthMBps: 1e9}, 100, 64)
	if err != nil {
		t.Fatal(err)
	}
	if c != 1 {
		t.Errorf("BusBlockCycles floor = %d, want 1", c)
	}
}

// dominates reports whether p is at least as good as q on both axes
// and strictly better on at least one: the test's oracle for Front.
func dominates(p, q Point) bool {
	return p.Metric >= q.Metric && p.Cost <= q.Cost &&
		(p.Metric > q.Metric || p.Cost < q.Cost)
}

// TestFrontParetoDominance is the Pareto-dominance property over a
// small config grid: price every (streams, filtered, L2KB) node at a
// fixed bandwidth, attach a synthetic concave hit-rate metric, and
// check the front invariants — no returned point is dominated, every
// excluded point is dominated by (or exactly duplicates, at a higher
// index) a returned one, the front is sorted by ascending cost, and
// two calls return identical slices.
func TestFrontParetoDominance(t *testing.T) {
	p := DefaultPrices()
	var pts []Point
	for _, streams := range []int{0, 2, 4, 8, 16} {
		for _, filtered := range []bool{false, true} {
			for _, l2 := range []uint{0, 256, 1024} {
				n := Node{L2KB: l2, Streams: streams, Filtered: filtered, BandwidthMBps: 300}
				c, err := p.Cost(n)
				if err != nil {
					t.Fatal(err)
				}
				// Synthetic but plausible metric: hit rate grows
				// concavely with streams and L2 capacity, filters add a
				// point — enough structure that the front is neither
				// everything nor one point.
				metric := 40*(1-1/float64(streams+1)) + 30*(1-1/(float64(l2)/256+1))
				if filtered {
					metric++
				}
				pts = append(pts, Point{Metric: metric, Cost: c})
			}
		}
	}

	front := Front(pts)
	if len(front) == 0 || len(front) == len(pts) {
		t.Fatalf("degenerate front of %d points over %d configs", len(front), len(pts))
	}
	onFront := make(map[int]bool, len(front))
	for k, i := range front {
		onFront[i] = true
		if k > 0 && pts[front[k-1]].Cost > pts[i].Cost {
			t.Errorf("front not sorted by cost: %v before %v", pts[front[k-1]], pts[i])
		}
	}
	for _, i := range front {
		for j := range pts {
			if j != i && dominates(pts[j], pts[i]) {
				t.Errorf("front point %d %v is dominated by %d %v", i, pts[i], j, pts[j])
			}
		}
	}
	for j := range pts {
		if onFront[j] {
			continue
		}
		justified := false
		for _, i := range front {
			if dominates(pts[i], pts[j]) || (pts[i] == pts[j] && i < j) {
				justified = true
				break
			}
		}
		if !justified {
			t.Errorf("excluded point %d %v is neither dominated nor a duplicate of a front point", j, pts[j])
		}
	}

	again := Front(pts)
	if len(again) != len(front) {
		t.Fatalf("second call returned %d points, first %d", len(again), len(front))
	}
	for k := range front {
		if front[k] != again[k] {
			t.Fatalf("front not deterministic: %v vs %v", front, again)
		}
	}
}

// TestFrontTies pins deterministic tie handling explicitly: exact
// (metric, cost) duplicates keep the lowest index only.
func TestFrontTies(t *testing.T) {
	pts := []Point{
		{Metric: 10, Cost: 5},
		{Metric: 10, Cost: 5}, // duplicate of 0 — dropped
		{Metric: 12, Cost: 5}, // same cost, better metric — replaces the tier
		{Metric: 12, Cost: 9}, // dominated: same metric, higher cost
		{Metric: 20, Cost: 9},
	}
	got := Front(pts)
	want := []int{2, 4}
	if len(got) != len(want) {
		t.Fatalf("Front = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Front = %v, want %v", got, want)
		}
	}
	if Front(nil) != nil {
		t.Error("Front(nil) should be nil")
	}
}

// Property: more bandwidth never makes a block transfer slower, and
// cost is monotone in every component.
func TestMonotonicity(t *testing.T) {
	p := DefaultPrices()
	f := func(l2Raw uint16, streamsRaw uint8, bwRaw uint16) bool {
		l2 := uint(l2Raw)
		streams := int(streamsRaw)
		bw := float64(bwRaw) + 1
		base, err := p.Cost(Node{L2KB: l2, Streams: streams, BandwidthMBps: bw})
		if err != nil {
			return false
		}
		bigger, err := p.Cost(Node{L2KB: l2 + 64, Streams: streams + 1, Filtered: true, BandwidthMBps: bw + 100})
		if err != nil {
			return false
		}
		if bigger <= base {
			return false
		}
		c1, err := BusBlockCycles(Node{BandwidthMBps: bw}, 100, 64)
		if err != nil {
			return false
		}
		c2, err := BusBlockCycles(Node{BandwidthMBps: bw * 2}, 100, 64)
		if err != nil {
			return false
		}
		return c2 <= c1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
