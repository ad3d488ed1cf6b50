// Package cost models the paper's economic argument (its introduction
// and conclusions): a large secondary cache is mostly SRAM dollars,
// stream buffers are almost free, and "the cost savings of stream
// buffers over large caches can be applied to increase the main memory
// bandwidth, resulting in a system with better overall performance."
//
// The model prices a compute node from three memory-system line items —
// secondary-cache SRAM, stream-buffer logic, and main-memory bandwidth
// (interleaved banks / wider buses) — and answers the paper's question
// quantitatively: at equal node cost, which configuration runs faster?
// The per-processor arithmetic is what the paper multiplies by 1K
// processors when it argues about large-scale parallel machines.
package cost

import (
	"fmt"
	"math"
	"sort"
)

// Prices are circa-1994 list prices, normalized so only ratios matter.
type Prices struct {
	// SRAMPerKB prices secondary-cache SRAM (dollars per KB, including
	// tags and controller amortization).
	SRAMPerKB float64
	// PerStream prices one stream buffer: a comparator, an adder and a
	// couple of cache blocks of SRAM.
	PerStream float64
	// FilterLogic prices the filter hardware (history buffers + FSMs);
	// charged once when any filter is present.
	FilterLogic float64
	// PerMBps prices sustained main-memory bandwidth (more banks,
	// wider buses) per MB/s.
	PerMBps float64
	// Base is everything else on the node (CPU, DRAM capacity, board).
	Base float64
}

// DefaultPrices reflects early-90s ratios: fast L2-grade SRAM around
// $8/KB, so a 1 MB cache is a multi-thousand-dollar line item per
// processor (the paper: "gigabytes of SRAM are required ... an
// exorbitant cost" at 1K nodes); a stream buffer is a few latches and
// an adder; sustained memory bandwidth comes from interleaved banks
// and wider buses at roughly $8 per MB/s (a T3D-class 600 MB/s memory
// system as a few thousand dollars of the node).
func DefaultPrices() Prices {
	return Prices{
		SRAMPerKB:   8,
		PerStream:   15,
		FilterLogic: 40,
		PerMBps:     8,
		Base:        5000,
	}
}

// validate rejects non-positive prices.
func (p Prices) validate() error {
	if p.SRAMPerKB <= 0 || p.PerStream <= 0 || p.PerMBps <= 0 || p.Base < 0 || p.FilterLogic < 0 {
		return fmt.Errorf("cost: prices must be positive: %+v", p)
	}
	return nil
}

// Node describes one processor's memory system for pricing.
type Node struct {
	// L2KB is the secondary cache size in KB (0 = none).
	L2KB uint
	// Streams is the number of stream buffers (0 = none).
	Streams int
	// Filtered marks the presence of the allocation filters.
	Filtered bool
	// BandwidthMBps is the sustained main-memory bandwidth.
	BandwidthMBps float64
}

// Cost prices a node.
func (p Prices) Cost(n Node) (float64, error) {
	if err := p.validate(); err != nil {
		return 0, err
	}
	if n.BandwidthMBps <= 0 {
		return 0, fmt.Errorf("cost: node needs positive bandwidth, got %v", n.BandwidthMBps)
	}
	c := p.Base + float64(n.L2KB)*p.SRAMPerKB + float64(n.Streams)*p.PerStream +
		n.BandwidthMBps*p.PerMBps
	if n.Filtered {
		c += p.FilterLogic
	}
	return c, nil
}

// EqualCostBandwidth answers the paper's trade: given a reference node
// (typically one with a big L2), how much memory bandwidth can a
// stream-based node buy with the savings so both nodes cost the same?
// It returns the stream node with its bandwidth set accordingly.
func (p Prices) EqualCostBandwidth(reference, streamNode Node) (Node, error) {
	refCost, err := p.Cost(reference)
	if err != nil {
		return Node{}, err
	}
	// Price the stream node at (near-)zero bandwidth, then spend the
	// difference on bandwidth.
	probe := streamNode
	probe.BandwidthMBps = math.SmallestNonzeroFloat64
	baseCost, err := p.Cost(probe)
	if err != nil {
		return Node{}, err
	}
	budget := refCost - baseCost
	if budget <= 0 {
		return Node{}, fmt.Errorf("cost: stream node base cost %.0f already exceeds reference %.0f", baseCost, refCost)
	}
	streamNode.BandwidthMBps = budget / p.PerMBps
	return streamNode, nil
}

// Point is one (performance, price) outcome on the paper's
// cost-effectiveness plane: Metric is the figure of merit (higher is
// better — callers minimizing a metric negate it first) and Cost the
// node price.
type Point struct {
	// Metric is the performance axis, higher better.
	Metric float64
	// Cost is the price axis, lower better.
	Cost float64
}

// Front returns the indices of the Pareto-optimal points — those no
// other point dominates — sorted by ascending cost, then descending
// metric, then ascending index. The result is deterministic: exact
// (metric, cost) duplicates keep only the lowest-index point, so two
// calls over the same slice (and any evaluation order that produced
// it) return identical fronts.
func Front(pts []Point) []int {
	order := make([]int, len(pts))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		pa, pb := pts[order[a]], pts[order[b]]
		if pa.Cost != pb.Cost {
			return pa.Cost < pb.Cost
		}
		if pa.Metric != pb.Metric {
			return pa.Metric > pb.Metric
		}
		return order[a] < order[b]
	})
	var front []int
	best := math.Inf(-1) // best metric seen at any cheaper-or-equal cost
	for _, i := range order {
		p := pts[i]
		// Walking in cost order, a point joins the front iff it strictly
		// improves on every cheaper point's metric. Within one cost tier
		// the sort puts the best metric (lowest index on exact ties)
		// first, so equal-metric duplicates are skipped here.
		if p.Metric > best {
			front = append(front, i)
			best = p.Metric
		}
	}
	return front
}

// BusBlockCycles converts a node's bandwidth into the timing model's
// per-block bus occupancy: the cycles a blockBytes transfer holds the
// memory system at the given clock.
func BusBlockCycles(n Node, clockMHz float64, blockBytes uint) (uint64, error) {
	if clockMHz <= 0 || blockBytes == 0 {
		return 0, fmt.Errorf("cost: need positive clock and block size")
	}
	if n.BandwidthMBps <= 0 {
		return 0, fmt.Errorf("cost: node needs positive bandwidth")
	}
	seconds := float64(blockBytes) / (n.BandwidthMBps * 1e6)
	cycles := seconds * clockMHz * 1e6
	c := uint64(math.Ceil(cycles))
	if c < 1 {
		c = 1
	}
	return c, nil
}
