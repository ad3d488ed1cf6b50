// Extension experiment: the paper's conclusion as a measurement. "The
// cost savings of stream buffers over large caches can be applied to
// increase the main memory bandwidth, resulting in a system with
// better overall performance" — this experiment builds both nodes at
// equal cost and times them.
package experiments

import (
	"context"

	"streamsim/internal/cache"
	"streamsim/internal/cost"
	"streamsim/internal/sweeprun"
	"streamsim/internal/tab"
	"streamsim/internal/timing"
	"streamsim/internal/workload"
)

// costClockMHz is the modelled processor clock.
const costClockMHz = 100

// EqualCost compares, per benchmark, a conventional node (1 MB L2,
// baseline bandwidth) against an equal-cost stream node whose L2
// savings were spent on memory bandwidth. Registered as "extcost".
//
//simlint:deterministic
func EqualCost(ctx context.Context, opt Options) (*tab.Table, error) {
	opt = opt.withDefaults()
	prices := cost.DefaultPrices()
	l2Node := cost.Node{L2KB: 1 << 10, BandwidthMBps: 300}
	streamNode, err := prices.EqualCostBandwidth(l2Node, cost.Node{Streams: 10, Filtered: true})
	if err != nil {
		return nil, err
	}
	l2Bus, err := cost.BusBlockCycles(l2Node, costClockMHz, 64)
	if err != nil {
		return nil, err
	}
	streamBus, err := cost.BusBlockCycles(streamNode, costClockMHz, 64)
	if err != nil {
		return nil, err
	}
	l2Cost, err := prices.Cost(l2Node)
	if err != nil {
		return nil, err
	}

	t := &tab.Table{
		Title: "Extension: equal-cost nodes — 1 MB L2 vs streams + extra bandwidth",
		Columns: []string{
			"benchmark", "CPI L2 node", "CPI stream node", "stream speedup",
		},
		Notes: []string{
			tab.F(l2Node.BandwidthMBps) + " MB/s + 1 MB L2 versus " +
				tab.F(streamNode.BandwidthMBps) + " MB/s + 10 filtered streams, both $" + tab.F(l2Cost),
			"the paper's conclusion: spend the SRAM dollars on bandwidth instead",
		},
	}

	names := workload.Names()
	err = addRows(ctx, t, inputWeights(names, opt.Scale), func(i int) ([]string, error) {
		name := names[i]
		size := table1Size(name)
		tr, err := record(ctx, name, size, opt.Scale)
		if err != nil {
			return nil, err
		}

		latL2 := timing.DefaultLatencies()
		latL2.BusBlock = l2Bus
		l2cfg := cache.Config{
			Name: "L2", SizeBytes: uint(l2Node.L2KB) << 10, Assoc: 4, BlockBytes: 64,
			Replacement: cache.LRU, Write: cache.WriteBack, Alloc: cache.WriteAllocate,
		}
		ml2, err := timing.NewWithL2(noStreams(), l2cfg, latL2)
		if err != nil {
			return nil, err
		}

		latS := timing.DefaultLatencies()
		latS.BusBlock = streamBus
		ms, err := timing.New(stridedStreams(16), latS)
		if err != nil {
			return nil, err
		}

		// Both nodes replay from one decode of the trace, through
		// one simulation of their shared L1s.
		if err := replayTimed(ctx, []*timing.Model{ml2, ms}, tr, sweeprun.Fronts(name, size, opt.Scale, tr)); err != nil {
			return nil, err
		}

		l2CPI, sCPI := ml2.Stats().CPI(), ms.Stats().CPI()
		speedup := 0.0
		if sCPI > 0 {
			speedup = l2CPI / sCPI
		}
		return []string{name, tab.F2(l2CPI), tab.F2(sCPI), tab.F2(speedup)}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}
