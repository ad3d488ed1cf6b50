// Extension experiment: the paper's opening motivation, quantified.
// "Memory system efficiency is particularly critical within the
// context of large-scale parallel machines (1K processors or more)
// because the costs of any inefficiencies are magnified by the scale
// of the system." Each processor's wasted prefetch bandwidth is
// multiplied by the processor count, so the unit-stride filter buys
// scalability directly: this experiment computes how many processors
// a fixed shared memory system sustains with and without it.
package experiments

import (
	"context"

	"streamsim/internal/tab"
	"streamsim/internal/timing"
	"streamsim/internal/workload"
)

// sharedMemoryBlocksPerKilocycle is the modelled machine-wide memory
// capacity: 250 block transfers per 1000 processor cycles (a T3D-class
// interconnect serving the whole partition).
const sharedMemoryBlocksPerKilocycle = 250.0

// trafficRate returns a configuration's memory-traffic demand in
// blocks per kilocycle, from a timed run.
func trafficRate(st timing.Stats, traffic uint64) float64 {
	if st.Cycles == 0 {
		return 0
	}
	return 1000 * float64(traffic) / float64(st.Cycles)
}

// Scalability compares how many processors the shared memory sustains
// per benchmark for unfiltered versus filtered streams. Registered as
// "extscale".
//
//simlint:deterministic
func Scalability(ctx context.Context, opt Options) (*tab.Table, error) {
	opt = opt.withDefaults()
	t := &tab.Table{
		Title: "Extension: processors sustained by a fixed shared memory system",
		Columns: []string{
			"benchmark", "blk/kcy unfiltered", "blk/kcy filtered",
			"procs unfiltered", "procs filtered", "gain",
		},
		Notes: []string{
			"demand per processor in blocks per 1000 cycles; capacity 250 blk/kcy;",
			"procs = capacity / per-processor demand — the EB saved by the filter",
			"multiplies straight into machine size (the paper's 1K-node argument)",
		},
	}
	lat := timing.DefaultLatencies()
	lat.BusBlock = 0 // per-node latency only; the shared capacity is the analysis
	names := workload.Names()
	err := addRows(ctx, t, inputWeights(names, opt.Scale), func(i int) ([]string, error) {
		name := names[i]
		tr, err := record(ctx, name, table1Size(name), opt.Scale)
		if err != nil {
			return nil, err
		}
		unfiltered, err := timing.New(plainStreams(10), lat)
		if err != nil {
			return nil, err
		}
		filtered, err := timing.New(stridedStreams(16), lat)
		if err != nil {
			return nil, err
		}
		if err := replayTimed(ctx, []*timing.Model{unfiltered, filtered}, tr); err != nil {
			return nil, err
		}
		un := trafficRate(unfiltered.Stats(), unfiltered.Results().MemoryTraffic())
		fi := trafficRate(filtered.Stats(), filtered.Results().MemoryTraffic())
		pu, pf := 0.0, 0.0
		if un > 0 {
			pu = sharedMemoryBlocksPerKilocycle / un
		}
		if fi > 0 {
			pf = sharedMemoryBlocksPerKilocycle / fi
		}
		gain := 0.0
		if pu > 0 {
			gain = pf / pu
		}
		return []string{name, tab.F(un), tab.F(fi),
			tab.F(pu), tab.F(pf), tab.F2(gain)}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}
