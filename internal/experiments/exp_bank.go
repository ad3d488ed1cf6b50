// Extension experiment: bank behaviour of the memory traffic. The
// paper assumes "sufficient main memory bandwidth"; on a real
// interleaved memory, bandwidth depends on which banks the traffic
// lands on. Strided prefetching — exactly what the czone scheme emits
// for fftpde's power-of-two strides — can camp on a fraction of the
// banks. This experiment replays each benchmark's actual memory
// traffic (demand fetches, write-backs and issued prefetches, in
// order) through interleaved-memory models of 8 and 32 banks.
package experiments

import (
	"context"

	"streamsim/internal/core"
	"streamsim/internal/mem"
	"streamsim/internal/memctl"
	"streamsim/internal/tab"
	"streamsim/internal/workload"
)

// bankRequestSpacing is the modelled cycles between successive memory
// requests: a heavily loaded system (each request arrives before the
// previous bank recovers when the traffic camps).
const bankRequestSpacing = 4

// trafficOf captures the ordered block sequence a configuration moves
// over the memory interface for one benchmark trace.
func trafficOf(ctx context.Context, name string, size workload.Size, scale float64, cfg core.Config) ([]mem.Addr, error) {
	tr, err := record(ctx, name, size, scale)
	if err != nil {
		return nil, err
	}
	sys, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	var blocks []mem.Addr
	sys.OnTraffic(func(blk mem.Addr) { blocks = append(blocks, blk) })
	if err := replayMulti(ctx, []*core.System{sys}, tr); err != nil {
		return nil, err
	}
	return blocks, nil
}

// bankStats replays a block sequence through an interleaved memory.
func bankStats(blocks []mem.Addr, banks int) (memctl.Stats, error) {
	b, err := memctl.New(memctl.Config{Banks: banks, BusyCycles: 20})
	if err != nil {
		return memctl.Stats{}, err
	}
	now := uint64(0)
	for _, blk := range blocks {
		b.Access(blk, now)
		now += bankRequestSpacing
	}
	return b.Stats(), nil
}

// BankBehaviour reports per-benchmark bank-conflict rates and average
// waits under 8- and 32-bank memories, for the full stream
// configuration's traffic. Registered as "extbank".
//
//simlint:deterministic
func BankBehaviour(ctx context.Context, opt Options) (*tab.Table, error) {
	opt = opt.withDefaults()
	t := &tab.Table{
		Title: "Extension: interleaved-memory bank behaviour of the stream traffic",
		Columns: []string{
			"benchmark", "traffic blocks",
			"conflict% 8 banks", "avg wait 8", "conflict% 32 banks", "avg wait 32",
		},
		Notes: []string{
			"traffic = demand fetches + write-backs + issued prefetches, in order,",
			"one request per 4 cycles, 20-cycle bank recovery; power-of-two strides",
			"(fftpde, trfd) concentrate on few banks and recover with more interleave",
		},
	}
	names := workload.Names()
	err := addRows(ctx, t, inputWeights(names, opt.Scale), func(i int) ([]string, error) {
		name := names[i]
		blocks, err := trafficOf(ctx, name, table1Size(name), opt.Scale, stridedStreams(16))
		if err != nil {
			return nil, err
		}
		s8, err := bankStats(blocks, 8)
		if err != nil {
			return nil, err
		}
		s32, err := bankStats(blocks, 32)
		if err != nil {
			return nil, err
		}
		return []string{name, tab.D(uint64(len(blocks))),
			tab.F(100 * s8.ConflictRate()), tab.F(s8.AvgWait()),
			tab.F(100 * s32.ConflictRate()), tab.F(s32.AvgWait())}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}
