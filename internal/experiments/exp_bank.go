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
	"streamsim/internal/sweeprun"
	"streamsim/internal/tab"
	"streamsim/internal/workload"
)

// bankRequestSpacing is the modelled cycles between successive memory
// requests: a heavily loaded system (each request arrives before the
// previous bank recovers when the traffic camps).
const bankRequestSpacing = 4

// bankTraffic replays one benchmark trace through cfg and feeds the
// ordered block sequence it moves over the memory interface, as the
// blocks arrive, to interleaved memories of 8 and 32 banks, one request
// every bankRequestSpacing cycles. It returns the block count and each
// memory's statistics.
func bankTraffic(ctx context.Context, name string, size workload.Size, scale float64, cfg core.Config) (blocks uint64, s8, s32 memctl.Stats, err error) {
	tr, err := record(ctx, name, size, scale)
	if err != nil {
		return 0, s8, s32, err
	}
	sys, err := core.New(cfg)
	if err != nil {
		return 0, s8, s32, err
	}
	b8, err := memctl.New(memctl.Config{Banks: 8, BusyCycles: 20})
	if err != nil {
		return 0, s8, s32, err
	}
	b32, err := memctl.New(memctl.Config{Banks: 32, BusyCycles: 20})
	if err != nil {
		return 0, s8, s32, err
	}
	sys.OnTraffic(func(blk mem.Addr) {
		now := blocks * bankRequestSpacing
		b8.Access(blk, now)
		b32.Access(blk, now)
		blocks++
	})
	if err := replayMulti(ctx, []*core.System{sys}, tr, sweeprun.Fronts(name, size, scale, tr)); err != nil {
		return 0, s8, s32, err
	}
	return blocks, b8.Stats(), b32.Stats(), nil
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
		blocks, s8, s32, err := bankTraffic(ctx, name, table1Size(name), opt.Scale, stridedStreams(16))
		if err != nil {
			return nil, err
		}
		return []string{name, tab.D(blocks),
			tab.F(100 * s8.ConflictRate()), tab.F(s8.AvgWait()),
			tab.F(100 * s32.ConflictRate()), tab.F(s32.AvgWait())}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}
