// Extension experiment: effective CPI. The paper argues (Section 4.2)
// that hit rate is the right metric for its purposes and leaves
// execution time to the reader; this experiment is that reader's
// follow-up, using the internal/timing model to convert each
// benchmark's behaviour into cycles on a circa-1994 in-order machine.
package experiments

import (
	"context"

	"streamsim/internal/core"
	"streamsim/internal/sweeprun"
	"streamsim/internal/tab"
	"streamsim/internal/timing"
	"streamsim/internal/workload"
)

// CPI estimates per-benchmark cycles-per-instruction for three memory
// systems: bare L1 + memory, L1 + unfiltered streams, and the paper's
// full filtered configuration. It is an extension — no paper artefact
// corresponds to it — registered as "extcpi".
//
//simlint:deterministic
func CPI(ctx context.Context, opt Options) (*tab.Table, error) {
	opt = opt.withDefaults()
	t := &tab.Table{
		Title: "Extension: effective CPI (in-order CPU, 50-cycle memory, 8-cycle bus blocks)",
		Columns: []string{
			"benchmark", "CPI bare", "CPI streams", "CPI filtered", "speedup", "bus-wait %",
		},
		Notes: []string{
			"speedup = bare / filtered; bus-wait % is the share of filtered-system cycles",
			"spent waiting for prefetch traffic to drain — the time cost of EB",
		},
	}
	lat := timing.DefaultLatencies()
	names := workload.Names()
	err := addRows(ctx, t, inputWeights(names, opt.Scale), func(i int) ([]string, error) {
		name := names[i]
		tr, err := record(ctx, name, table1Size(name), opt.Scale)
		if err != nil {
			return nil, err
		}
		// All three memory systems replay from one decode of the
		// trace, through one simulation of their shared L1s.
		models := make([]*timing.Model, 3)
		for j, cfg := range []core.Config{noStreams(), plainStreams(10), stridedStreams(16)} {
			if models[j], err = timing.New(cfg, lat); err != nil {
				return nil, err
			}
		}
		if err := replayTimed(ctx, models, tr, sweeprun.Fronts(name, table1Size(name), opt.Scale, tr)); err != nil {
			return nil, err
		}
		bare, plain, full := models[0].Stats(), models[1].Stats(), models[2].Stats()
		speedup := 0.0
		if full.CPI() > 0 {
			speedup = bare.CPI() / full.CPI()
		}
		busPct := 0.0
		if full.Cycles > 0 {
			busPct = 100 * float64(full.BusWaitCycles) / float64(full.Cycles)
		}
		return []string{name,
			tab.F2(bare.CPI()), tab.F2(plain.CPI()), tab.F2(full.CPI()),
			tab.F2(speedup), tab.F(busPct)}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}
