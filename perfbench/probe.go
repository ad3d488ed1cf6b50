package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"streamsim/internal/core"
	"streamsim/internal/mem"
	"streamsim/internal/stream"
	"streamsim/internal/trace"
	"streamsim/internal/workload"
)

// probeInput is one of a workload's own traces.
type probeInput struct {
	name  string
	size  workload.Size
	scale float64
}

// perLayer lists the per-layer metrics every traced run reports, in
// BENCHMARK.json order. Figures that only some workloads produce (one
// span per artefact, optimizer input or service phase) are printed
// beside them instead.
var perLayer = []struct{ name, unit string }{
	{"workload.gen_ns_per_ref", "ns"},
	{"trace.encode_ns_per_ref", "ns"},
	{"trace.bytes_per_ref", "B"},
	{"trace.decode_ns_per_ref", "ns"},
	{"cache.l1_ns_per_ref", "ns"},
	{"cache.l1_miss_pct", "%"},
	{"stream.backend_ns_per_event", "ns"},
	{"stream.hit_pct", "%"},
	{"stream.prefetch_useful_pct", "%"},
	{"core.access_ns_per_ref", "ns"},
	{"core.follower_ns_per_event", "ns"},
	{"core.fork_us", "us"},
	{"core.merge_us", "us"},
	{"core.window_shards", "count"},
	{"core.shard_warmup_pct", "%"},
	{"core.checkpoint_us", "us"},
	{"core.restore_us", "us"},
	{"cpu.workload_pct", "%"},
	{"cpu.trace_encode_pct", "%"},
	{"cpu.trace_decode_pct", "%"},
	{"cpu.cache_pct", "%"},
	{"cpu.stream_pct", "%"},
	{"cpu.filter_pct", "%"},
	{"cpu.core_access_pct", "%"},
	{"cpu.core_follower_pct", "%"},
	{"cpu.core_snapshot_pct", "%"},
	{"cpu.models_pct", "%"},
	{"cpu.experiments_pct", "%"},
	{"cpu.search_pct", "%"},
	{"cpu.service_pct", "%"},
	{"cpu.codec_pct", "%"},
	{"cpu.runtime_pct", "%"},
	{"cpu.other_pct", "%"},
	{"experiments.replayed_refs", "count"},
	{"experiments.trace_cache_hits", "count"},
	{"search.evals", "count"},
	{"search.memo_hits", "count"},
	{"search.refs_simulated", "count"},
	{"search.refs_saved_ratio", "ratio"},
	{"search.windows_resumed", "count"},
	{"search.windows_replayed", "count"},
	{"service.memo_hit_pct", "%"},
	{"service.refused", "count"},
	{"service.failed", "count"},
	{"bench.tracing_overhead_pct", "%"},
}

// probeResult accumulates the layer probe over a workload's inputs.
type probeResult struct {
	refs, bytes             float64
	gen, encode, decode     float64 // seconds
	full, l1                float64 // seconds, decode included
	events                  float64 // L1 fills + write-backs under the full config
	misses                  float64 // L1 misses under the L1-only config
	streamProbes, streamHit float64
	issued, wasted          float64
	fan9, fan1, fanEvents   float64
	windows, warmWindows    float64
	shardsByRefs            float64
	fork, merge, ck, rs     []float64 // seconds per call
}

// fanOutWidth is the shared-front fan-out the probe times against a
// single system.
const fanOutWidth = 9

// callReps is how many times the probe times each snapshot call.
const callReps = 15

// probe measures every layer on the given inputs, in turn.
func probe(ctx context.Context, inputs []probeInput) (*probeResult, error) {
	p := &probeResult{}
	for _, in := range inputs {
		if err := p.add(ctx, in); err != nil {
			return nil, fmt.Errorf("%s: %w", in.name, err)
		}
	}
	return p, nil
}

// timedSink records into a trace store and times the store's
// AppendBatch calls, which are the encoder.
type timedSink struct {
	st     *trace.Store
	encode time.Duration
}

func (s *timedSink) Access(a mem.Access) {
	t0 := time.Now()
	s.st.Append(a)
	s.encode += time.Since(t0)
}

func (s *timedSink) AccessBatch(accs []mem.Access) {
	t0 := time.Now()
	s.st.AppendBatch(accs)
	s.encode += time.Since(t0)
}

func (s *timedSink) AddInstructions(n uint64) { s.st.AddInstructions(n) }

// l1Only is Table 1's configuration: the paper's L1s with no streams.
func l1Only() core.Config {
	cfg := core.DefaultConfig()
	cfg.Streams = stream.Config{}
	cfg.UnitFilterEntries = 0
	cfg.Stride = core.NoStrideDetection
	return cfg
}

// replayPacked decodes st batch by batch and, when sys is non-nil,
// feeds each batch to System.AccessPacked. It returns the host time.
func replayPacked(st *trace.Store, sys *core.System) float64 {
	buf := make([]uint64, trace.ReplayBatchLen)
	it := st.Iter()
	t0 := time.Now()
	for n := it.NextPacked(buf); n > 0; n = it.NextPacked(buf) {
		if sys != nil {
			sys.AccessPacked(buf[:n])
		}
	}
	return time.Since(t0).Seconds()
}

func (p *probeResult) add(ctx context.Context, in probeInput) error {
	w, err := workload.New(in.name, in.size)
	if err != nil {
		return err
	}
	sink := &timedSink{st: trace.NewStore(int(workload.EstimateRefs(in.name, in.size, in.scale)))}
	rec, err := timeIt(func() error { return w.RunContext(ctx, sink, in.scale) })
	if err == nil {
		err = sink.st.Err()
	}
	if err != nil {
		return err
	}
	st := sink.st
	refs := float64(st.Len())
	p.refs += refs
	p.bytes += float64(st.Bytes())
	p.gen += rec - sink.encode.Seconds()
	p.encode += sink.encode.Seconds()

	p.decode += replayPacked(st, nil)

	full, err := core.New(core.DefaultConfig())
	if err != nil {
		return err
	}
	p.full += replayPacked(st, full)
	// Snapshot calls on the warmed system, before Results closes its
	// bandwidth ledger.
	for i := 0; i < callReps; i++ {
		var f *core.System
		d, _ := timeIt(func() error { f = full.Fork(); return nil })
		p.fork = append(p.fork, d)
		d, _ = timeIt(func() error { full.Merge(f); return nil })
		p.merge = append(p.merge, d)
		var ck *core.Checkpoint
		d, _ = timeIt(func() error { ck = full.Checkpoint(); return nil })
		p.ck = append(p.ck, d)
		d, _ = timeIt(func() error { _ = ck.Restore(); return nil })
		p.rs = append(p.rs, d)
	}
	rf := full.Results()
	p.events += float64(rf.L1I.Fills + rf.L1D.Fills + rf.Bandwidth.WriteBacks)
	p.streamProbes += float64(rf.Streams.Probes)
	p.streamHit += float64(rf.Streams.Hits)
	p.issued += float64(rf.Streams.PrefetchesIssued)
	p.wasted += float64(rf.Streams.PrefetchesWasted)

	bare, err := core.New(l1Only())
	if err != nil {
		return err
	}
	p.l1 += replayPacked(st, bare)
	rb := bare.Results()
	p.misses += float64(rb.L1I.Misses + rb.L1D.Misses)

	// Shared-front fan-out against one system, both exact sequential.
	one := []*core.System{nil}
	group := make([]*core.System, fanOutWidth)
	for i := range group {
		cfg := core.DefaultConfig()
		if i > 0 {
			cfg.Streams.Streams = 1 + i
		}
		if group[i], err = core.New(cfg); err != nil {
			return err
		}
	}
	if one[0], err = core.New(core.DefaultConfig()); err != nil {
		return err
	}
	exact := core.ShardOptions{Shards: 1}
	t1, err := timeIt(func() error { return core.ReplayStoreMultiWindowed(ctx, one, st, exact) })
	if err != nil {
		return err
	}
	t9, err := timeIt(func() error { return core.ReplayStoreMultiWindowed(ctx, group, st, exact) })
	if err != nil {
		return err
	}
	r1 := one[0].Results()
	p.fan1 += t1
	p.fan9 += t9
	p.fanEvents += float64(r1.L1I.Fills + r1.L1D.Fills + r1.Bandwidth.WriteBacks)

	// The default windowed replay's chunk plan.
	sys, err := core.New(core.DefaultConfig())
	if err != nil {
		return err
	}
	if err := core.ReplayStoreWindowed(ctx, sys, st, core.ShardOptions{}); err != nil {
		return err
	}
	shards := core.LastWindowShards()
	p.shardsByRefs += float64(shards) * refs
	p.windows += float64(st.WindowCount())
	if shards > 1 {
		p.warmWindows += float64((shards - 1) * core.DefaultWarmupWindows)
	}
	return nil
}

// costs turns the probe totals into per-unit layer costs.
func (p *probeResult) costs() map[string]float64 {
	ns := func(sec, per float64) float64 {
		if per == 0 {
			return 0
		}
		return 1e9 * sec / per
	}
	pctOf := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return 100 * a / b
	}
	return map[string]float64{
		"workload.gen_ns_per_ref":     ns(p.gen, p.refs),
		"trace.encode_ns_per_ref":     ns(p.encode, p.refs),
		"trace.bytes_per_ref":         p.bytes / p.refs,
		"trace.decode_ns_per_ref":     ns(p.decode, p.refs),
		"cache.l1_ns_per_ref":         ns(p.l1-p.decode, p.refs),
		"cache.l1_miss_pct":           pctOf(p.misses, p.refs),
		"stream.backend_ns_per_event": ns(p.full-p.l1, p.events),
		"stream.hit_pct":              pctOf(p.streamHit, p.streamProbes),
		"stream.prefetch_useful_pct":  100 - pctOf(p.wasted, p.issued),
		"core.access_ns_per_ref":      ns(p.full-p.decode, p.refs),
		"core.follower_ns_per_event":  ns(p.fan9-p.fan1, (fanOutWidth-1)*p.fanEvents),
		"core.fork_us":                1e6 * median(p.fork),
		"core.merge_us":               1e6 * median(p.merge),
		"core.window_shards":          p.shardsByRefs / p.refs,
		"core.shard_warmup_pct":       pctOf(p.warmWindows, p.windows),
		"core.checkpoint_us":          1e6 * median(p.ck),
		"core.restore_us":             1e6 * median(p.rs),
	}
}

// cpuMetric names the per-layer metric of a profile layer.
func cpuMetric(layer string) string {
	return "cpu." + strings.ReplaceAll(layer, ".", "_") + "_pct"
}

// layerMetrics runs the layer probe on the workload's inputs and
// assembles the per-layer metrics: probe costs, each layer's share of
// the timed phase's CPU time from the profile, the workload's counters
// and the tracing overhead against the untraced run. It also returns
// the printed rows, including figures only this workload produces, and
// the layer cost table.
func layerMetrics(ctx context.Context, rep *report, prof *profiler, traced, untraced map[string]metric) (map[string]metric, []row, string, error) {
	if prof.err != nil {
		return nil, nil, "", fmt.Errorf("cpu profile: %w", prof.err)
	}
	p, err := probe(ctx, rep.probe)
	if err != nil {
		return nil, nil, "", err
	}
	v := p.costs()
	total := 0.0
	for _, sec := range prof.cpu {
		total += sec
	}
	units := float64(len(rep.runS))
	var rows []row
	for _, l := range cpuLayers {
		if total > 0 {
			v[cpuMetric(l)] = 100 * prof.cpu[l] / total
		}
		rows = append(rows, row{"cpu_s." + l, prof.cpu[l] / units, "s", 0})
	}
	for k, x := range rep.layer {
		v[k] = x
	}
	for _, e := range endToEnd {
		u := untraced[e.name].Value
		o := 0.0
		if u != 0 {
			o = 100 * (traced[e.name].Value - u) / u
		}
		if e.name == "run_s" {
			v["bench.tracing_overhead_pct"] = o
		}
		rows = append(rows, row{"bench.tracing_overhead_pct." + e.name, o, "%", 0})
	}
	m := make(map[string]metric, len(perLayer))
	for _, l := range perLayer {
		m[l.name] = metric{v[l.name], l.unit}
		rows = append(rows, row{l.name, v[l.name], l.unit, 0})
	}
	rows = append(rows, rep.layerRows...)
	rows = append(rows, row{"probe.refs", p.refs, "count", len(rep.probe)})
	return m, rows, costTable(v, len(rep.probe), p.refs, total/units), nil
}

// costTable renders the per-layer cost table: each layer's unit cost
// on the workload's own inputs and its share of the timed phase's CPU
// time.
func costTable(v map[string]float64, inputs int, refs, cpuPerUnit float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "layer cost table (probe: %d inputs, %.0f references; profile: %.2f CPU s per timed unit):\n", inputs, refs, cpuPerUnit)
	line := func(layer, cost, unit, share string) {
		fmt.Fprintf(&b, "  %-22s %16s %-10s %s\n", layer, cost, unit, share)
	}
	f := func(k string) string { return fmt.Sprintf("%.2f", v[k]) }
	pair := func(a, c string) string { return f(a) + " / " + f(c) }
	pct := func(ls ...string) string {
		t := 0.0
		for _, l := range ls {
			t += v[cpuMetric(l)]
		}
		return fmt.Sprintf("%.1f%%", t)
	}
	line("layer", "cost", "unit", "CPU share")
	line("record (gen / encode)", pair("workload.gen_ns_per_ref", "trace.encode_ns_per_ref"), "ns/ref", pct("workload", "trace.encode"))
	line("decode", f("trace.decode_ns_per_ref"), "ns/ref", pct("trace.decode"))
	line("L1", f("cache.l1_ns_per_ref"), "ns/ref", pct("cache"))
	line("stream + filter", f("stream.backend_ns_per_event"), "ns/event", pct("stream", "filter"))
	line("core access path", f("core.access_ns_per_ref"), "ns/ref", pct("core.access"))
	line("follower applyTap", f("core.follower_ns_per_event"), "ns/event", pct("core.follower"))
	line("fork / merge", pair("core.fork_us", "core.merge_us"), "us/call", pct("core.snapshot"))
	line("checkpoint / restore", pair("core.checkpoint_us", "core.restore_us"), "us/call", "(in fork / merge)")
	return b.String()
}
