package workload_test

// Characteristics tests: pin each benchmark model to the qualitative
// behaviour the paper reports, at a reduced trace scale. Bands are
// deliberately generous — these tests protect the *shapes* (who is
// high, who is low, which way the filters move things), not exact
// percentages.

import (
	"testing"

	"streamsim/internal/core"
	"streamsim/internal/stream"
	"streamsim/internal/workload"
)

// testScale keeps the whole characteristics suite around a second.
const testScale = 0.3

// run traces one benchmark through a config.
func run(t *testing.T, name string, size workload.Size, cfg core.Config) core.Results {
	t.Helper()
	w, err := workload.New(name, size)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(sys, testScale); err != nil {
		t.Fatal(err)
	}
	return sys.Results()
}

// table1Size mirrors the experiment harness's input selection.
func table1Size(name string) workload.Size {
	switch name {
	case "appsp", "appbt", "applu":
		return workload.SizeLarge
	default:
		return workload.SizeSmall
	}
}

func plain(n int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Streams = stream.Config{Streams: n, Depth: 2}
	cfg.UnitFilterEntries = 0
	cfg.Stride = core.NoStrideDetection
	return cfg
}

func filtered() core.Config {
	cfg := plain(10)
	cfg.UnitFilterEntries = 16
	return cfg
}

func strided() core.Config {
	cfg := filtered()
	cfg.Stride = core.CzoneScheme
	cfg.StrideFilterEntries = 16
	cfg.CzoneBits = 16
	return cfg
}

func TestEmbarNearPerfectStreaming(t *testing.T) {
	r := run(t, "embar", workload.SizeSmall, plain(2))
	if hr := r.StreamHitRate(); hr < 95 {
		t.Errorf("embar hit rate = %.1f, want > 95 (single long stream)", hr)
	}
}

func TestMajorityInPaperBand(t *testing.T) {
	// Paper: "majority of the benchmarks show hit rates in the 50-80%
	// range" (we count >= 45 to absorb scale noise at the low edge).
	inBand := 0
	for _, name := range workload.Names() {
		r := run(t, name, table1Size(name), plain(10))
		if hr := r.StreamHitRate(); hr >= 45 {
			inBand++
		}
	}
	if inBand < 9 {
		t.Errorf("only %d/15 benchmarks reach 45%% hit rate; paper has a clear majority in 50-80%%", inBand)
	}
}

func TestIrregularBenchmarksAreLow(t *testing.T) {
	// adm and dyfesm reference data via scatter/gather and must sit at
	// the bottom of Figure 3.
	for _, name := range []string{"adm", "dyfesm"} {
		r := run(t, name, workload.SizeSmall, plain(10))
		if hr := r.StreamHitRate(); hr > 45 {
			t.Errorf("%s hit rate = %.1f, want < 45 (indirection-bound)", name, hr)
		}
	}
}

func TestFftpdeLowWithoutStrideDetection(t *testing.T) {
	r := run(t, "fftpde", workload.SizeSmall, plain(10))
	if hr := r.StreamHitRate(); hr > 45 {
		t.Errorf("fftpde unit-only hit rate = %.1f, want < 45 (large strides)", hr)
	}
}

func TestHitRatePlateausWithStreams(t *testing.T) {
	// Figure 3: hit rate grows with stream count and saturates by ~8.
	for _, name := range []string{"mgrid", "cgm"} {
		h2 := run(t, name, workload.SizeSmall, plain(2)).StreamHitRate()
		h8 := run(t, name, workload.SizeSmall, plain(8)).StreamHitRate()
		h10 := run(t, name, workload.SizeSmall, plain(10)).StreamHitRate()
		if h8 < h2 {
			t.Errorf("%s: hit rate fell from %.1f (2 streams) to %.1f (8)", name, h2, h8)
		}
		if h8-h2 < 10 {
			t.Errorf("%s: hit rate barely grows with streams (%.1f -> %.1f)", name, h2, h8)
		}
		if h10-h8 > 8 {
			t.Errorf("%s: no saturation by 8 streams (%.1f -> %.1f)", name, h8, h10)
		}
	}
}

func TestFilterCutsBandwidthEverywhere(t *testing.T) {
	// Figure 5's headline: the filter reduces EB for every benchmark,
	// usually by more than half.
	halved := 0
	for _, name := range workload.Names() {
		size := table1Size(name)
		eb0 := run(t, name, size, plain(10)).ExtraBandwidth()
		eb1 := run(t, name, size, filtered()).ExtraBandwidth()
		if eb1 > eb0 {
			t.Errorf("%s: filter increased EB %.1f -> %.1f", name, eb0, eb1)
		}
		if eb1 <= eb0/2 {
			halved++
		}
	}
	if halved < 8 {
		t.Errorf("filter halved EB for only %d/15 benchmarks; paper: 'often more than 50%%'", halved)
	}
}

func TestFilterCostsAppbtHitRate(t *testing.T) {
	// Section 6.1: appbt's short streams make the filter expensive
	// (65% -> 45% in the paper).
	p := run(t, "appbt", workload.SizeLarge, plain(10)).StreamHitRate()
	f := run(t, "appbt", workload.SizeLarge, filtered()).StreamHitRate()
	if p-f < 8 {
		t.Errorf("appbt filter cost only %.1f points (%.1f -> %.1f), want a visible drop", p-f, p, f)
	}
}

func TestFilterGentleOnLongStreamCodes(t *testing.T) {
	// trfd and cgm keep their hit rates under the filter.
	for _, name := range []string{"trfd", "cgm"} {
		p := run(t, name, workload.SizeSmall, plain(10)).StreamHitRate()
		f := run(t, name, workload.SizeSmall, filtered()).StreamHitRate()
		if p-f > 6 {
			t.Errorf("%s: filter cost %.1f points (%.1f -> %.1f), want ~none", name, p-f, p, f)
		}
	}
}

func TestStrideDetectionRecoversStridedCodes(t *testing.T) {
	// Figure 8: fftpde, appsp and trfd gain dramatically.
	for _, name := range []string{"fftpde", "appsp", "trfd"} {
		size := table1Size(name)
		u := run(t, name, size, filtered()).StreamHitRate()
		s := run(t, name, size, strided()).StreamHitRate()
		if s-u < 15 {
			t.Errorf("%s: stride detection gained only %.1f points (%.1f -> %.1f), want >= 15",
				name, s-u, u, s)
		}
	}
}

func TestStrideDetectionMinorElsewhere(t *testing.T) {
	// Figure 8: gains in other benchmarks are minor.
	for _, name := range []string{"cgm", "appbt", "applu", "adm", "bdna", "is", "embar"} {
		size := table1Size(name)
		u := run(t, name, size, filtered()).StreamHitRate()
		s := run(t, name, size, strided()).StreamHitRate()
		if s-u > 12 {
			t.Errorf("%s: stride detection gained %.1f points (%.1f -> %.1f), paper says minor",
				name, s-u, u, s)
		}
	}
}

func TestCzoneWindowForFftpde(t *testing.T) {
	// Figure 9: fftpde needs czone >= 16 bits; a 12-bit czone is too
	// small for its 2^14-word z stride.
	small := strided()
	small.CzoneBits = 12
	hSmall := run(t, "fftpde", workload.SizeSmall, small).StreamHitRate()
	hGood := run(t, "fftpde", workload.SizeSmall, strided()).StreamHitRate()
	if hGood-hSmall < 15 {
		t.Errorf("fftpde czone 12 vs 16 bits: %.1f vs %.1f, want a wide gap", hSmall, hGood)
	}
}

func TestScalingAcrossInputSizes(t *testing.T) {
	// Table 4: appsp, applu and mgrid improve with data size; cgm
	// degrades (irregular large input).
	for _, name := range []string{"appsp", "applu", "mgrid"} {
		s := run(t, name, workload.SizeSmall, strided()).StreamHitRate()
		l := run(t, name, workload.SizeLarge, strided()).StreamHitRate()
		if l < s {
			t.Errorf("%s: hit rate fell with data size (%.1f -> %.1f), paper shows growth", name, s, l)
		}
	}
	s := run(t, "cgm", workload.SizeSmall, strided()).StreamHitRate()
	l := run(t, "cgm", workload.SizeLarge, strided()).StreamHitRate()
	if l > s-15 {
		t.Errorf("cgm: large input hit rate %.1f vs small %.1f, paper shows a collapse (85 -> 51)", l, s)
	}
}

func TestSuiteMissRateOrdering(t *testing.T) {
	// Table 1: "PERFECT codes show much lower primary cache miss rates
	// than the NAS codes" — compare suite means.
	mean := func(names []string) float64 {
		var sum float64
		for _, n := range names {
			sum += run(t, n, table1Size(n), plain(10)).DataMissRate()
		}
		return sum / float64(len(names))
	}
	names := workload.Names() // the eight NAS codes, then the seven PERFECT ones
	nas, perfect := mean(names[:8]), mean(names[8:])
	if perfect >= nas {
		t.Errorf("PERFECT mean miss rate %.2f >= NAS %.2f; paper ordering violated", perfect, nas)
	}
}

func TestEmbarLowestBandwidthOverhead(t *testing.T) {
	// Table 2: embar's EB is the smallest by far (8% in the paper).
	eb := run(t, "embar", workload.SizeSmall, plain(10)).ExtraBandwidth()
	if eb > 10 {
		t.Errorf("embar EB = %.1f%%, want < 10%%", eb)
	}
}

func TestStreamLengthExtremes(t *testing.T) {
	// Table 3: trfd is long-stream dominated; adm is short-dominated.
	r := run(t, "trfd", workload.SizeSmall, plain(10))
	p := r.Streams.Lengths.Percent()
	if p[4] < 60 {
		t.Errorf("trfd >20 share = %.1f, want > 60 (paper: 90)", p[4])
	}
	r = run(t, "adm", workload.SizeSmall, plain(10))
	p = r.Streams.Lengths.Percent()
	if p[0] < 60 {
		t.Errorf("adm 1-5 share = %.1f, want > 60 (paper: 73)", p[0])
	}
}
