package main

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

func doRun(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var out, errb bytes.Buffer
	err := run(context.Background(), args, &out, &errb)
	return out.String(), err
}

func TestRequiredFlags(t *testing.T) {
	if _, err := doRun(t); err == nil {
		t.Fatal("missing flags should fail")
	}
	if _, err := doRun(t, "-workload", "is", "-param", "streams"); err == nil {
		t.Fatal("missing -values should fail")
	}
}

func TestUnknownParam(t *testing.T) {
	_, err := doRun(t, "-workload", "is", "-param", "warp", "-values", "1")
	if err == nil || !strings.Contains(err.Error(), "streams") {
		t.Fatalf("unknown param error should list options, got %v", err)
	}
}

func TestBadValues(t *testing.T) {
	if _, err := doRun(t, "-workload", "is", "-param", "streams", "-values", "1,two"); err == nil {
		t.Fatal("non-integer value should fail")
	}
}

// TestBadScale: scales outside (0, 1] fail before any table prints,
// including NaN, which every ordered comparison lets through. (-scale 0
// selects the default scale.)
func TestBadScale(t *testing.T) {
	for _, scale := range []string{"NaN", "+Inf", "-Inf", "1.0000001"} {
		out, err := doRun(t, "-workload", "is", "-param", "streams", "-values", "1", "-scale", scale)
		if err == nil || !strings.Contains(err.Error(), "scale") {
			t.Errorf("-scale %s: err = %v, want a scale error", scale, err)
		}
		if out != "" {
			t.Errorf("-scale %s printed a table:\n%s", scale, out)
		}
	}
}

func TestUnknownMetric(t *testing.T) {
	if _, err := doRun(t, "-workload", "is", "-param", "streams",
		"-values", "1", "-metric", "joy", "-scale", "0.05"); err == nil {
		t.Fatal("unknown metric should fail")
	}
}

func TestStreamsSweep(t *testing.T) {
	out, err := doRun(t, "-workload", "is", "-param", "streams",
		"-values", "1,4,10", "-scale", "0.05")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "hit vs streams") {
		t.Errorf("title missing:\n%s", out)
	}
	if len(strings.Split(strings.TrimSpace(out), "\n")) < 6 {
		t.Errorf("expected 3 data rows:\n%s", out)
	}
}

func TestCzoneSweepWithPlot(t *testing.T) {
	out, err := doRun(t, "-workload", "custom:0,1,0", "-param", "czone",
		"-values", "8,12,16", "-plot", "-scale", "0.05")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "+--") {
		t.Errorf("plot frame missing:\n%s", out)
	}
}

func TestCustomMix(t *testing.T) {
	out, err := doRun(t, "-workload", "custom:1,0,0", "-param", "streams",
		"-values", "2", "-scale", "0.05")
	if err != nil {
		t.Fatal(err)
	}
	// Pure sequential: near-100% hit.
	if !strings.Contains(out, "100.0") && !strings.Contains(out, "99.") {
		t.Errorf("custom sequential sweep output:\n%s", out)
	}
}

func TestCustomMixMalformed(t *testing.T) {
	if _, err := doRun(t, "-workload", "custom:1,2", "-param", "streams",
		"-values", "2"); err == nil {
		t.Fatal("two-share custom mix should fail")
	}
}

func TestCPIMetric(t *testing.T) {
	out, err := doRun(t, "-workload", "is", "-param", "depth",
		"-values", "1,4", "-metric", "cpi", "-scale", "0.05")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "cpi vs depth") {
		t.Errorf("output:\n%s", out)
	}
}

func TestZeroStreamsRejected(t *testing.T) {
	if _, err := doRun(t, "-workload", "is", "-param", "streams",
		"-values", "0", "-scale", "0.05"); err == nil {
		t.Fatal("streams=0 in a sweep should fail")
	}
}

func TestEBMetricAndVictimParam(t *testing.T) {
	out, err := doRun(t, "-workload", "is", "-param", "victim",
		"-values", "0,8", "-metric", "eb", "-scale", "0.05")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "eb vs victim") {
		t.Errorf("output:\n%s", out)
	}
}

func TestLatencyAndFilterParams(t *testing.T) {
	if _, err := doRun(t, "-workload", "is", "-param", "latency",
		"-values", "0,50", "-scale", "0.05"); err != nil {
		t.Fatal(err)
	}
	if _, err := doRun(t, "-workload", "is", "-param", "filter",
		"-values", "0,16", "-metric", "eb", "-scale", "0.05"); err != nil {
		t.Fatal(err)
	}
	// Negative latency and zero czone are rejected by the mutators.
	if _, err := doRun(t, "-workload", "is", "-param", "latency",
		"-values", "-5", "-scale", "0.05"); err == nil {
		t.Fatal("negative latency should fail")
	}
	if _, err := doRun(t, "-workload", "is", "-param", "czone",
		"-values", "0", "-scale", "0.05"); err == nil {
		t.Fatal("zero czone should fail")
	}
	if _, err := doRun(t, "-workload", "is", "-param", "assoc",
		"-values", "0", "-scale", "0.05"); err == nil {
		t.Fatal("zero associativity should fail")
	}
}

func TestMissRateMetricAndSizeFlag(t *testing.T) {
	if _, err := doRun(t, "-workload", "mgrid", "-param", "assoc",
		"-values", "1,4", "-metric", "missrate", "-size", "large", "-scale", "0.02"); err != nil {
		t.Fatal(err)
	}
	if _, err := doRun(t, "-workload", "mgrid", "-param", "assoc",
		"-values", "1", "-size", "gigantic"); err == nil {
		t.Fatal("bad size should fail")
	}
}

func TestDuplicateValuesRejected(t *testing.T) {
	_, err := doRun(t, "-workload", "is", "-param", "streams",
		"-values", "1,4,4", "-scale", "0.05")
	if err == nil || !strings.Contains(err.Error(), "duplicate value 4") {
		t.Fatalf("duplicate -values should fail clearly, got %v", err)
	}
}

func TestOptimizeMode(t *testing.T) {
	args := []string{"-optimize", "-workload", "is", "-scale", "0.05",
		"-space", "streams=1,4,8;depth=1,2", "-budget", "12", "-seed", "3"}
	out, err := doRun(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "winner: streams=") {
		t.Errorf("winner line missing:\n%s", out)
	}
	if !strings.Contains(out, "optimize hit over streams,depth (halving)") {
		t.Errorf("front table title missing:\n%s", out)
	}
	// Bit-reproducible for a fixed seed, at any -parallel width.
	for _, extra := range [][]string{nil, {"-parallel", "3"}, {"-parallel", "0"}} {
		got, err := doRun(t, append(append([]string{}, args...), extra...)...)
		if err != nil {
			t.Fatal(err)
		}
		if got != out {
			t.Errorf("output diverged with %v:\n%s\nvs\n%s", extra, got, out)
		}
	}
	// A different seed is a different (but still valid) run.
	reseeded, err := doRun(t, append(append([]string{}, args...), "-seed", "99")...)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(reseeded, "winner:") {
		t.Errorf("reseeded run lost the winner line:\n%s", reseeded)
	}
}

func TestOptimizeConstraintFlag(t *testing.T) {
	out, err := doRun(t, "-optimize", "-workload", "is", "-scale", "0.05",
		"-space", "streams=1,8", "-strategy", "grid", "-budget", "2",
		"-constraint", "cost<=0.5")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "winner: none") {
		t.Errorf("unsatisfiable constraint should yield no winner:\n%s", out)
	}
	if !strings.Contains(out, "constraint: cost<=0.5") {
		t.Errorf("constraint note missing:\n%s", out)
	}
}

func TestOptimizeFlagValidation(t *testing.T) {
	if _, err := doRun(t, "-optimize", "-workload", "is"); err == nil {
		t.Fatal("missing -space should fail")
	}
	if _, err := doRun(t, "-optimize", "-space", "streams=1,2"); err == nil {
		t.Fatal("missing -workload should fail")
	}
	if _, err := doRun(t, "-optimize", "-workload", "is",
		"-space", "streams"); err == nil {
		t.Fatal("malformed -space should fail")
	}
	if _, err := doRun(t, "-optimize", "-workload", "is",
		"-space", "streams=1,two"); err == nil {
		t.Fatal("non-integer space value should fail")
	}
	if _, err := doRun(t, "-optimize", "-workload", "is",
		"-space", "streams=1,1"); err == nil {
		t.Fatal("duplicate space value should fail")
	}
	if _, err := doRun(t, "-optimize", "-workload", "is",
		"-space", "streams=1,2", "-constraint", "eb=30"); err == nil {
		t.Fatal("malformed -constraint should fail")
	}
	if _, err := doRun(t, "-optimize", "-workload", "is",
		"-space", "streams=1,2", "-metric", "cpi", "-scale", "0.05"); err == nil {
		t.Fatal("cpi is not an optimizer objective and should fail")
	}
}

// TestParallelFlagNeedsOptimize: -parallel sizes the optimizer's
// generations only; a sweep that sets it, at any value, is rejected
// before anything runs.
func TestParallelFlagNeedsOptimize(t *testing.T) {
	for _, par := range []string{"1", "3", "0"} {
		_, err := doRun(t, "-workload", "is", "-param", "streams",
			"-values", "1,4,10", "-scale", "0.05", "-parallel", par)
		if err == nil || !strings.Contains(err.Error(), "-optimize") {
			t.Errorf("a sweep with -parallel %s returned %v, want an error naming -optimize", par, err)
		}
	}
}
