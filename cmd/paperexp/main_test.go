package main

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

func TestList(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run(context.Background(), []string{"-list"}, &out, &errb); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"table1", "fig3", "table4", "extcpi", "extbase", "extcost"} {
		if !strings.Contains(out.String(), id) {
			t.Errorf("-list missing %q", id)
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run(context.Background(), []string{"-exp", "fig42"}, &out, &errb); err == nil {
		t.Fatal("unknown experiment should fail")
	}
}

func TestBadFormat(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run(context.Background(), []string{"-format", "xml"}, &out, &errb); err == nil {
		t.Fatal("bad format should fail")
	}
}

// TestBadScale: scales outside (0, 1] fail before any table prints,
// including NaN, which every ordered comparison lets through. (-scale 0
// selects the default scale.)
func TestBadScale(t *testing.T) {
	for _, scale := range []string{"NaN", "+Inf", "-Inf", "1.0000001"} {
		var out, errb bytes.Buffer
		err := run(context.Background(), []string{"-exp", "table1", "-scale", scale}, &out, &errb)
		if err == nil || !strings.Contains(err.Error(), "scale") {
			t.Errorf("-scale %s: err = %v, want a scale error", scale, err)
		}
		if out.Len() != 0 {
			t.Errorf("-scale %s printed a table:\n%s", scale, out.String())
		}
	}
}

func TestSingleExperimentText(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run(context.Background(), []string{"-exp", "table2", "-scale", "0.05"}, &out, &errb); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "Table 2") || !strings.Contains(s, "trfd") {
		t.Errorf("table output incomplete:\n%s", s)
	}
}

func TestCSVFormat(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run(context.Background(), []string{"-exp", "table2", "-scale", "0.05", "-format", "csv"}, &out, &errb); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.HasPrefix(s, "# Table 2") {
		t.Errorf("CSV should start with a title comment:\n%s", s)
	}
	if !strings.Contains(s, "benchmark,EB %") {
		t.Errorf("CSV header missing:\n%s", s)
	}
}

func TestPlotFlag(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run(context.Background(), []string{"-exp", "fig9", "-scale", "0.05", "-plot"}, &out, &errb); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "+--") {
		t.Errorf("plot frame missing:\n%s", s)
	}
	if !strings.Contains(s, "czone size") {
		t.Errorf("axis label missing:\n%s", s)
	}
}

func TestTimedFlag(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run(context.Background(), []string{"-exp", "table2", "-scale", "0.05", "-time"}, &out, &errb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "(table2 in ") {
		t.Errorf("timing line missing:\n%s", out.String())
	}
}

func TestCommaSeparatedExperiments(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run(context.Background(), []string{"-exp", "table2,table3", "-scale", "0.05"}, &out, &errb); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "Table 2") || !strings.Contains(s, "Table 3") {
		t.Errorf("both experiments should run:\n%s", s)
	}
}
