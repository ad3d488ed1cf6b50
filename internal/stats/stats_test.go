package stats

import (
	"testing"
	"testing/quick"
)

func TestRatioAndPercent(t *testing.T) {
	if Ratio(1, 0) != 0 {
		t.Error("Ratio with zero denominator should be 0")
	}
	if Ratio(3, 4) != 0.75 {
		t.Errorf("Ratio(3,4) = %v", Ratio(3, 4))
	}
	if Percent(1, 4) != 25 {
		t.Errorf("Percent(1,4) = %v", Percent(1, 4))
	}
}

func TestExtraBandwidth(t *testing.T) {
	if got := ExtraBandwidth(96, 100); got != 96 {
		t.Errorf("ExtraBandwidth = %v, want 96", got)
	}
	if got := ExtraBandwidth(5, 0); got != 0 {
		t.Errorf("ExtraBandwidth with zero required = %v, want 0", got)
	}
}

func TestClosedForms(t *testing.T) {
	// depth 2, 30 stream misses, 100 cache misses -> 60%.
	if got := EBNoFilterClosedForm(2, 30, 100); got != 60 {
		t.Errorf("EBNoFilterClosedForm = %v, want 60", got)
	}
	if got := EBNoFilterClosedForm(2, 30, 0); got != 0 {
		t.Error("zero cache misses should give 0")
	}
	if got := EBWithFilterClosedForm(2, 10, 100); got != 20 {
		t.Errorf("EBWithFilterClosedForm = %v, want 20", got)
	}
	if got := EBWithFilterClosedForm(2, 10, 0); got != 0 {
		t.Error("zero cache misses should give 0")
	}
}

func TestFilterReducesClosedFormEB(t *testing.T) {
	// With a filter, allocations (filter hits) are at most stream
	// misses, so the closed-form EB can only shrink.
	f := func(depth uint8, sm, fhRaw uint32) bool {
		d := int(depth%4) + 1
		fh := fhRaw % (sm + 1) // filter hits <= stream misses
		cm := sm + 1000
		return EBWithFilterClosedForm(d, uint64(fh), uint64(cm)) <=
			EBNoFilterClosedForm(d, uint64(sm), uint64(cm))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
