package stats

import (
	"testing"
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
