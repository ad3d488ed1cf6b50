// Package stats provides the derived metrics the paper reports: ratios
// and percentages of event counts, and the extra-bandwidth (EB) measure
// of Sections 5 and 6, computed from the bandwidth ledger.
package stats

// Ratio returns num/den as a float, or 0 when den is 0.
func Ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// Percent returns num/den scaled to percent, or 0 when den is 0.
func Percent(num, den uint64) float64 { return 100 * Ratio(num, den) }

// ExtraBandwidth is the paper's EB metric: memory bandwidth wasted by
// stream prefetching as a fraction of the bandwidth the program needs
// without streams. wasted counts prefetched blocks never consumed;
// required counts the blocks the program itself had to move (primary
// cache fills). The result is in percent.
func ExtraBandwidth(wasted, required uint64) float64 {
	return Percent(wasted, required)
}
