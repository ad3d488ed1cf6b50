// Package prefetch implements the related-work prefetchers the paper
// positions stream buffers against (its Section 2): Smith's tagged
// one-block-lookahead (OBL) policy and Baer & Chen's PC-indexed
// reference prediction table (RPT).
//
// Both are *on-chip* schemes that prefetch directly into the primary
// cache. The RPT in particular needs the program counter of each
// load/store — the paper's central argument for stream buffers is that
// off-chip logic cannot see PCs, so a commodity-processor system
// cannot build an RPT without modifying the processor. Implementing
// them here lets the experiment harness quantify what that constraint
// costs (see the "extbase" experiment).
package prefetch

import (
	"fmt"

	"streamsim/internal/mem"
)

// Prefetcher decides which blocks to pull into the primary cache.
// The harness (internal/experiments) calls Miss for every demand miss
// and FirstUse the first time a previously prefetched block is
// referenced; both return block numbers to prefetch.
type Prefetcher interface {
	// Name labels the scheme in results.
	Name() string
	// Miss observes a demand miss and returns blocks to prefetch.
	Miss(a mem.Access, blk mem.Addr) []mem.Addr
	// FirstUse observes the first demand reference to a block that
	// entered the cache via prefetch (tagged schemes chain on this).
	FirstUse(a mem.Access, blk mem.Addr) []mem.Addr
}

// OBL is Smith's tagged one-block-lookahead policy: fetching block i
// (on a miss, or touching a prefetched block for the first time)
// triggers a prefetch of block i+1. The tag — "was this block brought
// in by a prefetch and not yet referenced?" — is maintained by the
// harness, which is what distinguishes tagged OBL from prefetch-on-
// miss-only.
type OBL struct {
	// Degree is how many sequential successors to prefetch (classic
	// OBL uses 1).
	degree int
}

// NewOBL builds a tagged OBL prefetcher of the given degree.
func NewOBL(degree int) (*OBL, error) {
	if degree < 1 {
		return nil, fmt.Errorf("prefetch: OBL degree %d < 1", degree)
	}
	return &OBL{degree: degree}, nil
}

// Name implements Prefetcher.
func (o *OBL) Name() string { return fmt.Sprintf("OBL-%d", o.degree) }

// Miss implements Prefetcher: prefetch the next degree blocks.
func (o *OBL) Miss(_ mem.Access, blk mem.Addr) []mem.Addr {
	return o.successors(blk)
}

// FirstUse implements Prefetcher: the tagged policy chains.
func (o *OBL) FirstUse(_ mem.Access, blk mem.Addr) []mem.Addr {
	return o.successors(blk)
}

func (o *OBL) successors(blk mem.Addr) []mem.Addr {
	out := make([]mem.Addr, o.degree)
	for i := range out {
		out[i] = blk + mem.Addr(i) + 1
	}
	return out
}

// rptState is the Baer-Chen per-entry automaton.
type rptState uint8

const (
	// rptInitial: first sighting; no stride yet.
	rptInitial rptState = iota
	// rptTransient: a stride guess exists but is unverified.
	rptTransient
	// rptSteady: the stride has predicted correctly; prefetch.
	rptSteady
	// rptNoPred: repeated mispredictions; stand down until the stride
	// stabilizes again.
	rptNoPred
)

// rptEntry is one reference-prediction-table row.
type rptEntry struct {
	tag      mem.Addr // load/store PC
	prevAddr mem.Addr
	stride   int64
	state    rptState
	valid    bool
	lastUse  uint64
}

// RPTStats counts table behaviour.
type RPTStats struct {
	// Observations is the number of data references seen.
	Observations uint64
	// Predictions is the number of prefetches issued from steady
	// entries.
	Predictions uint64
	// Evictions counts table replacements.
	Evictions uint64
}

// RPT is Baer & Chen's reference prediction table: a PC-indexed,
// set-associative table tracking per-instruction strides with the
// initial/transient/steady/no-prediction automaton, prefetching
// prevAddr+stride when steady.
//
// Unlike the stream buffers, the RPT observes *every* data reference
// (it lives on-chip next to the load/store unit), so the harness calls
// Observe unconditionally.
type RPT struct {
	entries []rptEntry
	assoc   int
	sets    int
	geom    mem.Geometry
	clock   uint64
	stats   RPTStats
}

// NewRPT builds a table with the given total entries and
// associativity. Baer & Chen evaluated 64-256 entries 4-way; the
// synthetic traces' PC recurrence (see internal/workload) wants the
// larger end.
func NewRPT(geom mem.Geometry, entries, assoc int) (*RPT, error) {
	if entries < 1 || assoc < 1 || entries%assoc != 0 {
		return nil, fmt.Errorf("prefetch: bad RPT shape %d entries / %d-way", entries, assoc)
	}
	sets := entries / assoc
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("prefetch: RPT set count %d not a power of two", sets)
	}
	return &RPT{
		entries: make([]rptEntry, entries),
		assoc:   assoc,
		sets:    sets,
		geom:    geom,
	}, nil
}

// Name implements Prefetcher.
func (r *RPT) Name() string {
	return fmt.Sprintf("RPT-%d/%dway", len(r.entries), r.assoc)
}

// Stats returns a copy of the table statistics.
func (r *RPT) Stats() RPTStats { return r.stats }

// set returns the ways of pc's set.
func (r *RPT) set(pc mem.Addr) []rptEntry {
	idx := int(pc>>2) & (r.sets - 1) // word-aligned PCs: skip low bits
	return r.entries[idx*r.assoc : (idx+1)*r.assoc]
}

// Observe updates the automaton for one data reference and returns a
// block to prefetch when the entry is steady. It is called for every
// load and store, hit or miss.
func (r *RPT) Observe(a mem.Access) (blk mem.Addr, ok bool) {
	if a.Kind == mem.IFetch || a.PC == 0 {
		return 0, false
	}
	r.clock++
	r.stats.Observations++
	ways := r.set(a.PC)

	var e *rptEntry
	for i := range ways {
		if ways[i].valid && ways[i].tag == a.PC {
			e = &ways[i]
			break
		}
	}
	if e == nil {
		// Allocate (LRU within the set) in initial state.
		e = &ways[0]
		for i := range ways {
			if !ways[i].valid {
				e = &ways[i]
				break
			}
			if ways[i].lastUse < e.lastUse {
				e = &ways[i]
			}
		}
		if e.valid {
			r.stats.Evictions++
		}
		*e = rptEntry{tag: a.PC, prevAddr: a.Addr, state: rptInitial, valid: true, lastUse: r.clock}
		return 0, false
	}

	e.lastUse = r.clock
	delta := int64(a.Addr) - int64(e.prevAddr)
	correct := delta == e.stride
	switch e.state {
	case rptInitial:
		e.stride = delta
		e.state = rptTransient
	case rptTransient:
		if correct {
			e.state = rptSteady
		} else {
			e.stride = delta
			e.state = rptNoPred
		}
	case rptSteady:
		if !correct {
			e.state = rptInitial
		}
	case rptNoPred:
		if correct {
			e.state = rptTransient
		} else {
			e.stride = delta
		}
	}
	e.prevAddr = a.Addr

	if e.state == rptSteady && e.stride != 0 {
		next := int64(a.Addr) + e.stride
		if next >= 0 {
			r.stats.Predictions++
			return r.geom.BlockAddr(mem.Addr(next)), true
		}
	}
	return 0, false
}

// Miss implements Prefetcher. The RPT's work happens in Observe; a
// miss adds nothing extra.
func (r *RPT) Miss(mem.Access, mem.Addr) []mem.Addr { return nil }

// FirstUse implements Prefetcher.
func (r *RPT) FirstUse(mem.Access, mem.Addr) []mem.Addr { return nil }
