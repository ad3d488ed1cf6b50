// Package stc exercises the statecov analyzer: //simlint:statefull
// handlers must cover every field of their //simlint:state struct,
// transitively through static callees, with //simlint:statederived
// exemptions.
package stc

import "stcdep"

// Counters is a plain statistics value held by System. It needs no
// directive: a deep copy carries it like any other field.
type Counters struct {
	Fetches uint64
	Fills   uint64
}

// System mirrors the simulator's top-level state: config, a pointer
// component, a counters value, architectural scalars, and a derived
// scratch field no snapshot needs to carry.
//
//simlint:state
//simlint:statederived scratch
type System struct {
	cfg     int
	comp    *Comp
	ctr     Counters
	ticks   uint64
	scratch []uint64
}

// Comp mirrors a cache-like component with tags and a pointer to the
// counter it counts into.
//
//simlint:state
type Comp struct {
	tags  []uint64
	stats *uint64
}

// Checkpoint wraps a snapshotted System.
//
//simlint:state
type Checkpoint struct {
	sys *System
}

// bind points the component at the system's counters.
func (s *System) bind() { s.comp.stats = &s.ctr.Fetches }

// Fork covers everything: cfg/comp in the literal, ticks explicitly,
// ctr through bind, scratch exempt.
//
//simlint:statefull fork
func (s *System) Fork() *System {
	n := &System{cfg: s.cfg, comp: s.comp.Clone()}
	n.ticks = 0
	n.bind()
	return n
}

// ForkDrops never binds, so nothing it reaches decides the counters.
//
//simlint:statefull fork
func (s *System) ForkDrops() *System { // want `\(\*stc\.System\)\.ForkDrops is //simlint:statefull fork but never reads or writes stc\.System\.ctr, not even through its static callees; handle the field or exempt it with //simlint:statederived`
	n := &System{cfg: s.cfg, comp: s.comp.Clone()}
	n.ticks = 0
	return n
}

// Clone's whole-value copy covers every field at once.
//
//simlint:statefull clone
func (c *Comp) Clone() *Comp {
	n := *c
	st := *c.stats
	n.stats = &st
	n.tags = append([]uint64(nil), c.tags...)
	return &n
}

// CloneDrops rebuilds through a partial composite literal: the listed
// field is covered, the missing one is a silent nil.
//
//simlint:statefull clone
func (c *Comp) CloneDrops() *Comp { // want `\(\*stc\.Comp\)\.CloneDrops is //simlint:statefull clone but never reads or writes stc\.Comp\.stats, not even through its static callees`
	return &Comp{tags: append([]uint64(nil), c.tags...)}
}

// Snapshot covers System through its Fork delegate plus the explicit
// copies, and Checkpoint through the literal.
//
//simlint:statefull checkpoint
func (s *System) Snapshot() *Checkpoint {
	return &Checkpoint{sys: snapshot(s)}
}

func snapshot(s *System) *System {
	n := s.Fork()
	n.ctr = s.ctr
	n.ticks = s.ticks
	return n
}

// SnapshotDrops never carries the architectural tick count: coverage
// is a closure property, and nothing it calls touches ticks either
// (delegating to Fork would earn the field through Fork's zeroing
// write, which is why the real snapshotSystem passes).
//
//simlint:statefull checkpoint
func (s *System) SnapshotDrops() *Checkpoint { // want `\(\*stc\.System\)\.SnapshotDrops is //simlint:statefull checkpoint but never reads or writes stc\.System\.ticks, not even through its static callees`
	n := &System{cfg: s.cfg, comp: s.comp.Clone()}
	n.ctr = s.ctr
	n.bind()
	return &Checkpoint{sys: n}
}

// Restore needs only the Checkpoint's own field.
//
//simlint:statefull restore
func (c *Checkpoint) Restore() *System {
	return snapshot(c.sys)
}

// ---- class-scoped statederived ----

// Front's lru field is recomputable on fork but must survive a clone.
//
//simlint:state
//simlint:statederived lru fork
type Front struct {
	lru  uint64
	hits uint64
}

//simlint:statefull fork
func (f *Front) ForkFront() *Front {
	return &Front{hits: f.hits}
}

//simlint:statefull clone
func (f *Front) CloneFront() *Front { // want `\(\*stc\.Front\)\.CloneFront is //simlint:statefull clone but never reads or writes stc\.Front\.lru, not even through its static callees`
	return &Front{hits: f.hits}
}

// ---- cross-package closure via the sibling stcdep package ----

// CloneTally earns its coverage inside stcdep.Copy.
//
//simlint:statefull clone
func CloneTally(t *stcdep.Tally) *stcdep.Tally {
	return stcdep.Copy(t)
}

// CloneTallyPartial delegates to a helper that forgets Errs: the
// missing field is named even though the struct and the only code
// touching it live in the sibling package.
//
//simlint:statefull clone
func CloneTallyPartial(t *stcdep.Tally) *stcdep.Tally { // want `stc\.CloneTallyPartial is //simlint:statefull clone but never reads or writes stcdep\.Tally\.Errs, not even through its static callees`
	return stcdep.CopyOps(t)
}

// ---- dead annotation ----

// Rescale has no state-struct receiver or parameter to cover.
//
//simlint:statefull clone
func Rescale(x, y int) int { // want `stc\.Rescale is //simlint:statefull clone but neither its receiver nor any parameter is a //simlint:state struct`
	return x + y
}
