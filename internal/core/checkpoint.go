// Checkpoint/restore support for incremental replay: a System's
// complete simulation state — architectural state and statistics — can
// be snapshotted at a window boundary and later materialized into a
// fresh System that continues the replay via ReplayStoreMultiPrefixFrom
// exactly where the snapshot left off. The optimizer's successive
// halving carries one checkpoint per surviving candidate between rungs,
// so each lineage processes each trace window at most once instead of
// re-simulating every rung from window 0 (DESIGN.md §12).
package core

// Checkpoint is an immutable snapshot of a System mid-replay. It is
// decoupled from the live system: neither continuing the original
// replay nor restoring (any number of times) can disturb it.
type Checkpoint struct {
	sys *System
}

// Checkpoint snapshots the system's complete simulation state. Take it
// before Results/Finish: Finish closes the bandwidth ledger (in-flight
// prefetches become wasted), which is the one System mutation that is
// not an effect of replaying further accesses, so a post-Finish
// snapshot could not be extended into a longer exact replay.
func (s *System) Checkpoint() *Checkpoint {
	return &Checkpoint{sys: s.clone()}
}

// Restore materializes a fresh System carrying the snapshot's exact
// architectural state and statistics. Replaying the remaining windows
// through it yields byte-identical Results to a from-scratch replay of
// the whole range — the copy carries every replacement clock, FIFO and
// RNG, so the restored system makes the same decision at every access
// the uninterrupted one would have.
//
//simlint:deterministic
func (c *Checkpoint) Restore() *System {
	return c.sys.clone()
}
