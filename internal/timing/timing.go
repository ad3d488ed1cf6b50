// Package timing layers a simple in-order execution-time model over
// the functional memory system, producing the effective-CPI numbers
// the paper deliberately leaves out (its Section 4.2 explains why hit
// rate is its metric; this package is the extension a downstream user
// of the library asks for first).
//
// The model is deliberately austere, matching the paper's target
// systems: a single-issue in-order processor that blocks on every
// memory reference, a fixed main-memory latency, and a memory bus
// whose occupancy (demand fetches, prefetches and write-backs all
// take BusBlock cycles per block) delays demand fetches when
// prefetching has saturated it. That last term is how the paper's
// "extra bandwidth" turns into lost time on bandwidth-limited
// machines.
package timing

import (
	"context"
	"fmt"

	"streamsim/internal/cache"
	"streamsim/internal/core"
	"streamsim/internal/mem"
	"streamsim/internal/trace"
)

// Latencies are the cycle costs of each service level.
type Latencies struct {
	// L1Hit is the on-chip hit cost (pipelined: usually 1).
	L1Hit uint64
	// VictimHit is the victim-buffer swap cost.
	VictimHit uint64
	// StreamHit is the cost of pulling a ready block from a stream
	// buffer into the L1 (no RAM lookup: the paper argues this can be
	// faster than a secondary cache hit).
	StreamHit uint64
	// PendingPenalty is added to StreamHit when the prefetch had not
	// yet returned (the Section 8 caveat: a correct but late prefetch
	// performs like a partial miss).
	PendingPenalty uint64
	// L2Hit is the secondary-cache hit cost, used only by models built
	// with NewWithL2 (the conventional system streams are compared
	// against).
	L2Hit uint64
	// Memory is the full fast-path latency of main memory.
	Memory uint64
	// BusBlock is the bus occupancy per block transferred; 0 disables
	// bandwidth contention.
	BusBlock uint64
}

// DefaultLatencies matches a circa-1994 workstation-class part: 50ns
// processor-visible DRAM latency at ~100 MHz, a fast stream buffer,
// and a bus that moves a 64-byte block in 8 cycles.
func DefaultLatencies() Latencies {
	return Latencies{
		L1Hit:          1,
		VictimHit:      2,
		StreamHit:      4,
		PendingPenalty: 20,
		L2Hit:          10,
		Memory:         50,
		BusBlock:       8,
	}
}

// validate rejects degenerate latency sets.
func (l Latencies) validate() error {
	if l.L1Hit == 0 {
		return fmt.Errorf("timing: L1 hit latency must be at least 1 cycle")
	}
	if l.Memory < l.StreamHit {
		return fmt.Errorf("timing: memory latency %d below stream hit latency %d", l.Memory, l.StreamHit)
	}
	return nil
}

// Stats is the timing ledger.
type Stats struct {
	// Cycles is total execution time.
	Cycles uint64
	// InstructionCycles is the compute component (1 cycle per
	// instruction).
	InstructionCycles uint64
	// StallCycles is the memory component.
	StallCycles uint64
	// BusWaitCycles is the subset of StallCycles spent waiting for the
	// bus to drain prefetch/write-back traffic.
	BusWaitCycles uint64
	// Instructions is the retired count.
	Instructions uint64
}

// CPI returns cycles per instruction, or 0 before any instructions.
func (s Stats) CPI() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.Cycles) / float64(s.Instructions)
}

// Model drives a core.System and charges cycles. It satisfies
// workload.Sink, so a benchmark can run against it directly.
type Model struct {
	sys *core.System
	l2  *cache.Cache // optional: the conventional-system comparison
	lat Latencies

	now       uint64 // current cycle
	busFreeAt uint64 // cycle at which the memory bus drains
	stats     Stats
}

// New builds a timing model over a fresh memory system.
func New(cfg core.Config, lat Latencies) (*Model, error) {
	if err := lat.validate(); err != nil {
		return nil, err
	}
	sys, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	return &Model{sys: sys, lat: lat}, nil
}

// NewWithL2 builds a timing model for the conventional system the
// paper replaces: cfg (normally with streams disabled) backed by a
// secondary cache. L1 misses that the functional system would send to
// memory probe the L2 first, at lat.L2Hit on a hit.
func NewWithL2(cfg core.Config, l2cfg cache.Config, lat Latencies) (*Model, error) {
	m, err := New(cfg, lat)
	if err != nil {
		return nil, err
	}
	if m.l2, err = cache.New(l2cfg); err != nil {
		return nil, err
	}
	return m, nil
}

// L2 exposes the secondary cache's statistics (nil without one).
func (m *Model) L2() *cache.Cache { return m.l2 }

// System returns the underlying functional simulator (for its
// Results).
func (m *Model) System() *core.System { return m.sys }

// Stats returns a copy of the timing ledger.
func (m *Model) Stats() Stats {
	s := m.stats
	s.Cycles = m.now
	return s
}

// AddInstructions retires n instructions at one cycle each.
func (m *Model) AddInstructions(n uint64) {
	m.sys.AddInstructions(n)
	m.now += n
	m.stats.InstructionCycles += n
	m.stats.Instructions += n
}

// AccessBatch runs a batch of references through Access in order,
// completing the workload.BatchSink surface so batched producers
// (trace replay, the workload generator) amortize interface dispatch.
func (m *Model) AccessBatch(accs []mem.Access) {
	for i := range accs {
		m.Access(accs[i])
	}
}

// Access runs one reference through the memory system and charges its
// latency.
func (m *Model) Access(a mem.Access) {
	m.charge(a.Addr, a.Kind == mem.Write, m.sys.AccessOutcome(a))
}

// charge bills the latency of one reference to addr (a store when
// write) that the memory system serviced as out. It is the one charge
// of both Access and chargeBatch.
func (m *Model) charge(addr mem.Addr, write bool, out core.Outcome) {
	// Bus occupancy: every block moved (prefetches issued on this
	// access, plus a write-back, plus a demand fetch) holds the bus.
	busy := out.Prefetches * m.lat.BusBlock
	if out.WroteBack {
		busy += m.lat.BusBlock
	}

	var stall uint64
	switch out.Level {
	case core.LevelL1, core.LevelUnsampled:
		stall = m.lat.L1Hit
	case core.LevelVictim:
		stall = m.lat.VictimHit
	case core.LevelStream:
		stall = m.lat.StreamHit
		if out.Pending {
			stall += m.lat.PendingPenalty
		}
	case core.LevelMemory, core.LevelNone:
		// A secondary cache, when present, intercepts the fast path.
		if m.l2 != nil && out.Level == core.LevelMemory {
			var res cache.Result
			if write {
				res = m.l2.Write(uint64(addr))
			} else {
				res = m.l2.Read(uint64(addr))
			}
			if res.Hit {
				stall += m.lat.L2Hit
				break
			}
			if res.WroteBack {
				busy += m.lat.BusBlock
			}
		}
		// The demand fetch needs the bus: wait for queued prefetch and
		// write-back traffic first. The wait is part of the stall, and
		// the clock advances by the whole stall below.
		if m.busFreeAt > m.now {
			wait := m.busFreeAt - m.now
			stall += wait
			m.stats.BusWaitCycles += wait
		}
		stall += m.lat.Memory
		busy += m.lat.BusBlock
	}

	// Queue this access's transfers behind whatever the bus is doing.
	if m.busFreeAt < m.now {
		m.busFreeAt = m.now
	}
	m.busFreeAt += busy

	m.now += stall
	m.stats.StallCycles += stall
}

// Results finalizes and returns the functional results.
func (m *Model) Results() core.Results { return m.sys.Results() }

// chargeBatch charges one batch of n references that a logged replay
// stepped through m's system, exactly as Access followed by
// AddInstructions(perAccess) would have charged each reference: log is
// the system's miss log for the batch. The references the log names
// are charged one by one. Every other reference hit in the L1, and a
// hit moves no block, so it neither waits for the bus nor occupies it:
// each run of hits between two logged references costs (L1Hit +
// perAccess) cycles per reference, added in one step before the miss
// that ends the run, and the ledger's hit and instruction counts are
// added once per batch. The caller reuses log after the call returns:
// it is the system's miss log, which the next batch overwrites, so
// chargeBatch keeps no part of it.
func (m *Model) chargeBatch(n int, log []core.Miss, perAccess uint64) {
	hit := m.lat.L1Hit + perAccess
	next := 0
	for _, e := range log {
		m.now += uint64(e.Index-next) * hit
		m.charge(e.Addr, e.Write, e.Outcome)
		m.now += perAccess
		next = e.Index + 1
	}
	m.now += uint64(n-next) * hit
	refs := uint64(n)
	m.stats.StallCycles += (refs - uint64(len(log))) * m.lat.L1Hit
	m.stats.InstructionCycles += refs * perAccess
	m.stats.Instructions += refs * perAccess
	m.sys.AddInstructions(refs * perAccess)
}

// Replay replays a recorded trace through every model from one decode
// pass (core.ReplayStoreFronts), so models whose systems share an L1
// front simulate it once, and charges each batch to every model
// (chargeBatch). The models must be fresh when memo is non-nil: a
// class of them with the paper's L1s then replays from the memo's
// stored front, with no decode and no L1 probe (see core.FrontMemo). The
// instructions are spread evenly: each reference retires
// Instructions/Len of them right after its access, and the remainder
// retires after the last. Each model's ledger, results and secondary
// cache end exactly as driving it alone through Access and
// AddInstructions on that schedule would leave them. A cancelled
// replay returns ctx.Err() with every model having consumed the same
// prefix.
//
//simlint:deterministic
func Replay(ctx context.Context, models []*Model, st *trace.Store, memo core.FrontMemo) error {
	insts, refs := st.Instructions(), uint64(st.Len())
	perAccess := uint64(0)
	if refs > 0 {
		perAccess = insts / refs
	}
	systems := make([]*core.System, len(models))
	for i, m := range models {
		systems[i] = m.sys
	}
	err := core.ReplayStoreFronts(ctx, systems, st, memo, func(n int) {
		for _, m := range models {
			m.chargeBatch(n, m.sys.MissLog(), perAccess)
		}
	})
	if err != nil {
		return err
	}
	if rest := insts - refs*perAccess; rest > 0 {
		for _, m := range models {
			m.AddInstructions(rest)
		}
	}
	return nil
}
