// Package memctl models an interleaved main-memory system: B banks,
// block-interleaved, each bank busy for a fixed recovery time after
// serving a block. The paper assumes "systems with sufficient main
// memory bandwidth" (its example: the Cray T3D's 600 MB/s); this model
// supplies the missing failure mode — power-of-two strides, exactly
// what fftpde and trfd prefetch in, land on a fraction of the banks
// and serialize there, while unit-stride streams sweep all banks.
//
// The model answers queueing questions only (when can this transfer
// start; how long did requests wait); data never moves.
package memctl

import (
	"fmt"

	"streamsim/internal/mem"
)

// Config sizes the memory system.
type Config struct {
	// Banks is the number of interleaved banks (power of two; the
	// block address modulo Banks selects the bank).
	Banks int
	// BusyCycles is a bank's recovery time per block access.
	BusyCycles uint64
}

// DefaultConfig is a 16-bank system with 20-cycle bank recovery — a
// 600 MB/s-class memory at a 100 MHz processor clock when sweeping all
// banks.
func DefaultConfig() Config {
	return Config{Banks: 16, BusyCycles: 20}
}

// Stats is the queueing ledger.
type Stats struct {
	// Requests counts block transfers served.
	Requests uint64
	// WaitCycles is the total time requests spent queued on busy banks.
	WaitCycles uint64
	// Conflicts counts requests that had to wait at all.
	Conflicts uint64
}

// AvgWait returns mean cycles a request waited.
func (s Stats) AvgWait() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.WaitCycles) / float64(s.Requests)
}

// ConflictRate returns the fraction of requests that waited.
func (s Stats) ConflictRate() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.Conflicts) / float64(s.Requests)
}

// Banks is a running banked-memory model. Not safe for concurrent use.
type Banks struct {
	cfg    Config
	freeAt []uint64
	stats  Stats
}

// New validates cfg and builds the model.
func New(cfg Config) (*Banks, error) {
	if cfg.Banks < 1 || cfg.Banks&(cfg.Banks-1) != 0 {
		return nil, fmt.Errorf("memctl: bank count %d not a positive power of two", cfg.Banks)
	}
	if cfg.BusyCycles == 0 {
		return nil, fmt.Errorf("memctl: bank recovery time must be positive")
	}
	return &Banks{cfg: cfg, freeAt: make([]uint64, cfg.Banks)}, nil
}

// Config returns the configuration.
func (b *Banks) Config() Config { return b.cfg }

// Stats returns a copy of the queueing ledger.
func (b *Banks) Stats() Stats { return b.stats }

// Access requests the block at time now and returns the cycle the
// transfer starts (>= now; equal when the bank was idle). The bank is
// then busy for BusyCycles.
func (b *Banks) Access(blk mem.Addr, now uint64) (start uint64) {
	bank := int(blk) & (b.cfg.Banks - 1)
	b.stats.Requests++
	start = now
	if b.freeAt[bank] > now {
		start = b.freeAt[bank]
		b.stats.WaitCycles += start - now
		b.stats.Conflicts++
	}
	b.freeAt[bank] = start + b.cfg.BusyCycles
	return start
}
