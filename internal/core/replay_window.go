// Names kept from the retired window-sharded replay engine. No package
// in this module calls them: every replay runs the exact sequential
// pass of ReplayStoreMultiPrefixFrom. They stay only because the
// frozen perfbench module compiles against them, and ROADMAP item 5
// lists them for removal at the next benchmark change.
package core

import (
	"context"

	"streamsim/internal/trace"
)

// ShardOptions is ignored: every replay is one exact sequential pass.
type ShardOptions struct {
	Shards int
}

// DefaultWarmupWindows was the retired engine's per-chunk warm-up.
const DefaultWarmupWindows = 4

// LastWindowShards returns 1: every replay is one sequential pass.
func LastWindowShards() int { return 1 }

// ReplayStoreWindowed replays the whole trace through sys exactly.
func ReplayStoreWindowed(ctx context.Context, sys *System, st *trace.Store, _ ShardOptions) error {
	return ReplayStoreMultiPrefixFrom(ctx, []*System{sys}, st, 0, 0)
}

// ReplayStoreMultiWindowed replays the whole trace through every
// system exactly.
func ReplayStoreMultiWindowed(ctx context.Context, systems []*System, st *trace.Store, _ ShardOptions) error {
	return ReplayStoreMultiPrefixFrom(ctx, systems, st, 0, 0)
}
