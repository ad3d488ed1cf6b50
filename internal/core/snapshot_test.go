package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"streamsim/internal/cache"
	"streamsim/internal/mem"
	"streamsim/internal/trace"
	"streamsim/internal/workload"
)

// componentRow is one system of componentRows: a configuration, and
// whether the built system gets a traffic hook (System.OnTraffic).
type componentRow struct {
	name  string
	cfg   Config
	hooks bool
}

// build returns a fresh system of the row.
func (r componentRow) build(t *testing.T) *System {
	t.Helper()
	sys := mustNew(t, r.cfg)
	if r.hooks {
		sys.OnTraffic(func(mem.Addr) {})
	}
	return sys
}

// componentRows are systems that together enable every component a
// System can hold: random, LRU and FIFO L1s, victim buffers, unified
// and partitioned streams with and without latency, the unit, czone
// and min-delta filters, a stride detector without the unit filter,
// the traffic hooks, a no-write-allocate data cache, a system without
// streams and set sampling.
// Each is DefaultConfig with 4 KB L1s, which keep a short trace
// evicting into the victim buffers and missing into the streams and
// filters. TestSnapshotCopiesAreDeep walks their snapshot copies,
// TestAccessDoesNotAllocate and TestReplayAllocationsDoNotGrow gate
// their replay paths, and TestReplayIgnoresPoisonedBuffers lends them
// poisoned buffers.
func componentRows() []componentRow {
	row := func(name string, hooks bool, set func(*Config)) componentRow {
		cfg := DefaultConfig()
		cfg.L1I.SizeBytes, cfg.L1D.SizeBytes = 4<<10, 4<<10
		set(&cfg)
		return componentRow{name, cfg, hooks}
	}
	return []componentRow{
		row("random L1s, victim buffers, partitioned streams, unit and czone filters, latency", false, func(c *Config) {
			c.VictimEntries = 4
			c.PartitionedStreams = true
			c.Streams.Latency = 8
		}),
		row("LRU L1s, unit filter and min-delta", false, func(c *Config) {
			c.L1I.Replacement, c.L1D.Replacement = cache.LRU, cache.LRU
			c.Stride = MinDeltaScheme
		}),
		row("FIFO L1s, unfiltered streams, hooks", true, func(c *Config) {
			c.L1I.Replacement, c.L1D.Replacement = cache.FIFO, cache.FIFO
			c.UnitFilterEntries, c.Stride = 0, NoStrideDetection
		}),
		row("no-write-allocate data cache, no streams", false, func(c *Config) {
			c.L1D.Alloc = cache.NoWriteAllocate
			c.Streams.Streams, c.UnitFilterEntries, c.Stride = 0, 0, NoStrideDetection
		}),
		row("set-sampled L1s, czone without the unit filter", false, func(c *Config) {
			c.L1I.SampleEvery, c.L1D.SampleEvery = 2, 2
			c.UnitFilterEntries = 0
		}),
	}
}

// paperRows are the paper's L1s under each backend: plain streams,
// partitioned streams, the unit filter, the czone scheme and
// min-delta. They share the paper's front, the one a front memo
// stores, so a replay served from it runs every backend.
func paperRows() []componentRow {
	row := func(name string, set func(*Config)) componentRow {
		cfg := DefaultConfig()
		cfg.UnitFilterEntries, cfg.Stride = 0, NoStrideDetection
		set(&cfg)
		return componentRow{"paper L1s, " + name, cfg, false}
	}
	return []componentRow{
		row("plain streams", func(*Config) {}),
		row("partitioned streams", func(c *Config) { c.PartitionedStreams = true }),
		row("unit filter", func(c *Config) { c.UnitFilterEntries = 16 }),
		row("czone", func(c *Config) { c.UnitFilterEntries, c.Stride = 16, CzoneScheme }),
		row("min-delta", func(c *Config) { c.UnitFilterEntries, c.Stride = 16, MinDeltaScheme }),
	}
}

// TestSnapshotCopiesAreDeep walks Fork and Checkpoint().Restore() of
// warmed systems against their originals, one leaf at a time. Every
// snapshot copy starts from a value copy of its struct, so a field is
// carried by construction; what the walk pins is the one way a copy
// can still go wrong, a reference it shares with its original.
//
//   - Every leaf is equal. A Fork's counters, instruction count,
//     finished flag and scratch outcome are the exception: they must be
//     zero.
//   - No pointer or slice backing array is shared, except the traffic
//     hooks. A pointer into the original System (a component's stats,
//     bound to its counters) must point at the same place in the copy,
//     whose counters the walk checks as a field.
//   - Components' own statistics are skipped: a bound component counts
//     through stats, and the stale copy a clone keeps in own is read
//     only by a standalone clone.
//
// The component rows together enable every component, which the last
// check asserts field by field.
func TestSnapshotCopiesAreDeep(t *testing.T) {
	st := snapshotTrace(t)
	sysType := reflect.TypeOf(System{})
	nonNil := map[string]bool{}
	for _, row := range componentRows() {
		t.Run(row.name, func(t *testing.T) {
			sys := row.build(t)
			if err := ReplayStore(context.Background(), sys, st); err != nil {
				t.Fatal(err)
			}
			sys.AddInstructions(st.Instructions())
			sys.Finish()
			orig := reflect.ValueOf(sys).Elem()
			for i := 0; i < sysType.NumField(); i++ {
				if f := orig.Field(i); f.Kind() == reflect.Pointer && !f.IsNil() {
					nonNil[sysType.Field(i).Name] = true
				}
			}
			forkZero := map[string]bool{"ctr": true, "instructions": true, "finished": true, "out": true}
			for name := range forkZero {
				if orig.FieldByName(name).IsZero() {
					t.Fatalf("the warmed system's %s is zero, so the fork's reset of it goes unchecked", name)
				}
			}
			for _, c := range []struct {
				what string
				copy *System
				zero map[string]bool
			}{
				{"Fork", sys.Fork(), forkZero},
				{"Checkpoint().Restore()", sys.Checkpoint().Restore(), nil},
			} {
				w := &snapshotWalk{t: t, what: c.what, zero: c.zero,
					orig: orig.UnsafeAddr(), copy: reflect.ValueOf(c.copy).Elem().UnsafeAddr(), size: sysType.Size()}
				w.walk("", orig, reflect.ValueOf(c.copy).Elem())
			}
		})
	}
	for i := 0; i < sysType.NumField(); i++ {
		if f := sysType.Field(i); f.Type.Kind() == reflect.Pointer && !nonNil[f.Name] {
			t.Errorf("System.%s is nil in every row, so no copy of it is checked; add a row that enables it", f.Name)
		}
	}
}

// snapshotTrace records a short mixed-stride workload: enough misses
// to fill every stream buffer, filter history and victim buffer.
func snapshotTrace(t *testing.T) *trace.Store {
	t.Helper()
	w, err := workload.New("mgrid", workload.SizeSmall)
	if err != nil {
		t.Fatal(err)
	}
	const scale = 0.01
	st := trace.NewStore(int(workload.EstimateRefs("mgrid", workload.SizeSmall, scale)))
	if err := w.Run(st, scale); err != nil {
		t.Fatal(err)
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	return st
}

// snapshotWalk compares a snapshot copy with its original System.
type snapshotWalk struct {
	t    *testing.T
	what string
	// zero names the top-level System fields the copy must hold zero.
	zero map[string]bool
	// orig and copy are the two Systems' addresses, size their extent,
	// to recognise pointers into a System.
	orig, copy, size uintptr
}

func (w *snapshotWalk) walk(path string, o, c reflect.Value) {
	if w.zero[path] {
		if !c.IsZero() {
			w.t.Errorf("%s: %s = %+v, want zero", w.what, path, c)
		}
		return
	}
	switch o.Kind() {
	case reflect.Pointer:
		if o.IsNil() || c.IsNil() {
			if o.IsNil() != c.IsNil() {
				w.t.Errorf("%s: %s is nil in one of original and copy", w.what, path)
			}
			return
		}
		if o.Pointer() == c.Pointer() {
			w.t.Errorf("%s: %s is shared with the original", w.what, path)
			return
		}
		if off := o.Pointer() - w.orig; off < w.size {
			if c.Pointer() != w.copy+off {
				w.t.Errorf("%s: %s points into the original System but not at the same place in the copy", w.what, path)
			}
			return
		}
		w.walk(path, o.Elem(), c.Elem())
	case reflect.Slice:
		if o.IsNil() != c.IsNil() || o.Len() != c.Len() {
			w.t.Errorf("%s: %s has %d elements, want %d", w.what, path, c.Len(), o.Len())
			return
		}
		if o.Cap() > 0 && o.Pointer() == c.Pointer() {
			w.t.Errorf("%s: %s shares its backing array with the original", w.what, path)
			return
		}
		fallthrough
	case reflect.Array:
		for i := 0; i < o.Len(); i++ {
			w.walk(fmt.Sprintf("%s[%d]", path, i), o.Index(i), c.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < o.NumField(); i++ {
			name := o.Type().Field(i).Name
			if name == "own" {
				continue
			}
			if path != "" {
				name = path + "." + name
			}
			w.walk(name, o.Field(i), c.Field(i))
		}
	case reflect.Func:
		if o.Pointer() != c.Pointer() {
			w.t.Errorf("%s: hook %s differs from the original's", w.what, path)
		}
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.String:
		if fmt.Sprint(o) != fmt.Sprint(c) {
			w.t.Errorf("%s: %s = %v, original %v", w.what, path, c, o)
		}
	default:
		w.t.Errorf("%s: %s is a %s, which the walk cannot compare; teach it the kind", w.what, path, o.Kind())
	}
}
