package stream

import (
	"testing"

	"streamsim/internal/mem"
)

// refSet is a naive reference model of a stream set for FuzzStreamSet:
// one FIFO of slots per buffer, each slot with its own valid bit, and a
// probe that walks every buffer in index order, dropping the
// invalidated entries at its head and then comparing the head. It
// keeps no cached heads, no stale marks and no shared arrays.
type refSet struct {
	geom       mem.Geometry
	depth      int
	latency    uint64
	fifoPolicy bool
	clock      uint64
	bufs       []*refBuffer
	st         Stats
	prefetched []mem.Addr
}

type refSlot struct {
	block   mem.Addr
	valid   bool
	issueAt uint64
}

type refBuffer struct {
	fifo                   []refSlot
	head, count            int
	nextWord               mem.Addr
	stride                 int64
	active, exhausted      bool
	hits, lastUse, allocAt uint64
}

func newRefSet(geom mem.Geometry, cfg Config) *refSet {
	r := &refSet{geom: geom, depth: cfg.Depth, latency: cfg.Latency, fifoPolicy: cfg.Realloc == ReallocFIFO}
	for i := 0; i < cfg.Streams; i++ {
		r.bufs = append(r.bufs, &refBuffer{fifo: make([]refSlot, cfg.Depth)})
	}
	return r
}

// pop removes b's head entry and returns it.
func (r *refSet) pop(b *refBuffer) refSlot {
	s := b.fifo[b.head]
	b.fifo[b.head] = refSlot{}
	b.head = (b.head + 1) % r.depth
	b.count--
	return s
}

// fill issues prefetches into b until it is full or exhausted.
func (r *refSet) fill(b *refBuffer) (issued uint64) {
	for b.count < r.depth && !b.exhausted {
		blk := b.nextWord >> (r.geom.BlockShift() - r.geom.WordShift())
		b.fifo[(b.head+b.count)%r.depth] = refSlot{block: blk, valid: true, issueAt: r.clock}
		b.count++
		issued++
		r.prefetched = append(r.prefetched, blk)
		if next := int64(b.nextWord) + b.stride; next < 0 {
			b.exhausted = true
		} else {
			b.nextWord = mem.Addr(next)
		}
	}
	return issued
}

func (r *refSet) probe(blk mem.Addr) ProbeResult {
	r.clock++
	r.st.Probes++
	for _, b := range r.bufs {
		for b.count > 0 && !b.fifo[b.head].valid {
			r.pop(b)
			r.st.PrefetchesWasted++
		}
		if b.count == 0 || b.fifo[b.head].block != blk {
			continue
		}
		ready := r.clock-r.pop(b).issueAt >= r.latency
		b.hits++
		b.lastUse = r.clock
		issued := r.fill(b)
		r.st.Hits++
		if !ready {
			r.st.PendingHits++
		}
		r.st.PrefetchesIssued += issued
		return ProbeResult{Hit: true, Pending: !ready, Issued: issued}
	}
	r.st.Misses++
	return ProbeResult{}
}

func (r *refSet) allocate(startWord mem.Addr, stride int64) uint64 {
	var v *refBuffer
	for _, b := range r.bufs {
		if !b.active {
			v = b
			break
		}
		if v == nil {
			v = b
			continue
		}
		if r.fifoPolicy && b.allocAt < v.allocAt || !r.fifoPolicy && b.lastUse < v.lastUse {
			v = b
		}
	}
	if v.active {
		r.st.Lengths.add(v.hits)
	}
	r.st.PrefetchesWasted += uint64(v.count)
	*v = refBuffer{fifo: make([]refSlot, r.depth), nextWord: startWord, stride: stride,
		active: true, lastUse: r.clock, allocAt: r.clock}
	issued := r.fill(v)
	r.st.PrefetchesIssued += issued
	r.st.Allocations++
	return issued
}

func (r *refSet) allocateStrided(lastWord mem.Addr, stride int64) uint64 {
	start := int64(lastWord) + stride
	if start < 0 || stride == 0 {
		return 0
	}
	return r.allocate(mem.Addr(start), stride)
}

func (r *refSet) invalidate(blk mem.Addr) {
	for _, b := range r.bufs {
		for c := 0; c < b.count; c++ {
			if s := &b.fifo[(b.head+c)%r.depth]; s.valid && s.block == blk {
				s.valid = false
				r.st.Invalidations++
			}
		}
	}
}

func (r *refSet) finish() {
	for _, b := range r.bufs {
		if b.active {
			r.st.PrefetchesWasted += uint64(b.count)
			r.st.Lengths.add(b.hits)
		}
	}
}

// FuzzStreamSet drives a Set and the naive refSet with the same
// operations and requires the same result from every one. The first
// byte picks 1-4 streams, depth 1-4, latency 0 or 1-3 references and
// LRU or FIFO reallocation; then every three bytes are one operation
// over a few dozen blocks, so probes hit, streams share blocks and
// write-backs clear entries: a probe, a unit allocation, a strided
// allocation (strides of either sign, so negative ones walk off
// address 0 and exhaust), or an invalidation. A Finish closes the run.
func FuzzStreamSet(f *testing.F) {
	for _, seed := range [][]byte{
		// Two allocations on one clock, then a third: the tie-break.
		{0x05, 3, 1, 0, 3, 10, 0, 3, 20, 0, 0, 2, 0, 0, 11, 0, 0, 21, 0},
		{0x85, 3, 1, 0, 3, 10, 0, 3, 20, 0, 0, 2, 0, 0, 11, 0, 0, 21, 0},
		// Invalidate the entry behind the head, hit the head: the refill
		// comes before the exposed entry is dropped.
		{0x0c, 3, 4, 0, 5, 6, 0, 0, 5, 0, 0, 7, 0, 0, 8, 0, 5, 9, 0, 0, 9, 0},
		// Invalidate a head, then probe past it; strided and exhausted
		// streams; a pending hit.
		{0x4d, 3, 4, 0, 5, 5, 0, 0, 6, 0, 4, 9, 0xf0, 0, 8, 0, 4, 40, 24, 0, 29, 0, 2, 1, 0},
		{0x2f, 4, 3, 0xfc, 3, 30, 0, 3, 31, 0, 5, 31, 0, 5, 32, 0, 0, 32, 0, 0, 33, 0, 3, 7, 0},
	} {
		f.Add(seed)
	}
	geom := mem.DefaultGeometry()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cfg := Config{Streams: int(data[0]&3) + 1, Depth: int(data[0]>>2&3) + 1}
		if data[0]&0x40 != 0 {
			cfg.Latency = uint64(data[0]>>4&3) + 1
		}
		if data[0]&0x80 != 0 {
			cfg.Realloc = ReallocFIFO
		}
		s, err := NewSet(geom, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var prefetched []mem.Addr
		s.OnPrefetch(func(blk mem.Addr) { prefetched = append(prefetched, blk) })
		r := newRefSet(geom, cfg)
		wordsPerBlock := mem.Addr(1) << (geom.BlockShift() - geom.WordShift())
		for op := data[1:]; len(op) >= 3; op = op[3:] {
			blk := mem.Addr(op[1] % 48)
			switch op[0] % 6 {
			case 0, 1, 2:
				if got, want := s.ProbeOutcome(blk), r.probe(blk); got != want {
					t.Fatalf("ProbeOutcome(%d) = %+v, want %+v", blk, got, want)
				}
			case 3:
				if got, want := s.AllocateUnit(blk), r.allocate((blk+1)*wordsPerBlock, int64(wordsPerBlock)); got != want {
					t.Fatalf("AllocateUnit(%d) issued %d, want %d", blk, got, want)
				}
			case 4:
				word, stride := mem.Addr(op[1])*4, int64(int8(op[2]))
				if got, want := s.AllocateStrided(word, stride), r.allocateStrided(word, stride); got != want {
					t.Fatalf("AllocateStrided(%d, %d) issued %d, want %d", word, stride, got, want)
				}
			case 5:
				s.InvalidateBlock(blk)
				r.invalidate(blk)
			}
		}
		s.Finish()
		r.finish()
		if got := s.Stats(); got != r.st {
			t.Fatalf("Stats = %+v, want %+v", got, r.st)
		}
		if len(prefetched) != len(r.prefetched) {
			t.Fatalf("issued %d prefetches, want %d", len(prefetched), len(r.prefetched))
		}
		for i, blk := range prefetched {
			if blk != r.prefetched[i] {
				t.Fatalf("prefetch %d is block %d, want %d", i, blk, r.prefetched[i])
			}
		}
	})
}
