package trace

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"
	"unsafe"

	"streamsim/internal/mem"
)

// Store is a compact in-memory reference trace. It holds the same
// information as a []mem.Access but struct-of-arrays and
// delta-encoded: one byte stream carries address records, a second
// carries per-kind PC deltas, and the rare access with a nonzero Size
// goes to a side list. Workload traces are dominated by interleaved
// constant-stride streams, so a reference that costs 24 bytes as a
// mem.Access typically costs about one byte here — the difference
// between a full-scale trace that thrashes the host's caches during
// replay and one that streams through them.
//
// The address encoding borrows the paper's own insight: a workload is
// a handful of concurrent reference streams. Each access kind owns
// ringsPerKind stride-predicting rings (last address + recent deltas,
// exactly a stream buffer's allocation state); a record names its ring
// and carries the zig-zag delta from that ring's prediction. An access
// that continues a tracked stream — the overwhelmingly common case —
// has delta zero and encodes in a single byte regardless of the
// stride's magnitude, where a single last-address-per-kind scheme
// pays 3-5 bytes every time interleaved arrays alternate.
//
// Record layout (first byte, low to high): kind (2 bits), ring
// (3 bits), low 2 bits of the zig-zag delta, continuation bit. If the
// continuation bit is set, uvarint(zz>>2) follows.
//
// A Store is append-only and not safe for concurrent mutation;
// concurrent readers over a quiescent Store are fine (experiments
// replay one memoized trace from many goroutines).
type Store struct {
	addr   []byte // address records, see the layout above
	pc     []byte // per access: uvarint(zigzag64(pc delta)), per-kind last
	sizes  []sizeException
	insts  []instEvent
	n      int
	nInsts uint64
	rings  [ringSlots]ringState // encoder stream predictors, indexed ring<<2|kind
	stamp  [ringSlots]uint64    // last tick each ring was written (LRU victim choice)
	conf   [ringSlots]bool      // ring last carried a stream continuation
	tick   uint64
	lastPC [3]uint64 // previous PC per kind
	err    error

	// marks[w] is the decoder state at the first access of window w+1,
	// snapshotted by Append as the trace is encoded (see windowMark).
	// scanMarks and scanOnce serve stores that lack append-time marks:
	// one sequential decode rebuilds the same index, memoized.
	marks     []windowMark
	scanMarks []windowMark
	scanOnce  sync.Once
}

// WindowRefs is the number of stored references per window of the seek
// index. It equals DefaultOnRefs so that, when a trace is recorded
// through a TimeSampler with the paper's parameters, each index window
// is exactly one of the sampler's on-phase bursts: the off-phase
// references never reach the Store, so store windows and sampler
// windows share their boundaries by construction.
const WindowRefs = DefaultOnRefs

// windowMark is one entry of the window seek index: the complete
// decoder state at a window's first access. The encoder updates its
// rings with exactly the rule every decoder applies, so snapshotting
// the encoder state after k appends yields the state any iterator
// reaches after decoding k accesses — which is what makes an O(1) seek
// possible in a delta-coded stream.
type windowMark struct {
	pos     int // byte offset into Store.addr
	pcPos   int // byte offset into Store.pc
	excNext int // entries of Store.sizes consumed
	rings   [ringSlots]ringState
	lastPC  [3]uint64
}

// ringsPerKind is how many reference streams the encoder tracks per
// access kind. Eight covers the stencil kernels' array interleave —
// mgrid's smoothing sweep alone walks seven read lanes in lockstep,
// and each lane needs its own ring for its stride to be predictable.
// The 3-bit ring field in the record layout pins it.
const ringsPerKind = 8

// ringSlots sizes the flat ring arrays: slot index is ring<<2|kind,
// matching the low five bits of a record's first byte, so the decoder
// indexes with a single mask. Kind 3 is invalid, so a quarter of the
// slots are dead — cheaper than re-packing the index on every access.
const ringSlots = ringsPerKind * 4

// ringState is one stream predictor. The ring's prediction for its
// next address is last+d2 (mod 2^62): the delta from TWO records back,
// not the most recent one. For a constant-stride stream the two are
// equal, so nothing is lost — and a stream whose stride alternates
// between two values (a stencil's paired taps, a loop body's
// fetch-advance/jump-back) has period-2 deltas, which this predicts
// exactly where a last-stride predictor is wrong on every record.
type ringState struct {
	last uint64
	d1   uint64 // most recent delta
	d2   uint64 // delta before that; the predicted next delta
}

// strideResetZZ classifies a record as a stream reallocation: at or
// above this zig-zag delta (|delta| ≥ 32 KiB) the ring was not really
// continuing a stream, so both its deltas reset to zero rather than
// learning a garbage jump. Encoder and decoders must agree on this
// constant — the predictor state is replicated on both sides.
const strideResetZZ = 1 << 16

// sizeException records an access whose Size field is nonzero; the
// synthetic workloads never set one, so these stay off the dense
// streams.
type sizeException struct {
	idx  int
	size uint8
}

// instEvent records a retired-instruction count at its exact position
// in the reference stream: the count arrived after idx accesses had
// been appended. Keeping the position (rather than only a total) lets
// ReplayContext reproduce the recorded event order exactly, so a
// timing model replayed from a Store charges cycles in the same order
// a live workload run would.
type instEvent struct {
	idx int
	n   uint64
}

// storeBytesPerRef sizes the address stream preallocation: measured
// across the fifteen workload traces, the address stream runs 1.5-2.9
// bytes per reference (one-byte deltas for unit strides, two for
// instruction-fetch block steps, three to four for gathers) and the
// PC stream about one, so 3+1 covers the worst observed trace without
// a regrow.
const storeBytesPerRef = 3

// NewStore returns a Store preallocated for about capacityHint
// references. A zero or negative hint is valid and simply starts
// empty.
func NewStore(capacityHint int) *Store {
	s := &Store{}
	if capacityHint > 0 {
		s.addr = make([]byte, 0, capacityHint*storeBytesPerRef)
		s.pc = make([]byte, 0, capacityHint)
	}
	return s
}

// Append encodes one access. Errors (an address beyond the 62-bit
// format limit, an unknown kind) are deferred to Err, matching
// Writer's contract.
//
//simlint:deterministic
func (s *Store) Append(a mem.Access) {
	if s.err != nil {
		return
	}
	k := uint64(a.Kind)
	if k > tagFetch {
		s.err = fmt.Errorf("trace: invalid access kind %v", a.Kind)
		return
	}
	if a.Addr > MaxAddr || a.PC > MaxAddr {
		s.err = fmt.Errorf("trace: address %#x exceeds the %d-bit format limit", uint64(a.Addr), addrBits)
		return
	}
	// Address: pick the ring of this kind whose stride prediction
	// yields the shortest record, breaking byte-length ties toward the
	// least recently written ring. A reset-class access (no ring within
	// strideResetZZ of it) is an allocation, not a continuation, and it
	// may only steal an unconfirmed ring unless every ring is confirmed:
	// without that guard one stray reference evicts a live stream, the
	// displaced stream evicts another on its next access, and the whole
	// ring set thrashes — measured at a third of mgrid's records
	// resetting versus near zero with the guard.
	addr := uint64(a.Addr)
	bestIdx, bestZZ, bestCost := -1, uint64(0), 99
	for r := 0; r < ringsPerKind; r++ {
		idx := r<<2 | int(k)
		st := &s.rings[idx]
		d := (addr - st.last - st.d2) & uint64(MaxAddr)
		delta := int64(d<<2) >> 2
		zz := (uint64(delta<<1) ^ uint64(delta>>63)) & uint64(MaxAddr)
		if zz < 4 {
			// One-byte record — no other ring can beat it, so stop
			// scanning. (An LRU tie-break among equal one-byte rings is
			// forfeited; measured size impact is nil, and the scan is
			// the encoder's hot loop.)
			bestIdx, bestZZ = idx, zz
			break
		}
		cost := 1
		switch {
		case zz >= strideResetZZ && s.conf[idx]:
			cost = 95
		case zz >= strideResetZZ:
			cost = 90
		default:
			cost += (bits.Len64(zz>>2) + 6) / 7
		}
		if bestIdx < 0 || cost < bestCost || (cost == bestCost && s.stamp[idx] < s.stamp[bestIdx]) {
			bestIdx, bestZZ, bestCost = idx, zz, cost
		}
	}
	s.tick++
	s.stamp[bestIdx] = s.tick
	st := &s.rings[bestIdx]
	if bestZZ >= strideResetZZ {
		st.d1, st.d2 = 0, 0
		s.conf[bestIdx] = false
	} else {
		st.d1, st.d2 = (addr-st.last)&uint64(MaxAddr), st.d1
		s.conf[bestIdx] = true
	}
	st.last = addr
	b0 := byte(bestIdx) | byte(bestZZ&3)<<5
	if bestZZ < 4 {
		s.addr = append(s.addr, b0)
	} else {
		s.addr = append(s.addr, b0|0x80)
		s.addr = binary.AppendUvarint(s.addr, bestZZ>>2)
	}
	// PC: plain 64-bit zig-zag delta per kind (no tag to make room
	// for). Loop bodies revisit the same sites, so deltas are tiny.
	pd := int64(uint64(a.PC) - s.lastPC[k])
	s.lastPC[k] = uint64(a.PC)
	s.pc = binary.AppendUvarint(s.pc, uint64(pd<<1)^uint64(pd>>63))
	if a.Size != 0 {
		s.sizes = append(s.sizes, sizeException{idx: s.n, size: a.Size})
	}
	s.n++
	if s.n%WindowRefs == 0 {
		s.marks = append(s.marks, windowMark{
			pos:     len(s.addr),
			pcPos:   len(s.pc),
			excNext: len(s.sizes),
			rings:   s.rings,
			lastPC:  s.lastPC,
		})
	}
}

// AppendBatch encodes a batch of accesses in order. The batch is the
// caller's: workloads flush one reused buffer through here, so the
// encoder must be done with it when it returns.
//
//simlint:borrowed accs
func (s *Store) AppendBatch(accs []mem.Access) {
	for i := range accs {
		s.Append(accs[i])
	}
}

// Access is Append under the name workload.Sink expects, so a Store
// can record a workload run directly.
func (s *Store) Access(a mem.Access) { s.Append(a) }

// AccessBatch is AppendBatch under the name workload.BatchSink
// expects.
//
//simlint:borrowed accs
func (s *Store) AccessBatch(accs []mem.Access) { s.AppendBatch(accs) }

// AddInstructions records n retired instructions at the current
// position in the reference stream (completing the workload.Sink
// surface). Consecutive counts with no access in between coalesce.
func (s *Store) AddInstructions(n uint64) {
	if n == 0 {
		return
	}
	s.nInsts += n
	if last := len(s.insts) - 1; last >= 0 && s.insts[last].idx == s.n {
		s.insts[last].n += n
		return
	}
	s.insts = append(s.insts, instEvent{idx: s.n, n: n})
}

// Instructions returns the total retired-instruction count recorded.
func (s *Store) Instructions() uint64 { return s.nInsts }

// Len returns the number of stored accesses.
func (s *Store) Len() int { return s.n }

// Bytes returns the resident encoded size, for logging and tests.
func (s *Store) Bytes() int {
	return len(s.addr) + len(s.pc) + (len(s.sizes)+len(s.insts))*16
}

// Footprint returns the bytes the store holds allocated: the capacity
// of its encoded streams, side lists and window index. A store
// preallocated by NewStore reaches most of it before its first append,
// so it is what a cache of stores must budget, not Bytes.
func (s *Store) Footprint() int {
	return cap(s.addr) + cap(s.pc) +
		cap(s.sizes)*int(unsafe.Sizeof(sizeException{})) +
		cap(s.insts)*int(unsafe.Sizeof(instEvent{})) +
		cap(s.marks)*int(unsafe.Sizeof(windowMark{}))
}

// Err reports the first deferred append error.
func (s *Store) Err() error { return s.err }

// Iter returns an iterator positioned at the first access. Multiple
// iterators over one Store are independent.
func (s *Store) Iter() StoreIter {
	return StoreIter{s: s}
}

// WindowCount returns the number of seek-index windows covering the
// trace: ceil(Len/WindowRefs). The final window may be short.
func (s *Store) WindowCount() int {
	return (s.n + WindowRefs - 1) / WindowRefs
}

// WindowLen returns the number of accesses in window w.
func (s *Store) WindowLen(w int) int {
	start := w * WindowRefs
	if rest := s.n - start; rest < WindowRefs {
		return rest
	}
	return WindowRefs
}

// PrefixLen returns the number of accesses in the first w windows —
// the cumulative sum of WindowLen over [0, w) — clamped to the store's
// length for w at or beyond the window count. Every window except the
// last holds exactly WindowRefs accesses, so the sum is closed-form;
// the prefix and resume replay engines use it instead of a per-call
// summation loop.
func (s *Store) PrefixLen(w int) int {
	if w <= 0 {
		return 0
	}
	if w >= s.WindowCount() {
		return s.n
	}
	return w * WindowRefs
}

// WindowOffsets returns, for each window, the byte offset into the
// address stream at which its records begin. Offsets come from the
// append-time index; a store without one (or with a stale one) pays a
// single sequential decode scan, memoized for the store's lifetime.
// Like the iterators, it must only be called on a quiescent store.
func (s *Store) WindowOffsets() []int {
	marks := s.windowMarks()
	offs := make([]int, s.WindowCount())
	for w := 1; w < len(offs); w++ {
		offs[w] = marks[w-1].pos
	}
	return offs
}

// IterAtWindow returns an iterator positioned at the first access of
// window w in [0, WindowCount()). The seek is O(1) when the store
// carries its append-time index. An iterator obtained here decodes
// identically to one that consumed the preceding windows itself.
func (s *Store) IterAtWindow(w int) StoreIter {
	if w == 0 {
		return s.Iter()
	}
	m := &s.windowMarks()[w-1]
	return StoreIter{
		s:       s,
		i:       w * WindowRefs,
		pos:     m.pos,
		pcPos:   m.pcPos,
		excNext: m.excNext,
		rings:   m.rings,
		lastPC:  m.lastPC,
	}
}

// windowMarks returns the seek index, preferring the marks Append
// recorded and falling back to one memoized scan of the trace.
func (s *Store) windowMarks() []windowMark {
	if full := s.n / WindowRefs; len(s.marks) >= full {
		return s.marks
	}
	s.scanOnce.Do(func() { s.scanMarks = s.buildWindowIndex() })
	return s.scanMarks
}

// buildWindowIndex reconstructs the window seek index by decoding the
// trace once, snapshotting the iterator state at every window
// boundary. It produces exactly the marks Append would have recorded:
// the iterator replicates the encoder's ring updates step for step.
func (s *Store) buildWindowIndex() []windowMark {
	marks := make([]windowMark, 0, s.n/WindowRefs)
	buf := make([]mem.Access, ReplayBatchLen)
	it := s.Iter()
	for target := WindowRefs; target <= s.n; target += WindowRefs {
		for it.i < target {
			b := buf
			if rest := target - it.i; rest < len(b) {
				b = b[:rest]
			}
			if it.Next(b) == 0 {
				break
			}
		}
		marks = append(marks, windowMark{
			pos:     it.pos,
			pcPos:   it.pcPos,
			excNext: it.excNext,
			rings:   it.rings,
			lastPC:  it.lastPC,
		})
	}
	return marks
}

// StoreIter decodes a Store back into mem.Access values in batches.
type StoreIter struct {
	s       *Store
	i       int // next access index
	pos     int // byte offset into s.addr
	pcPos   int // byte offset into s.pc
	excNext int // next pending entry of s.sizes
	rings   [ringSlots]ringState
	lastPC  [3]uint64
}

// Next fills buf with up to len(buf) decoded accesses and returns how
// many it wrote; zero means the trace is exhausted. Decoding in
// batches keeps the varint state machine out of the per-access
// simulation loop:
//
//	it := store.Iter()
//	for n := it.Next(buf); n > 0; n = it.Next(buf) {
//		sys.AccessBatch(buf[:n])
//	}
func (it *StoreIter) Next(buf []mem.Access) int {
	n := it.s.n - it.i
	if n <= 0 {
		return 0
	}
	if n > len(buf) {
		n = len(buf)
	}
	// The varints are decoded by hand rather than with binary.Uvarint:
	// the call overhead of two Uvarint invocations per reference costs
	// more than the rest of the decode combined, and nearly every
	// record is a one- or two-byte varint the fast paths below catch.
	// All mutable decode state lives in locals for the batch: the
	// stream rings in particular would otherwise be reloaded every
	// reference, because the compiler cannot prove the writes through
	// buf do not alias the iterator.
	addrs, pcs := it.s.addr, it.s.pc
	pos, pcPos := it.pos, it.pcPos
	rings, lastPC := it.rings, it.lastPC
	nextExc := it.nextSizeIdx()
	for j := 0; j < n; j++ {
		b0 := addrs[pos]
		pos++
		zz := uint64(b0) >> 5 & 3
		if b0 >= 0x80 {
			for shift := 2; ; shift += 7 {
				b := addrs[pos]
				pos++
				zz |= uint64(b&0x7f) << shift
				if b < 0x80 {
					break
				}
			}
		}
		st := &rings[b0&31]
		delta := int64(zz>>1) ^ -int64(zz&1)
		addr := (st.last + st.d2 + uint64(delta)) & uint64(MaxAddr)
		if zz >= strideResetZZ {
			st.d1, st.d2 = 0, 0
		} else {
			st.d1, st.d2 = (addr-st.last)&uint64(MaxAddr), st.d1
		}
		st.last = addr
		tag := uint64(b0) & 3

		pv := uint64(pcs[pcPos])
		pcPos++
		if pv >= 0x80 {
			pv &= 0x7f
			for shift := 7; ; shift += 7 {
				b := pcs[pcPos]
				pcPos++
				pv |= uint64(b&0x7f) << shift
				if b < 0x80 {
					break
				}
			}
		}
		pd := int64(pv>>1) ^ -int64(pv&1)
		lastPC[tag] += uint64(pd)

		buf[j] = mem.Access{
			Addr: mem.Addr(addr),
			PC:   mem.Addr(lastPC[tag]),
			Kind: mem.Kind(tag),
		}
		if it.i+j == nextExc {
			buf[j].Size = it.s.sizes[it.excNext].size
			it.excNext++
			nextExc = it.nextSizeIdx()
		}
	}
	it.pos, it.pcPos = pos, pcPos
	it.rings, it.lastPC = rings, lastPC
	it.i += n
	return n
}

// nextSizeIdx returns the access index of the next pending size
// exception, or -1 when none remain — hoisting the two-load bounds
// test out of the decode loops.
func (it *StoreIter) nextSizeIdx() int {
	if it.excNext < len(it.s.sizes) {
		return it.s.sizes[it.excNext].idx
	}
	return -1
}

// NextNoPC is Next without the program-counter stream: decoded
// accesses carry Addr, Kind and Size but a zero PC, and the PC stream
// is not consumed at all. The memory-system simulators never read the
// PC (it exists for the PC-indexed prefetcher baselines), so this is
// the replay decode path — it halves the varint work per reference.
//
// An iterator must stick to one of Next or NextNoPC for its lifetime:
// NextNoPC leaves the PC cursor untouched, so a later Next on the same
// iterator would decode PC deltas that belong to already-consumed
// accesses.
func (it *StoreIter) NextNoPC(buf []mem.Access) int {
	n := it.s.n - it.i
	if n <= 0 {
		return 0
	}
	if n > len(buf) {
		n = len(buf)
	}
	addrs := it.s.addr
	pos := it.pos
	rings := it.rings
	nextExc := it.nextSizeIdx()
	for j := 0; j < n; j++ {
		b0 := addrs[pos]
		pos++
		zz := uint64(b0) >> 5 & 3
		if b0 >= 0x80 {
			for shift := 2; ; shift += 7 {
				b := addrs[pos]
				pos++
				zz |= uint64(b&0x7f) << shift
				if b < 0x80 {
					break
				}
			}
		}
		st := &rings[b0&31]
		delta := int64(zz>>1) ^ -int64(zz&1)
		addr := (st.last + st.d2 + uint64(delta)) & uint64(MaxAddr)
		if zz >= strideResetZZ {
			st.d1, st.d2 = 0, 0
		} else {
			st.d1, st.d2 = (addr-st.last)&uint64(MaxAddr), st.d1
		}
		st.last = addr
		buf[j] = mem.Access{Addr: mem.Addr(addr), Kind: mem.Kind(b0 & 3)}
		if it.i+j == nextExc {
			buf[j].Size = it.s.sizes[it.excNext].size
			it.excNext++
			nextExc = it.nextSizeIdx()
		}
	}
	it.pos = pos
	it.rings = rings
	it.i += n
	return n
}

// NextPacked decodes up to len(buf) references into packed words —
// uint64(addr)<<2 | uint64(kind) — and returns how many it wrote; zero
// means the trace is exhausted. This is the memory-system replay
// decode: a core.System reads neither PC nor Size, so the decode can
// skip the PC stream and the size-exception list entirely and avoid
// materializing mem.Access values at all. The layout is lossless —
// addresses carry at most 62 bits (MaxAddr) — and matches what
// core.(*System).AccessPacked unpacks.
//
// Like NextNoPC, NextPacked leaves the PC cursor untouched: an
// iterator must stick to one of Next, NextNoPC or NextPacked for its
// lifetime.
//
//simlint:hotpath
func (it *StoreIter) NextPacked(buf []uint64) int {
	n := it.s.n - it.i
	if n <= 0 {
		return 0
	}
	if n > len(buf) {
		n = len(buf)
	}
	addrs := it.s.addr
	pos := it.pos
	rings := &it.rings
	for j := 0; j < n; j++ {
		b0 := addrs[pos]
		pos++
		if b0 < 0x20 {
			// Exact prediction (zz = 0, no continuation) — the majority
			// of a workload trace. delta is zero, so the new most-recent
			// delta equals the predicted d2: the update is just a swap.
			st := &rings[b0&31]
			addr := (st.last + st.d2) & uint64(MaxAddr)
			st.d1, st.d2 = st.d2, st.d1
			st.last = addr
			buf[j] = addr<<2 | uint64(b0)&3
			continue
		}
		if b0 < 0x80 {
			// One-byte record, delta in ±1: no continuation bytes and
			// zz < strideResetZZ by construction, so the reset check
			// drops out too.
			zz := uint64(b0) >> 5
			st := &rings[b0&31]
			delta := int64(zz>>1) ^ -int64(zz&1)
			addr := (st.last + st.d2 + uint64(delta)) & uint64(MaxAddr)
			st.d1, st.d2 = (addr-st.last)&uint64(MaxAddr), st.d1
			st.last = addr
			buf[j] = addr<<2 | uint64(b0)&3
			continue
		}
		zz := uint64(b0) >> 5 & 3
		for shift := 2; ; shift += 7 {
			b := addrs[pos]
			pos++
			zz |= uint64(b&0x7f) << shift
			if b < 0x80 {
				break
			}
		}
		st := &rings[b0&31]
		delta := int64(zz>>1) ^ -int64(zz&1)
		addr := (st.last + st.d2 + uint64(delta)) & uint64(MaxAddr)
		if zz >= strideResetZZ {
			st.d1, st.d2 = 0, 0
		} else {
			st.d1, st.d2 = (addr-st.last)&uint64(MaxAddr), st.d1
		}
		st.last = addr
		buf[j] = addr<<2 | uint64(b0)&3
	}
	it.pos = pos
	it.i += n
	return n
}

// ReplayContext streams the recorded events — accesses and positioned
// instruction counts, in exactly the order they were recorded — into
// sink, polling ctx once per ReplayBatchLen accesses. Batch sinks
// receive accesses in AccessBatch chunks split at instruction-count
// boundaries, so every sink observes the same event sequence a live
// workload run would have produced; a timing model replayed this way
// therefore charges cycles identically to one driven directly.
// Accesses are decoded with full PC fidelity (a sink may be a
// PC-indexed prefetcher). A cancelled replay returns ctx.Err() with
// the sink having consumed a prefix of the trace.
//
//simlint:deterministic
func (s *Store) ReplayContext(ctx context.Context, sink Sink) error {
	done := ctx.Done()
	bs, batching := sink.(BatchSink)
	buf := make([]mem.Access, ReplayBatchLen)
	it := s.Iter()
	insts := s.insts
	pos := 0 // accesses delivered so far
	emit := func(chunk []mem.Access) {
		if batching {
			bs.AccessBatch(chunk)
			return
		}
		for k := range chunk {
			sink.Access(chunk[k])
		}
	}
	for n := it.Next(buf); n > 0; n = it.Next(buf) {
		off := 0
		for off < n {
			for len(insts) > 0 && insts[0].idx == pos {
				sink.AddInstructions(insts[0].n)
				insts = insts[1:]
			}
			end := n
			if len(insts) > 0 && insts[0].idx < pos+(end-off) {
				end = off + (insts[0].idx - pos)
			}
			emit(buf[off:end])
			pos += end - off
			off = end
		}
		select {
		case <-done:
			return ctx.Err()
		default:
		}
	}
	// Counts recorded after the final access.
	for len(insts) > 0 && insts[0].idx == pos {
		sink.AddInstructions(insts[0].n)
		insts = insts[1:]
	}
	return nil
}
