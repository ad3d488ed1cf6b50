// The front memo: a stored L1 front, so that a later whole-trace
// replay of the same recording runs only its stream backends. The
// paper varies only the streams and filters behind one pair of L1s, so
// every configuration of its evaluation shares one front per input;
// once a replay has simulated that front, what any later system needs
// from it is the backend events it taps, its miss log and its end
// state, and those are a small fraction of the trace. A memo stores
// that front only: a front of other L1s serves few replays, and
// storing one per L1 shape would cost a recording's memory many times
// over.
package core

import (
	"streamsim/internal/cache"
	"streamsim/internal/mem"
	"streamsim/internal/trace"
)

// Front is the paper's L1 front (paperFront) over a whole recorded
// trace, as a leader simulated it from fresh L1s: every reference that
// left the L1-hit path, in order, with its tap segment, and the front's
// end state. ReplayStoreFronts records it from a live class of fresh
// systems with the paper's L1s and serves later such classes from it
// (see FrontMemo). A Front is immutable once recorded and safe for
// concurrent replays.
//
// The log is one byte stream, one entry per logged reference:
//
//	uvarint  (position gap)<<3 | write-back<<2 | kind
//	varint   write-back block - previous write-back block (write-back only)
//	varint   address - previous address of the same side (I or D)
//
// The position gap is the distance from the previous entry less one,
// and the kind is the reference's mem.Kind. The paper's L1s are
// write-allocate, unsampled and have no victim buffer, so every logged
// reference fills: its tap segment is the optional write-back followed
// by the fill of the reference's own address, exactly the events
// missVia hands the backend.
type Front struct {
	refs    int     // references of the recording
	entries int     // logged references
	log     []byte  // see above
	end     *System // the front's end state; see adoptFront
}

// FrontMemo holds the stored paper front of one recording;
// internal/sweeprun keeps one per cached recording. Both methods are
// safe for concurrent use.
type FrontMemo interface {
	// Front returns the stored front, or nil.
	Front() *Front
	// AddFront stores f, recorded by a replay of the recording that
	// completed. A memo that already holds a front keeps that one.
	AddFront(f *Front)
}

// paperFront is the front key of the paper's L1s, DefaultConfig's: the
// one front a front memo serves and stores.
var paperFront = func() frontKey {
	cfg := DefaultConfig()
	return frontKey{cfg.Geometry, cfg.L1I, cfg.L1D, cfg.VictimEntries}
}()

// fresh reports whether s has presented no reference to its L1s: its
// L1 counters read zero. A Fork reads zero too, so it must not reach a
// front memo.
func (s *System) fresh() bool {
	return s.ctr.L1I == (cache.Stats{}) && s.ctr.L1D == (cache.Stats{})
}

// frontKey returns the system's front key (see the frontKey type).
func (s *System) frontKey() frontKey {
	return frontKey{s.geom, s.cfg.L1I, s.cfg.L1D, s.cfg.VictimEntries}
}

// Bytes is the front's resident size: its log and the arrays of its
// end-state L1s.
func (f *Front) Bytes() int64 {
	return int64(len(f.log)) + f.end.l1i.Footprint() + f.end.l1d.Footprint()
}

// Events calls yield on the front's tap in order, as the memory
// traffic a secondary cache behind its L1s would see: the byte address
// of each block it moves, and whether the move is a write-back of a
// dirty block rather than a fill. It stops early when yield returns
// false.
func (f *Front) Events(yield func(addr mem.Addr, writeBack bool) bool) {
	r := f.reader()
	geom := f.end.geom
	for base := 0; base < f.refs; base += trace.ReplayBatchLen {
		tap, _ := r.next(min(trace.ReplayBatchLen, f.refs-base))
		for _, ev := range tap {
			if ev&tapWriteBack != 0 {
				if !yield(geom.BlockToByte(mem.Addr(ev>>2)), true) {
					return
				}
			} else if !yield(geom.BlockBase(mem.Addr(ev>>2)), false) {
				return
			}
		}
	}
}

// frontWriter records a leader's front batch by batch as the leader
// replays a whole trace with its tap and miss log armed.
type frontWriter struct {
	log     []byte
	entries int
	base    int       // trace position of the batch being added
	last    int       // trace position of the last entry; -1 before the first
	wb      uint64    // block of the last write-back
	addr    [2]uint64 // address of the last data and instruction entry
}

// newFrontWriter returns a writer for the front over a trace of refs
// references. Its log starts with room for half a byte per reference,
// so it seldom grows: the paper pass's fronts take 0.39 bytes per
// reference on average.
func newFrontWriter(refs int) *frontWriter {
	return &frontWriter{last: -1, log: make([]byte, 0, refs/2)}
}

// add appends one batch: words are its packed references, and tap and
// log the leader's tap and miss log for it. It runs only while a
// leader records the front, once per recording, and its log grows as it
// goes. Every logged reference fills, so its tap
// segment ends in its fill.
func (w *frontWriter) add(words, tap []uint64, log []Miss) {
	start := 0
	for _, e := range log {
		seg := tap[start:e.TapEnd]
		start = e.TapEnd
		word := words[e.Index]
		kind := word & 3
		hdr := kind
		if seg[0]&tapWriteBack != 0 {
			hdr |= 1 << 2
		}
		pos := w.base + e.Index
		w.log = appendUvarint(w.log, uint64(pos-w.last-1)<<3|hdr)
		w.last = pos
		if hdr&(1<<2) != 0 {
			blk := seg[0] >> 2
			w.log = appendUvarint(w.log, zigzag(blk-w.wb))
			w.wb = blk
		}
		side := 0
		if kind == uint64(mem.IFetch) {
			side = 1
		}
		addr := word >> 2
		w.log = appendUvarint(w.log, zigzag(addr-w.addr[side]))
		w.addr[side] = addr
		w.entries++
	}
	w.base += len(words)
}

// front returns the recorded front, with leader's front state at the
// end of the trace as its end state.
func (w *frontWriter) front(leader *System) *Front {
	end := &System{cfg: leader.cfg, geom: leader.geom}
	end.adoptFront(leader)
	return &Front{refs: w.base, entries: w.entries, log: append([]byte(nil), w.log...), end: end}
}

// frontReader decodes a stored front batch by batch for the members of
// the class it serves.
type frontReader struct {
	f       *Front
	off     int       // read offset into f.log
	left    int       // entries not yet decoded
	pos     int       // trace position of the next entry
	hdr     uint64    // its header bits below the position gap
	base    int       // trace position of the next batch
	wb      uint64    // block of the last write-back
	addr    [2]uint64 // address of the last data and instruction entry
	tap     []uint64  // the batch's events, a write-back and a fill per reference at most
	entries []Miss    // the batch's log, an entry per reference at most
}

func (f *Front) reader() *frontReader {
	r := &frontReader{
		f: f, left: f.entries, pos: -1,
		tap:     make([]uint64, 0, 2*trace.ReplayBatchLen),
		entries: make([]Miss, 0, trace.ReplayBatchLen),
	}
	if r.left > 0 {
		r.header()
	}
	return r
}

// header decodes the next entry's position and header bits.
func (r *frontReader) header() {
	v := r.uvarint()
	r.pos += int(v>>3) + 1
	r.hdr = v & 7
}

// uvarint decodes one unsigned varint of the log.
func (r *frontReader) uvarint() uint64 {
	var v uint64
	for shift := uint(0); ; shift += 7 {
		b := r.f.log[r.off]
		r.off++
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v
		}
	}
}

// next decodes the next n references' entries: the tap the leader
// would have recorded for them and its miss log, positions relative to
// the batch. Both are valid until the next call.
func (r *frontReader) next(n int) (tap []uint64, log []Miss) {
	end := r.base + n
	tap, log = r.tap[:0], r.entries[:0]
	for r.left > 0 && r.pos < end {
		kind := mem.Kind(r.hdr & 3)
		if r.hdr&(1<<2) != 0 {
			r.wb += unzigzag(r.uvarint())
			tap = tap[:len(tap)+1]
			tap[len(tap)-1] = r.wb<<2 | tapWriteBack
		}
		side := 0
		if kind == mem.IFetch {
			side = 1
		}
		r.addr[side] += unzigzag(r.uvarint())
		addr := r.addr[side]
		ev := addr << 2
		if kind == mem.IFetch {
			ev |= tapIFetch
		}
		tap = tap[:len(tap)+1]
		tap[len(tap)-1] = ev
		// A fill's level is decided by each member's own backend,
		// which overwrites this one.
		log = log[:len(log)+1]
		log[len(log)-1] = Miss{
			Index: r.pos - r.base, TapEnd: len(tap),
			Addr: mem.Addr(addr), Write: kind == mem.Write,
			Outcome: Outcome{Level: LevelMemory},
		}
		if r.left--; r.left > 0 {
			r.header()
		}
	}
	r.base = end
	return tap, log
}

// appendUvarint appends v to b as an unsigned varint.
func appendUvarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

// zigzag maps a wrapped difference of two addresses to an unsigned
// value that is small when the difference is small either way.
func zigzag(d uint64) uint64 { return d<<1 ^ uint64(int64(d)>>63) }

// unzigzag inverts zigzag.
func unzigzag(v uint64) uint64 { return v>>1 ^ -(v & 1) }
