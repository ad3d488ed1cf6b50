// Package trace implements the paper's trace methodology: a compact
// binary address-trace format (the stand-in for Shade output) and the
// time-sampling technique of Section 4.1 — tracing switched on for
// 10,000 references and off for 90,000, sampling 10% of the run.
//
// The on-disk format is a small header followed by varint-encoded
// records. Access records store the per-kind address delta (traces are
// dominated by sequential runs, so deltas compress well); instruction
// records carry retired-instruction counts for MPI accounting. Only
// the address and kind are stored — program counters are an on-chip
// luxury the paper's off-chip hardware never sees, so the format drops
// them (the RPT baseline in internal/prefetch therefore only works on
// in-process traces).
package trace

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"streamsim/internal/mem"
)

// Format constants.
const (
	// Magic identifies a stream trace file.
	Magic = "STRB"
	// Version is the current format version. Version 2 adds window
	// marker records (an instruction record with a zero count, one per
	// WindowRefs accesses) so a file carries the same window structure
	// the in-memory Store index exposes; version 1 files contain no
	// markers and decode unchanged.
	Version = 2
	// minVersion is the oldest format Reader still accepts.
	minVersion = 1
)

// record tags: low two bits of the first varint carry the kind.
const (
	tagRead  = 0
	tagWrite = 1
	tagFetch = 2
	tagInsts = 3
)

// MaxAddr is the largest encodable address: deltas are carried in a
// 62-bit ring so a record fits one varint alongside its 2-bit tag.
// Physical addresses comfortably fit (2^62 bytes = 4 EiB).
const MaxAddr = mem.Addr(1)<<62 - 1

const addrBits = 62

// Event is one decoded trace record: either a memory access
// (Insts == 0) or an instruction-count record (Insts > 0).
type Event struct {
	// Access is valid when Insts is zero.
	Access mem.Access
	// Insts is the retired-instruction count for count records.
	Insts uint64
}

// Writer encodes events to an io.Writer. It satisfies workload.Sink,
// so a workload can be recorded directly:
//
//	tw := trace.NewWriter(f)
//	w.Run(tw, 1.0)
//	tw.Flush()
type Writer struct {
	w      *bufio.Writer
	last   [3]uint64 // previous address per kind
	err    error
	events uint64
	accs   uint64 // access records written, for window markers
}

// NewWriter starts a trace on w, writing the header immediately.
func NewWriter(w io.Writer) *Writer {
	bw := bufio.NewWriterSize(w, 1<<16)
	tw := &Writer{w: bw}
	if _, err := bw.WriteString(Magic); err != nil {
		tw.err = err
		return tw
	}
	var v [2]byte
	binary.LittleEndian.PutUint16(v[:], Version)
	if _, err := bw.Write(v[:]); err != nil {
		tw.err = err
	}
	return tw
}

// Access encodes one memory reference.
func (t *Writer) Access(a mem.Access) {
	if t.err != nil {
		return
	}
	kind := int(a.Kind)
	if kind > tagFetch {
		t.err = fmt.Errorf("trace: invalid access kind %v", a.Kind)
		return
	}
	if a.Addr > MaxAddr {
		t.err = fmt.Errorf("trace: address %#x exceeds the %d-bit format limit", uint64(a.Addr), addrBits)
		return
	}
	// Delta in a 62-bit ring, sign-extended from bit 61, zig-zagged,
	// then shifted to make room for the kind tag.
	d := (uint64(a.Addr) - t.last[kind]) & uint64(MaxAddr)
	t.last[kind] = uint64(a.Addr)
	delta := int64(d<<2) >> 2 // sign-extend 62 -> 64 bits
	zz := uint64(delta<<1) ^ uint64(delta>>63)
	zz &= uint64(MaxAddr) // 62 significant bits
	t.putUvarint(zz<<2 | uint64(kind))
	t.events++
	if t.accs++; t.accs%WindowRefs == 0 {
		// Window marker: an instruction record with a zero count, which
		// version 1 could never produce (AddInstructions drops zeros).
		t.putUvarint(tagInsts)
	}
}

// AccessBatch encodes a batch of references in order, satisfying
// BatchSink so recording a workload skips per-reference dispatch.
func (t *Writer) AccessBatch(accs []mem.Access) {
	for i := range accs {
		t.Access(accs[i])
	}
}

// AddInstructions encodes a retired-instruction count.
func (t *Writer) AddInstructions(n uint64) {
	if t.err != nil || n == 0 {
		return
	}
	t.putUvarint(n<<2 | tagInsts)
	t.events++
}

func (t *Writer) putUvarint(v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	if _, err := t.w.Write(buf[:n]); err != nil {
		t.err = err
	}
}

// Events returns the number of records written so far.
func (t *Writer) Events() uint64 { return t.events }

// Flush drains the buffer and reports any deferred write error.
func (t *Writer) Flush() error {
	if t.err != nil {
		return t.err
	}
	return t.w.Flush()
}

// Reader decodes a trace produced by Writer (any version back to
// minVersion).
type Reader struct {
	r       *bufio.Reader
	last    [3]uint64
	windows uint64
}

// NewReader validates the header and returns a reader positioned at
// the first record.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	head := make([]byte, len(Magic)+2)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if string(head[:len(Magic)]) != Magic {
		return nil, errors.New("trace: bad magic (not a stream trace file)")
	}
	if v := binary.LittleEndian.Uint16(head[len(Magic):]); v < minVersion || v > Version {
		return nil, fmt.Errorf("trace: unsupported version %d", v)
	}
	return &Reader{r: br}, nil
}

// Windows returns the number of window markers decoded so far (always
// zero for a version 1 trace).
func (t *Reader) Windows() uint64 { return t.windows }

// Next decodes one event. It returns io.EOF at end of trace. Window
// markers are counted and skipped transparently.
func (t *Reader) Next() (Event, error) {
	v, err := binary.ReadUvarint(t.r)
	if err != nil {
		if err == io.EOF {
			return Event{}, io.EOF
		}
		return Event{}, fmt.Errorf("trace: decoding record: %w", err)
	}
	for v == tagInsts { // zero-count instruction record: window marker
		t.windows++
		if v, err = binary.ReadUvarint(t.r); err != nil {
			if err == io.EOF {
				return Event{}, io.EOF
			}
			return Event{}, fmt.Errorf("trace: decoding record: %w", err)
		}
	}
	tag := v & 3
	body := v >> 2
	if tag == tagInsts {
		return Event{Insts: body}, nil
	}
	// Un-zig-zag the delta and advance in the 62-bit ring.
	delta := int64(body>>1) ^ -int64(body&1)
	t.last[tag] = (t.last[tag] + uint64(delta)) & uint64(MaxAddr)
	return Event{Access: mem.Access{Addr: mem.Addr(t.last[tag]), Kind: mem.Kind(tag)}}, nil
}

// Sink is the consumer side of Replay; both core.System and Writer
// satisfy it.
type Sink interface {
	Access(mem.Access)
	AddInstructions(n uint64)
}

// BatchSink is a Sink that also consumes references in batches.
// core.System and Writer satisfy it; Replay and the workload
// generator use the batched entry point when the sink offers one,
// which amortizes interface dispatch over ReplayBatchLen references.
type BatchSink interface {
	Sink
	AccessBatch(accs []mem.Access)
}

// ReplayBatchLen is the batch size used by Replay (and by
// experiments' in-memory replay): big enough to amortize dispatch,
// small enough that the decode buffer stays resident in the host L1.
const ReplayBatchLen = 512

// Replay streams every event into sink. If sink implements BatchSink
// the accesses are delivered in batches, with any instruction-count
// record flushing the pending batch first so the sink observes events
// in exactly the recorded order.
func (t *Reader) Replay(sink Sink) error {
	return t.ReplayContext(context.Background(), sink)
}

// ReplayContext is Replay with cancellation: ctx is polled once per
// ReplayBatchLen events (never per event), and a cancelled replay
// returns ctx.Err() with the sink having consumed a prefix of the
// trace.
func (t *Reader) ReplayContext(ctx context.Context, sink Sink) error {
	done := ctx.Done()
	cancelled := func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
	bs, ok := sink.(BatchSink)
	if !ok {
		n := 0
		for {
			ev, err := t.Next()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			if ev.Insts > 0 {
				sink.AddInstructions(ev.Insts)
			} else {
				sink.Access(ev.Access)
			}
			if n++; n >= ReplayBatchLen {
				n = 0
				if cancelled() {
					return ctx.Err()
				}
			}
		}
	}
	buf := make([]mem.Access, 0, ReplayBatchLen)
	flush := func() {
		if len(buf) > 0 {
			bs.AccessBatch(buf)
			buf = buf[:0]
		}
	}
	for {
		ev, err := t.Next()
		if err == io.EOF {
			flush()
			return nil
		}
		if err != nil {
			return err
		}
		if ev.Insts > 0 {
			flush()
			bs.AddInstructions(ev.Insts)
			continue
		}
		buf = append(buf, ev.Access)
		if len(buf) == ReplayBatchLen {
			flush()
			if cancelled() {
				return ctx.Err()
			}
		}
	}
}

// TimeSampler forwards a 1-in-N time slice of the reference stream to
// its underlying sink: OnRefs references pass through, then OffRefs
// are dropped, repeating. Instruction counts are suppressed during the
// off phase too, so sampled MPI stays meaningful. The paper samples
// 10,000 on / 90,000 off.
type TimeSampler struct {
	sink    Sink
	onRefs  uint64
	offRefs uint64
	pos     uint64 // position within the on+off cycle
	dropped uint64
	passed  uint64
	windows uint64
}

// Paper's Section 4.1 sampling parameters.
const (
	DefaultOnRefs  = 10000
	DefaultOffRefs = 90000
)

// NewTimeSampler wraps sink. onRefs must be positive; offRefs may be
// zero (sampling disabled).
func NewTimeSampler(sink Sink, onRefs, offRefs uint64) (*TimeSampler, error) {
	if onRefs == 0 {
		return nil, errors.New("trace: time sampler needs onRefs > 0")
	}
	return &TimeSampler{sink: sink, onRefs: onRefs, offRefs: offRefs}, nil
}

// Access forwards or drops one reference according to the cycle.
func (s *TimeSampler) Access(a mem.Access) {
	if s.pos == 0 {
		s.windows++
	}
	inOn := s.pos < s.onRefs
	s.pos++
	if s.pos == s.onRefs+s.offRefs {
		s.pos = 0
	}
	if inOn {
		s.passed++
		s.sink.Access(a)
		return
	}
	s.dropped++
}

// AddInstructions forwards counts only during the on phase.
func (s *TimeSampler) AddInstructions(n uint64) {
	if s.pos < s.onRefs {
		s.sink.AddInstructions(n)
	}
}

// Passed returns the number of references forwarded.
func (s *TimeSampler) Passed() uint64 { return s.passed }

// Dropped returns the number of references suppressed.
func (s *TimeSampler) Dropped() uint64 { return s.dropped }

// Windows returns the number of on-phase sample windows begun. When
// the sampler feeds a Store and onRefs is DefaultOnRefs, this equals
// the store's WindowCount: only on-phase references reach the store,
// so every sampler window starts exactly at a store window boundary.
func (s *TimeSampler) Windows() uint64 { return s.windows }
