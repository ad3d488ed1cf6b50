package trace

import (
	"bytes"
	"io"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"streamsim/internal/mem"
)

func TestHeaderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("empty trace Next = %v, want io.EOF", err)
	}
}

func TestBadMagic(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("NOPE\x01\x00records"))); err == nil {
		t.Error("bad magic should be rejected")
	}
}

func TestBadVersion(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("STRB\x63\x00"))); err == nil {
		t.Error("unknown version should be rejected")
	}
}

func TestTruncatedHeader(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("STR"))); err == nil {
		t.Error("truncated header should be rejected")
	}
}

func TestEventRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	want := []Event{
		{Access: mem.Access{Addr: 0x1000, Kind: mem.Read}},
		{Access: mem.Access{Addr: 0x1040, Kind: mem.Read}},
		{Access: mem.Access{Addr: 0x2000, Kind: mem.Write}},
		{Insts: 42},
		{Access: mem.Access{Addr: 0x100, Kind: mem.IFetch}},
		{Access: mem.Access{Addr: 0xfc0, Kind: mem.Read}}, // backward delta
	}
	for _, ev := range want {
		if ev.Insts > 0 {
			w.AddInstructions(ev.Insts)
		} else {
			w.Access(ev.Access)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Events() != uint64(len(want)) {
		t.Errorf("Events = %d, want %d", w.Events(), len(want))
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, exp := range want {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if got != exp {
			t.Errorf("event %d = %+v, want %+v", i, got, exp)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("after last event Next = %v, want io.EOF", err)
	}
}

func TestInvalidKindRejected(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Access(mem.Access{Addr: 1, Kind: mem.Kind(7)})
	if err := w.Flush(); err == nil {
		t.Error("invalid kind should surface as a write error")
	}
}

func TestZeroInstructionsSkipped(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.AddInstructions(0)
	if w.Events() != 0 {
		t.Error("zero-count instruction records should not be written")
	}
}

// collector gathers replayed events for assertions.
type collector struct {
	accs  []mem.Access
	insts uint64
}

func (c *collector) AccessBatch(accs []mem.Access) { c.accs = append(c.accs, accs...) }
func (c *collector) AddInstructions(n uint64)      { c.insts += n }

func TestReplay(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Access(mem.Access{Addr: 64, Kind: mem.Read})
	w.AddInstructions(10)
	w.Access(mem.Access{Addr: 128, Kind: mem.Write})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var c collector
	if err := r.Replay(&c); err != nil {
		t.Fatal(err)
	}
	if len(c.accs) != 2 || c.insts != 10 {
		t.Errorf("replayed %d accesses / %d insts, want 2 / 10", len(c.accs), c.insts)
	}
}

func TestTruncatedBodyErrors(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Access(mem.Access{Addr: 1 << 40, Kind: mem.Read}) // multi-byte varint
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	r, err := NewReader(bytes.NewReader(full[:len(full)-1]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil || err == io.EOF {
		t.Errorf("truncated record Next = %v, want a decode error", err)
	}
}

// Property: any mixed sequence of accesses and instruction counts
// round-trips exactly through the codec.
func TestCodecProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%200) + 1
		var want []Event
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for i := 0; i < n; i++ {
			if rng.Intn(5) == 0 {
				ev := Event{Insts: uint64(rng.Intn(1<<20)) + 1}
				w.AddInstructions(ev.Insts)
				want = append(want, ev)
				continue
			}
			ev := Event{Access: mem.Access{
				Addr: mem.Addr(rng.Uint64()>>rng.Intn(40)) & MaxAddr,
				Kind: mem.Kind(rng.Intn(3)),
			}}
			w.Access(ev.Access)
			want = append(want, ev)
		}
		if err := w.Flush(); err != nil {
			return false
		}
		r, err := NewReader(&buf)
		if err != nil {
			return false
		}
		for _, exp := range want {
			got, err := r.Next()
			if err != nil || got != exp {
				return false
			}
		}
		_, err = r.Next()
		return err == io.EOF
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTimeSamplerValidation(t *testing.T) {
	if _, err := NewTimeSampler(&collector{}, 0, 10); err == nil {
		t.Error("onRefs 0 should be rejected")
	}
}

func TestTimeSamplerCycle(t *testing.T) {
	var c collector
	s, err := NewTimeSampler(&c, 10, 90)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		s.AccessBatch([]mem.Access{{Addr: mem.Addr(i), Kind: mem.Read}})
	}
	if len(c.accs) != 100 {
		t.Errorf("passed %d accesses, want 100 (10%% of 1000)", len(c.accs))
	}
	if s.Passed() != 100 || s.Dropped() != 900 {
		t.Errorf("Passed/Dropped = %d/%d, want 100/900", s.Passed(), s.Dropped())
	}
	// The passed references are the first 10 of each 100-block.
	if c.accs[0].Addr != 0 || c.accs[10].Addr != 100 {
		t.Errorf("sampling windows misaligned: got %v, %v", c.accs[0], c.accs[10])
	}
}

func TestTimeSamplerInstructionsFollowPhase(t *testing.T) {
	var c collector
	s, _ := NewTimeSampler(&c, 10, 90)
	for i := 0; i < 100; i++ {
		s.AccessBatch([]mem.Access{{Addr: mem.Addr(i), Kind: mem.Read}})
		s.AddInstructions(1)
	}
	// Instructions forwarded only in the on phase (first 10 refs).
	// Note the phase check happens after the access advanced pos.
	if c.insts == 0 || c.insts > 10 {
		t.Errorf("forwarded %d instructions, want in (0, 10]", c.insts)
	}
}

func TestTimeSamplerNoOff(t *testing.T) {
	var c collector
	s, _ := NewTimeSampler(&c, 5, 0)
	for i := 0; i < 100; i++ {
		s.AccessBatch([]mem.Access{{Addr: mem.Addr(i), Kind: mem.Read}})
	}
	if s.Dropped() != 0 {
		t.Errorf("offRefs=0 dropped %d, want 0", s.Dropped())
	}
}

// sampledEvent is one delivery a sampler's sink observed: a reference,
// or an instruction count (insts > 0).
type sampledEvent struct {
	acc   mem.Access
	insts uint64
}

// eventLog records the deliveries a sampler makes, in order, and
// counts its AccessBatch calls.
type eventLog struct {
	events  []sampledEvent
	batches int
}

func (l *eventLog) AccessBatch(accs []mem.Access) {
	l.batches++
	for _, a := range accs {
		l.events = append(l.events, sampledEvent{acc: a})
	}
}

func (l *eventLog) AddInstructions(n uint64) { l.events = append(l.events, sampledEvent{insts: n}) }

// TestTimeSamplerBatchSplits feeds one stream, with instruction counts
// at fixed positions, through AccessBatch cut every possible way that
// matters: one reference at a time, in batches of 7 and 512, all at
// once, and cut one reference before and one after every phase
// boundary. Every split must forward the same references and counts
// in the same order and report the same Passed, Dropped and Windows,
// and the whole-stream feed must hand each on-phase run to the sink in
// one call.
func TestTimeSamplerBatchSplits(t *testing.T) {
	const on, off, n = 10, 25, 400
	accs := make([]mem.Access, n)
	for i := range accs {
		accs[i] = mem.Access{Addr: mem.Addr(64 * i), Kind: mem.Kind(i % 3)}
	}
	// instsAt[i] retires after reference i-1: before the first
	// reference, on both sides of phase boundaries and at the end.
	instsAt := map[int]uint64{0: 3, 9: 4, 10: 5, 11: 6, 35: 7, 36: 8, 100: 9, n: 10}
	var boundaryCuts []int
	for b := 0; b <= n; b += on + off {
		boundaryCuts = append(boundaryCuts, b-1, b+1, b+on-1, b+on+1)
	}
	splits := map[string]func(i int) bool{
		"1":        func(int) bool { return true },
		"7":        func(i int) bool { return i%7 == 0 },
		"512":      func(i int) bool { return i%512 == 0 },
		"all":      func(int) bool { return false },
		"boundary": func(i int) bool { return slices.Contains(boundaryCuts, i) },
	}
	type outcome struct {
		events                   []sampledEvent
		passed, dropped, windows uint64
	}
	run := func(cut func(i int) bool) outcome {
		var log eventLog
		s, err := NewTimeSampler(&log, on, off)
		if err != nil {
			t.Fatal(err)
		}
		start := 0
		for i := 0; i <= n; i++ {
			k, counted := instsAt[i]
			if i == n || counted || cut(i) {
				if i > start {
					s.AccessBatch(accs[start:i])
				}
				start = i
			}
			if counted {
				s.AddInstructions(k)
			}
		}
		return outcome{log.events, s.Passed(), s.Dropped(), s.Windows()}
	}
	want := run(splits["1"])
	if want.passed+want.dropped != n || want.passed == 0 || want.dropped == 0 {
		t.Fatalf("one at a time: passed %d, dropped %d of %d", want.passed, want.dropped, n)
	}
	for name, cut := range splits {
		got := run(cut)
		if got.passed != want.passed || got.dropped != want.dropped || got.windows != want.windows {
			t.Errorf("split %s: Passed/Dropped/Windows = %d/%d/%d, want %d/%d/%d", name,
				got.passed, got.dropped, got.windows, want.passed, want.dropped, want.windows)
		}
		if !slices.Equal(got.events, want.events) {
			t.Errorf("split %s forwarded %d events, want the %d of one at a time in order", name, len(got.events), len(want.events))
		}
	}

	// One batch of the whole stream reaches the sink as one call per
	// on-phase window.
	var log eventLog
	s, err := NewTimeSampler(&log, on, off)
	if err != nil {
		t.Fatal(err)
	}
	s.AccessBatch(accs)
	if uint64(log.batches) != s.Windows() {
		t.Errorf("whole-stream feed made %d sink calls for %d on-phase windows", log.batches, s.Windows())
	}
}

func TestDefaultSamplingConstants(t *testing.T) {
	if DefaultOnRefs != 10000 || DefaultOffRefs != 90000 {
		t.Error("paper's sampling parameters changed")
	}
}

func TestAddressLimitEnforced(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Access(mem.Access{Addr: MaxAddr + 1, Kind: mem.Read})
	if err := w.Flush(); err == nil {
		t.Error("over-limit address should surface as an error")
	}
}

func TestPCNotPreserved(t *testing.T) {
	// The trace format carries address + kind only (the off-chip
	// hardware never sees PCs); recording an access with a PC is legal
	// but the PC does not survive the round trip.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Access(mem.Access{Addr: 0x1000, PC: 0x400, Kind: mem.Read})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Access.PC != 0 {
		t.Errorf("PC = %#x, want 0 (not encoded)", uint64(ev.Access.PC))
	}
	if ev.Access.Addr != 0x1000 {
		t.Errorf("Addr = %#x, want 0x1000", uint64(ev.Access.Addr))
	}
}
