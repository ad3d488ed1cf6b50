package trace

import (
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"testing"

	"streamsim/internal/mem"
)

// decodeAll drains a StoreIter into a flat access slice.
func decodeAll(it StoreIter, n int) []mem.Access {
	out := make([]mem.Access, 0, n)
	buf := make([]mem.Access, ReplayBatchLen)
	for k := it.Next(buf); k > 0; k = it.Next(buf) {
		out = append(out, buf[:k]...)
	}
	return out
}

// TestStoreWindowIndexSeeks checks the append-time seek index against
// a straight sequential decode: Append must record one mark per full
// window, each mark's offset must be the byte position a sequential
// decode passes at that window boundary, and every IterAtWindow(w)
// must start there and yield exactly the accesses a sequential decode
// delivers from there.
func TestStoreWindowIndexSeeks(t *testing.T) {
	const n = 3*WindowRefs + 1234
	accs := randomAccesses(n)
	s := NewStore(n)
	for _, a := range accs {
		s.Append(a)
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}

	wantWindows := (n + WindowRefs - 1) / WindowRefs
	if got := s.WindowCount(); got != wantWindows {
		t.Fatalf("WindowCount = %d, want %d", got, wantWindows)
	}
	if len(s.marks) != n/WindowRefs {
		t.Fatalf("append recorded %d marks, want %d", len(s.marks), n/WindowRefs)
	}
	offs := make([]int, wantWindows)
	for w := 1; w < wantWindows; w++ {
		offs[w] = s.marks[w-1].pos
	}
	walk := s.Iter()
	win := make([]mem.Access, WindowRefs)
	for w := 1; w < len(offs); w++ {
		walk.Next(win)
		if offs[w] != walk.pos {
			t.Errorf("window %d: mark at byte %d, sequential decode at %d", w, offs[w], walk.pos)
		}
	}

	seq := decodeAll(s.Iter(), n)
	for w := 0; w < wantWindows; w++ {
		it := s.IterAtWindow(w)
		if it.pos != offs[w] {
			t.Errorf("window %d: seek landed at byte %d, want %d", w, it.pos, offs[w])
		}
		got := decodeAll(it, n-w*WindowRefs)
		if want := seq[w*WindowRefs:]; !reflect.DeepEqual(got, want) {
			t.Fatalf("window %d: seeked decode diverges from sequential decode", w)
		}
	}
}

// TestStorePrefixLen checks the closed-form cumulative window length
// against a per-window summation loop, including the clamp at and
// beyond the window count and the zero floor for non-positive w.
func TestStorePrefixLen(t *testing.T) {
	const n = 3*WindowRefs + 1234
	s := NewStore(n)
	for _, a := range randomAccesses(n) {
		s.Append(a)
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	K := s.WindowCount()
	sum := 0
	for w := 0; w <= K; w++ {
		if got := s.PrefixLen(w); got != sum {
			t.Errorf("PrefixLen(%d) = %d, want %d", w, got, sum)
		}
		if w < K {
			sum += min(WindowRefs, n-w*WindowRefs)
		}
	}
	for _, w := range []int{-1, -WindowRefs} {
		if got := s.PrefixLen(w); got != 0 {
			t.Errorf("PrefixLen(%d) = %d, want 0", w, got)
		}
	}
	for _, w := range []int{K, K + 1, K * 10} {
		if got := s.PrefixLen(w); got != n {
			t.Errorf("PrefixLen(%d) = %d, want the full length %d", w, got, n)
		}
	}
}

// TestTimeSamplerWindowsMatchStore pins the boundary agreement window
// seeks and prefix replays rely on: with the paper's parameters, each
// sampler on-phase is exactly one store window, so the sampler's
// window count and the store's seek index describe the same partition.
func TestTimeSamplerWindowsMatchStore(t *testing.T) {
	st := NewStore(0)
	ts, err := NewTimeSampler(st, DefaultOnRefs, DefaultOffRefs)
	if err != nil {
		t.Fatal(err)
	}

	// Three full on/off cycles plus half an on-phase.
	cycle := DefaultOnRefs + DefaultOffRefs
	total := 3*cycle + DefaultOnRefs/2
	buf := make([]mem.Access, 0, ReplayBatchLen)
	a := mem.Access{Addr: 4096, Kind: mem.Read}
	for i := 0; i < total; i++ {
		if buf = append(buf, a); len(buf) == cap(buf) || i == total-1 {
			ts.AccessBatch(buf)
			buf = buf[:0]
		}
		a.Addr += 64
	}

	if got, want := ts.Windows(), uint64(4); got != want {
		t.Errorf("sampler Windows() = %d, want %d", got, want)
	}
	if got, want := ts.Windows(), uint64(st.WindowCount()); got != want {
		t.Errorf("sampler windows %d disagree with store WindowCount %d", got, want)
	}
	if got, want := st.Len(), int(3*DefaultOnRefs+DefaultOnRefs/2); got != want {
		t.Errorf("store holds %d refs, want the on-phase %d", got, want)
	}
}

// TestWriterWindowMarkers round-trips a file long enough to carry
// window markers: the reader must count them, skip them transparently
// and deliver exactly the accesses written.
func TestWriterWindowMarkers(t *testing.T) {
	const n = 2*WindowRefs + 5
	var buf bytes.Buffer
	w := NewWriter(&buf)
	a := mem.Access{Addr: 1 << 20, Kind: mem.Read}
	for i := 0; i < n; i++ {
		w.Access(a)
		a.Addr += 64
	}
	w.AddInstructions(7)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var accs, insts int
	for {
		ev, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if ev.Insts > 0 {
			insts++
		} else {
			accs++
		}
	}
	if accs != n {
		t.Errorf("decoded %d accesses, want %d", accs, n)
	}
	if insts != 1 {
		t.Errorf("decoded %d instruction records, want 1", insts)
	}
	if got, want := r.Windows(), uint64(n/WindowRefs); got != want {
		t.Errorf("Reader.Windows() = %d, want %d", got, want)
	}
}

// TestReaderAcceptsVersion1 pins backwards compatibility: a version 1
// file — no window markers — must decode exactly as before. The test
// writes a short marker-free body and stamps the old version into the
// header.
func TestReaderAcceptsVersion1(t *testing.T) {
	const n = 100
	var buf bytes.Buffer
	w := NewWriter(&buf)
	a := mem.Access{Addr: 1 << 20, Kind: mem.Write}
	for i := 0; i < n; i++ {
		w.Access(a)
		a.Addr += 4
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	binary.LittleEndian.PutUint16(raw[len(Magic):], 1)

	r, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("NewReader rejected a version 1 file: %v", err)
	}
	var accs int
	for {
		if _, err := r.Next(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		accs++
	}
	if accs != n {
		t.Errorf("decoded %d accesses from the v1 file, want %d", accs, n)
	}
	if r.Windows() != 0 {
		t.Errorf("v1 file reported %d windows, want 0", r.Windows())
	}
}
