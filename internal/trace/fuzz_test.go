package trace

import (
	"bytes"
	"io"
	"testing"

	"streamsim/internal/mem"
)

// FuzzReader feeds arbitrary bytes to the decoder: it must never
// panic, and must terminate with io.EOF or a decode error.
func FuzzReader(f *testing.F) {
	// Seed with a valid small trace.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Access(mem.Access{Addr: 0x1000, Kind: mem.Read})
	w.Access(mem.Access{Addr: 0x1040, Kind: mem.Write})
	w.AddInstructions(7)
	if err := w.Flush(); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("STRB\x01\x00"))
	f.Add([]byte("STRB\x01\x00\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"))
	f.Add([]byte("garbage"))

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return // rejected header: fine
		}
		for i := 0; i < 1<<16; i++ { // bound: fuzz inputs are finite anyway
			ev, err := r.Next()
			if err == io.EOF {
				return
			}
			if err != nil {
				return // decode error: fine
			}
			if ev.Insts == 0 && ev.Access.Kind > mem.IFetch {
				t.Fatalf("decoder produced invalid kind %v", ev.Access.Kind)
			}
			if ev.Insts == 0 && ev.Access.Addr > MaxAddr {
				t.Fatalf("decoder produced out-of-range address %#x", uint64(ev.Access.Addr))
			}
		}
	})
}

// FuzzRoundTrip encodes a derived event sequence and checks exact
// reconstruction.
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0xff, 0x00, 0xaa})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Derive a deterministic event list from the fuzz input.
		var want []Event
		var buf bytes.Buffer
		w := NewWriter(&buf)
		var addr uint64 = 1 << 20
		for i, b := range data {
			switch b % 4 {
			case 0:
				addr += uint64(b) * 64
			case 1:
				addr -= uint64(b)
				if int64(addr) < 0 {
					addr = 0
				}
			case 2:
				n := uint64(b) + 1
				w.AddInstructions(n)
				want = append(want, Event{Insts: n})
				continue
			case 3:
				addr = uint64(i) * 977
			}
			a := mem.Access{Addr: mem.Addr(addr) & MaxAddr, Kind: mem.Kind(b % 3)}
			w.Access(a)
			want = append(want, Event{Access: a})
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
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
				t.Fatalf("event %d = %+v, want %+v", i, got, exp)
			}
		}
		if _, err := r.Next(); err != io.EOF {
			t.Fatalf("trailing data: %v", err)
		}
	})
}
