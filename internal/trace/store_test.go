package trace

import (
	"math/rand"
	"testing"

	"streamsim/internal/mem"
)

// randomAccesses builds a deterministic mixed stream: sequential runs,
// large jumps and all three kinds, the shapes the delta encoder must
// round-trip exactly. Every branch keeps addresses and PCs within
// MaxAddr.
func randomAccesses(n int) []mem.Access {
	rng := rand.New(rand.NewSource(7))
	accs := make([]mem.Access, n)
	var addr, pc [3]uint64
	for i := range accs {
		k := mem.Kind(rng.Intn(3))
		switch rng.Intn(4) {
		case 0: // fresh region
			addr[k] = uint64(rng.Int63()) & uint64(MaxAddr)
			pc[k] = uint64(rng.Int63()) & uint64(MaxAddr)
		case 1: // backward step
			addr[k] -= uint64(rng.Intn(512))
			addr[k] &= uint64(MaxAddr)
		default: // the common case: short forward stride
			addr[k] += uint64(rng.Intn(256))
			addr[k] &= uint64(MaxAddr)
			pc[k] = (pc[k] + 4) & uint64(MaxAddr)
		}
		accs[i] = mem.Access{Addr: mem.Addr(addr[k]), PC: mem.Addr(pc[k]), Kind: k}
	}
	return accs
}

// TestStoreRoundTrip drives the deterministic encode side: appends
// followed by a full decode must reproduce the input byte-for-byte,
// and the instruction counts recorded before, between and after them
// must add up to Instructions.
//
//simlint:deterministic (*streamsim/internal/trace.Store).Append
func TestStoreRoundTrip(t *testing.T) {
	accs := randomAccesses(10000)
	s := NewStore(len(accs))
	insts := uint64(0)
	addInsts := func(n uint64) {
		s.AddInstructions(n)
		insts += n
	}
	addInsts(3)
	for i, a := range accs {
		s.Append(a)
		if i%511 == 0 {
			addInsts(uint64(i + 1))
			addInsts(2)
		}
	}
	addInsts(9)
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if s.Len() != len(accs) {
		t.Fatalf("Len() = %d, want %d", s.Len(), len(accs))
	}
	if got := s.Instructions(); got != insts {
		t.Fatalf("Instructions() = %d, want %d", got, insts)
	}
	// Decode with a deliberately awkward buffer size so batches split
	// at non-aligned points.
	buf := make([]mem.Access, 77)
	it := s.Iter()
	i := 0
	for n := it.Next(buf); n > 0; n = it.Next(buf) {
		for j := 0; j < n; j++ {
			if buf[j] != accs[i] {
				t.Fatalf("access %d: decoded %+v, want %+v", i, buf[j], accs[i])
			}
			i++
		}
	}
	if i != len(accs) {
		t.Fatalf("decoded %d accesses, want %d", i, len(accs))
	}
	if n := it.Next(buf); n != 0 {
		t.Fatalf("exhausted iterator returned %d", n)
	}
}

func TestStoreBatchAppendMatchesScalar(t *testing.T) {
	accs := randomAccesses(3000)
	scalar, batch := NewStore(0), NewStore(len(accs))
	for _, a := range accs {
		scalar.Append(a)
	}
	for i := 0; i < len(accs); i += 100 {
		end := i + 100
		if end > len(accs) {
			end = len(accs)
		}
		batch.AppendBatch(accs[i:end])
	}
	sb, bb := make([]mem.Access, 256), make([]mem.Access, 256)
	si, bi := scalar.Iter(), batch.Iter()
	for {
		ns, nb := si.Next(sb), bi.Next(bb)
		if ns != nb {
			t.Fatalf("batch sizes diverged: %d vs %d", ns, nb)
		}
		if ns == 0 {
			return
		}
		for j := 0; j < ns; j++ {
			if sb[j] != bb[j] {
				t.Fatalf("decoded access diverged: %+v vs %+v", sb[j], bb[j])
			}
		}
	}
}

// TestStoreCompression pins the point of the store: a unit-stride
// dominated trace must encode far below the 24 bytes/ref of a raw
// []mem.Access. The 4 bytes/ref bound is loose (measured workload
// traces sit near 2) so kernel retunes don't trip it spuriously.
func TestStoreCompression(t *testing.T) {
	s := NewStore(0)
	a := mem.Access{Addr: 1 << 24, PC: 1 << 20, Kind: mem.Read}
	const n = 100000
	for i := 0; i < n; i++ {
		s.Append(a)
		a.Addr += 8
		a.PC += 4
		if i%8 == 7 {
			s.Append(mem.Access{Addr: mem.Addr(1<<20 + (i%128)*64), Kind: mem.IFetch})
		}
	}
	perRef := float64(s.Bytes()) / float64(s.Len())
	if perRef > 4 {
		t.Errorf("store averages %.1f bytes/ref on a strided trace; want <= 4 (raw is 24)", perRef)
	}
}

func TestStoreRejectsOversizeAddr(t *testing.T) {
	s := NewStore(0)
	s.Append(mem.Access{Addr: MaxAddr + 1})
	if s.Err() == nil {
		t.Error("address beyond MaxAddr did not set Err")
	}
	s2 := NewStore(0)
	s2.Append(mem.Access{Kind: mem.Kind(9)})
	if s2.Err() == nil {
		t.Error("invalid kind did not set Err")
	}
}

func TestStoreEstimatePreallocHolds(t *testing.T) {
	// With an accurate hint the encoder must not regrow the address
	// stream: storeBytesPerRef covers strided traces.
	s := NewStore(1000)
	capBefore := cap(s.addr)
	a := mem.Access{Addr: 1 << 24, Kind: mem.Read}
	for i := 0; i < 1000; i++ {
		s.Append(a)
		a.Addr += 64
		a.PC += 4
	}
	if cap(s.addr) != capBefore {
		t.Errorf("address stream regrew from %d to %d on a strided trace", capBefore, cap(s.addr))
	}
}

func TestStoreNextPackedMatchesNext(t *testing.T) {
	accs := randomAccesses(5000)
	s := NewStore(len(accs))
	s.AppendBatch(accs)
	full, packed := s.Iter(), s.Iter()
	fb, pb := make([]mem.Access, 77), make([]uint64, 77)
	i := 0
	for {
		nf, np := full.Next(fb), packed.NextPacked(pb)
		if nf != np {
			t.Fatalf("batch sizes diverged at access %d: %d vs %d", i, nf, np)
		}
		if nf == 0 {
			break
		}
		for j := 0; j < nf; j++ {
			want := uint64(fb[j].Addr)<<2 | uint64(fb[j].Kind)
			if pb[j] != want {
				t.Fatalf("access %d: NextPacked decoded %#x, want %#x (addr %#x kind %v)",
					i, pb[j], want, fb[j].Addr, fb[j].Kind)
			}
			i++
		}
	}
	if i != len(accs) {
		t.Fatalf("decoded %d accesses, want %d", i, len(accs))
	}
}
