package trace

import (
	"testing"

	"streamsim/internal/mem"
)

// decodeFixture is a workload-shaped trace: striding runs per kind
// with interleaved instruction fetches, the byte-length mix the
// decode fast paths must handle.
func decodeFixture(n int) *Store {
	s := NewStore(n)
	a := mem.Access{Addr: 1 << 24, PC: 1 << 20, Kind: mem.Read}
	for i := 0; i < n; i++ {
		switch {
		case i%13 == 0:
			s.Append(mem.Access{Addr: mem.Addr(1<<20 + (i%512)*64), PC: mem.Addr(4096 + i%64*4), Kind: mem.IFetch})
		case i%31 == 0:
			a.Addr += 4096 // occasional long delta
			s.Append(a)
		case i%7 == 0:
			s.Append(mem.Access{Addr: a.Addr + 1<<18, PC: a.PC, Kind: mem.Write})
		default:
			a.Addr += 8
			a.PC += 4
			s.Append(a)
		}
	}
	return s
}

// BenchmarkStoreAppend times the encoder, the cost every first
// recording of an input pays: the decode fixture's accesses re-encoded
// into a store preallocated as recording preallocates one.
func BenchmarkStoreAppend(b *testing.B) {
	src := decodeFixture(1 << 18)
	accs := make([]mem.Access, src.Len())
	it := src.Iter()
	for n := 0; n < len(accs); {
		n += it.Next(accs[n:])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewStore(len(accs))
		s.AppendBatch(accs)
	}
	b.ReportMetric(float64(len(accs))*float64(b.N)/b.Elapsed().Seconds(), "refs/s")
}

func BenchmarkStoreDecode(b *testing.B) {
	s := decodeFixture(1 << 18)
	buf := make([]mem.Access, ReplayBatchLen)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := s.Iter()
		for n := it.Next(buf); n > 0; n = it.Next(buf) {
		}
	}
	b.ReportMetric(float64(s.Len())*float64(b.N)/b.Elapsed().Seconds(), "refs/s")
}
