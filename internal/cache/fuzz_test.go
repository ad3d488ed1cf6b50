package cache

import (
	"testing"
)

// FuzzCacheOps drives an arbitrary operation sequence and checks the
// model's core invariants after every step: a just-accessed block is
// resident, counters balance, and no set ever holds more than assoc
// distinct blocks (checked indirectly by replaying membership).
func FuzzCacheOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 250, 251, 128, 60})
	f.Add([]byte{9, 9, 9, 9})
	f.Fuzz(func(t *testing.T, ops []byte) {
		c, err := New(Config{
			Name: "fuzz", SizeBytes: 2048, Assoc: 2, BlockBytes: 64,
			Replacement: LRU, Write: WriteBack, Alloc: WriteAllocate,
		})
		if err != nil {
			t.Fatal(err)
		}
		resident := map[uint64]bool{} // our belief, updated from results
		for _, op := range ops {
			addr := uint64(op>>1) * 64
			blk := addr / 64
			var res Result
			if op&1 == 0 {
				res = c.Read(addr)
			} else {
				res = c.Write(addr)
			}
			if !res.Sampled {
				t.Fatal("unsampled result without set sampling")
			}
			if res.Hit != resident[blk] {
				t.Fatalf("access %#x hit=%v, believed resident=%v", addr, res.Hit, resident[blk])
			}
			if res.Filled {
				resident[blk] = true
			}
			if res.Evicted {
				if !resident[res.VictimBlock] {
					t.Fatalf("evicted block %#x was not believed resident", res.VictimBlock)
				}
				delete(resident, res.VictimBlock)
			}
			if !c.Contains(addr) {
				t.Fatalf("block %#x absent immediately after access", addr)
			}
		}
		s := c.Stats()
		if s.Hits+s.Misses != s.Accesses {
			t.Fatalf("counter imbalance: %+v", s)
		}
	})
}
