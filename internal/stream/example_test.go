package stream_test

import (
	"fmt"

	"streamsim/internal/mem"
	"streamsim/internal/stream"
)

// Example allocates a unit stream on a miss and shows the following
// blocks hitting, Figure 2's behaviour in five lines.
func Example() {
	set, err := stream.NewSet(mem.DefaultGeometry(), stream.Config{Streams: 4, Depth: 2})
	if err != nil {
		panic(err)
	}
	miss := mem.Addr(100) // block number of an on-chip miss
	fmt.Println("first probe hits:", set.ProbeOutcome(miss).Hit)
	set.AllocateUnit(miss) // prefetch 101, 102
	fmt.Println("next block hits:", set.ProbeOutcome(miss+1).Hit)
	fmt.Println("and the next:", set.ProbeOutcome(miss+2).Hit)
	// Output:
	// first probe hits: false
	// next block hits: true
	// and the next: true
}

// ExampleSet_AllocateStrided shows a non-unit-stride stream: the
// Section 7 detector hands the set a word address and stride.
func ExampleSet_AllocateStrided() {
	geom := mem.DefaultGeometry()
	set, err := stream.NewSet(geom, stream.Config{Streams: 1, Depth: 2})
	if err != nil {
		panic(err)
	}
	const stride = 2048 // words: an 8 KB column walk
	last := mem.Addr(1 << 20)
	set.AllocateStrided(last, stride)
	for i := 1; i <= 3; i++ {
		w := last + mem.Addr(i*stride)
		fmt.Println(set.ProbeOutcome(geom.BlockAddr(w << geom.WordShift())).Hit)
	}
	// Output:
	// true
	// true
	// true
}
