package workload_test

import (
	"fmt"

	"streamsim/internal/core"
	"streamsim/internal/mem"
	"streamsim/internal/workload"
)

// Example traces one of the paper's benchmarks through the default
// memory system.
func Example() {
	w, err := workload.New("embar", workload.SizeSmall)
	if err != nil {
		panic(err)
	}
	sys, err := core.New(core.DefaultConfig())
	if err != nil {
		panic(err)
	}
	if err := w.Run(sys, 0.1); err != nil {
		panic(err)
	}
	fmt.Printf("%s (%s): stream hit rate %.0f%%\n",
		w.Name, w.Suite, sys.Results().StreamHitRate())
	// Output:
	// embar (NAS): stream hit rate 99%
}

// ExampleCustom builds a user-defined reference mix: two-thirds
// sequential, one-third random.
func ExampleCustom() {
	w, err := workload.Custom(workload.CustomParams{
		Name:            "mymix",
		SequentialShare: 2,
		RandomShare:     1,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println(w.Input)
	// Output:
	// seq 67% / stride 0% / random 33% / resident 0%
}

// ExampleWorkload_Run shows the mem.Sink contract: anything that
// accepts batches of accesses and instruction counts can consume a
// benchmark.
func ExampleWorkload_Run() {
	w, err := workload.New("is", workload.SizeSmall)
	if err != nil {
		panic(err)
	}
	counter := &countingSink{}
	if err := w.Run(counter, 0.02); err != nil {
		panic(err)
	}
	fmt.Println("emitted accesses:", counter.n > 0)
	// Output:
	// emitted accesses: true
}

type countingSink struct{ n int }

func (c *countingSink) AccessBatch(accs []mem.Access) { c.n += len(accs) }
func (c *countingSink) AddInstructions(uint64)        {}
