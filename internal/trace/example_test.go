package trace_test

import (
	"bytes"
	"fmt"

	"streamsim/internal/mem"
	"streamsim/internal/trace"
)

// Example records two references and an instruction count, then
// replays the trace — the round trip cmd/tracegen wraps in files.
func Example() {
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	w.Access(mem.Access{Addr: 0x1000, Kind: mem.Read})
	w.Access(mem.Access{Addr: 0x1040, Kind: mem.Write})
	w.AddInstructions(12)
	if err := w.Flush(); err != nil {
		panic(err)
	}
	r, err := trace.NewReader(&buf)
	if err != nil {
		panic(err)
	}
	for {
		ev, err := r.Next()
		if err != nil {
			break
		}
		if ev.Insts > 0 {
			fmt.Printf("retired %d instructions\n", ev.Insts)
		} else {
			fmt.Println(ev.Access)
		}
	}
	// Output:
	// R 0x1000
	// W 0x1040
	// retired 12 instructions
}

// ExampleTimeSampler applies the paper's 10%-time-sampling discipline
// (scaled down here to 2 on / 8 off).
func ExampleTimeSampler() {
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	s, err := trace.NewTimeSampler(w, 2, 8)
	if err != nil {
		panic(err)
	}
	accs := make([]mem.Access, 20)
	for i := range accs {
		accs[i] = mem.Access{Addr: mem.Addr(i * 64), Kind: mem.Read}
	}
	s.AccessBatch(accs)
	fmt.Printf("kept %d of %d references\n", s.Passed(), s.Passed()+s.Dropped())
	// Output:
	// kept 4 of 20 references
}
