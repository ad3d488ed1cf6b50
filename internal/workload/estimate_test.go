package workload_test

import (
	"testing"

	"streamsim/internal/trace"
	"streamsim/internal/workload"
)

// TestEstimateRefsMatchesRecording pins EstimateRefs to the kernels:
// for every defined input (the fifteen Table 1 inputs and the other
// size of each Table 4 benchmark) at two reduced scales, the estimate
// may exceed the recorded length by its 1% slack and may never fall
// short of it. The estimate sizes each recording's preallocation and
// weighs each experiment row, so an estimate that ignored the clamp to
// one outer step read 0.20 of fftpde's and trfd's lengths at scale 0.1.
func TestEstimateRefsMatchesRecording(t *testing.T) {
	for _, scale := range []float64{0.03, 0.1} {
		for _, name := range workload.Names() {
			for _, size := range []workload.Size{workload.SizeSmall, workload.SizeLarge} {
				w, err := workload.New(name, size)
				if err != nil {
					continue // the size is not defined for this benchmark
				}
				est := workload.EstimateRefs(name, size, scale)
				st := trace.NewStore(int(est))
				if err := w.Run(st, scale); err != nil {
					t.Fatal(err)
				}
				n := uint64(st.Len())
				if est < n || float64(est) > 1.02*float64(n) {
					t.Errorf("%s-%s at scale %v: estimate %d for %d recorded references (%.2fx)",
						name, size, scale, est, n, float64(est)/float64(n))
				}
			}
		}
	}
}
