package experiments

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"streamsim/internal/workload"
)

// TestExperimentPreCancelled: a cancelled context aborts every
// experiment before (or promptly after) its first replay batch.
func TestExperimentPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, e := range All() {
		if _, err := e.Run(ctx, quick); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: Run on cancelled ctx = %v, want context.Canceled", e.ID, err)
		}
	}
}

// TestExperimentCancelMidRun cancels an experiment that is actively
// recording and replaying and checks it unwinds promptly rather than
// running to completion: fig3 on the hit-rate fan-out and extcpi on
// the timed one.
func TestExperimentCancelMidRun(t *testing.T) {
	for _, id := range []string{"fig3", "extcpi"} {
		t.Run(id, func(t *testing.T) {
			e, err := Lookup(id)
			if err != nil {
				t.Fatal(err)
			}
			ResetTraceCache()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			go func() {
				time.Sleep(30 * time.Millisecond)
				cancel()
			}()
			start := time.Now()
			if _, err := e.Run(ctx, Options{Scale: 0.5}); !errors.Is(err, context.Canceled) {
				t.Fatalf("%s = %v, want context.Canceled", id, err)
			}
			if d := time.Since(start); d > 10*time.Second {
				t.Errorf("cancelled %s took %v to unwind", id, d)
			}
		})
	}
}

// TestResetTraceCacheConcurrent exercises ResetTraceCache against
// concurrent record() calls; under -race this guards the fix for the
// sync.Map-reassignment data race.
func TestResetTraceCacheConcurrent(t *testing.T) {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := record(context.Background(), "embar", workload.SizeSmall, 0.01); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		ResetTraceCache()
	}
	close(stop)
	wg.Wait()
}
