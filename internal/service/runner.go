// The default job runner: maps a submitted request onto the in-process
// harness — experiments.Lookup(...).Run for paper artefacts,
// sweeprun.Run for parameter sweeps — so service results are computed
// by exactly the code paths the CLI uses.
package service

import (
	"context"
	"errors"
	"fmt"

	"streamsim/internal/experiments"
	"streamsim/internal/search"
	"streamsim/internal/service/api"
	"streamsim/internal/sweeprun"
	"streamsim/internal/tab"
)

// runRequest executes one normalized request under ctx. Job results
// must be byte-identical to the direct in-process run (the golden
// tests diff them), so this root must stay deterministic. Optimizer
// jobs normally route through Server.runJob's progress-streaming path
// instead, but a direct call computes the identical result table.
//
//simlint:deterministic
func runRequest(ctx context.Context, req api.SubmitRequest) (*tab.Table, error) {
	switch {
	case req.Experiment == "" && req.Sweep == nil && req.Optimize == nil:
		return nil, fmt.Errorf("service: request names no job (experiment, sweep or optimize)")
	case (req.Experiment != "" && req.Sweep != nil) || (req.Experiment != "" && req.Optimize != nil) ||
		(req.Sweep != nil && req.Optimize != nil):
		return nil, fmt.Errorf("service: request names more than one job kind")
	case req.Experiment != "":
		e, err := experiments.Lookup(req.Experiment)
		if err != nil {
			return nil, err
		}
		return e.Run(ctx, experiments.Options{Scale: req.Scale})
	case req.Sweep != nil:
		t, _, err := sweeprun.Run(ctx, *req.Sweep)
		return t, err
	default:
		res, err := search.Run(ctx, *req.Optimize)
		if err != nil {
			return nil, err
		}
		return res.Table(), nil
	}
}

// validateRequest rejects malformed requests before they are queued,
// so submissions fail fast with 400 instead of producing failed jobs.
func validateRequest(req api.SubmitRequest) error {
	set := 0
	for _, on := range []bool{req.Experiment != "", req.Sweep != nil, req.Optimize != nil} {
		if on {
			set++
		}
	}
	if set != 1 {
		return fmt.Errorf("exactly one of experiment, sweep and optimize must be set, got %d", set)
	}
	switch {
	case req.Experiment != "":
		if _, err := experiments.Lookup(req.Experiment); err != nil {
			return fmt.Errorf("unknown experiment %q", req.Experiment)
		}
		if !(req.Scale > 0 && req.Scale <= 1) {
			return fmt.Errorf("scale must be in (0, 1], got %g", req.Scale)
		}
		return nil
	case req.Sweep != nil:
		return req.Sweep.Validate()
	default:
		return req.Optimize.Validate()
	}
}

// terminalFor classifies a job error: context cancellation becomes a
// cancelled job, anything else a failed one.
func terminalFor(s *Server, j *job, t *tab.Table, err error) {
	switch {
	case err == nil:
		s.store.markDone(j, t)
	case errors.Is(err, context.Canceled):
		s.store.markCancelled(j)
	default:
		s.store.markFailed(j, err)
	}
}
