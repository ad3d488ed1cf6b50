// Pareto-front exploration over (metric, cost): evaluate a seeded
// sample on the full trace, compute the cost.Front, then spend the
// remaining budget evaluating one-step neighbours of front members —
// the spots where the cost-effectiveness frontier can still move.
// The front is recomputed over every evaluation so far, so each
// generation's snapshot only ever improves.
package search

import (
	"context"
	"math/rand"
)

func runPareto(ctx context.Context, ev *evaluator, onProgress func(Progress)) (*Result, error) {
	s := ev.spec
	gsize := gridSize(s.Space)
	rng := rand.New(rand.NewSource(s.Seed))
	// seen never holds more than the grid, and Validate bounds the
	// grid but not the budget, so the grid bounds the size hint.
	seen := make(map[string]bool, min(s.Budget, gsize))

	initial := s.Budget / 4
	if initial < 1 {
		initial = 1
	}
	if initial > gsize {
		initial = gsize
	}
	if gsize <= s.Budget {
		// The whole grid fits the budget: exploration can only rediscover
		// enumeration, so skip straight to it.
		initial = gsize
	}
	var pool []candidate
	if initial == gsize {
		pool = enumerate(s.Space)
		for _, c := range pool {
			seen[c.key()] = true
		}
	} else {
		pool = sample(rng, s.Space, initial, seen)
	}

	var full []Eval
	for gen := 0; len(pool) > 0 && ev.evals < s.Budget; gen++ {
		if ev.evals+len(pool) > s.Budget {
			pool = pool[:s.Budget-ev.evals]
		}
		evals, err := ev.evaluate(ctx, pool, 0)
		if err != nil {
			return nil, err
		}
		full = append(full, evals...)
		front := computeFront(s.Metric, full)
		if onProgress != nil {
			onProgress(progressFor(s, gen, ev.evals, 0, full, bestOf(s.Metric, full)))
		}
		// Next generation: unseen one-step moves from the front, walked
		// in front order (ascending cost) then dimension order — a
		// deterministic frontier expansion.
		var next []candidate
		for _, fe := range front {
			for _, nb := range neighbors(candidate(fe.Values), s.Space) {
				k := nb.key()
				if seen[k] {
					continue
				}
				seen[k] = true
				next = append(next, nb)
			}
		}
		if len(next) == 0 && len(seen) < gsize {
			// Frontier closed but grid and budget remain: restart from a
			// fresh seeded sample to escape a local plateau.
			batch := s.Budget - ev.evals
			if batch > initial {
				batch = initial
			}
			next = sample(rng, s.Space, batch, seen)
		}
		pool = next
	}
	return finishResult(ev, full), nil
}
