# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test lint lint-fixtures race fuzz fuzz-smoke bench bench-smoke bench-check bench-update sweep-smoke optimize-smoke paper quick examples serve service-smoke clean

all: build lint test

build:
	$(GO) build ./...

# lint runs go vet plus simlint, the simulator's own invariant checkers
# (see internal/analysis and `go run ./cmd/simlint -list`). Neither has
# a waiver: every finding is fixed where it is reported. Zero allocation
# on the replay path and batch borrowing are not linted: the allocation
# gates (`make test`, `make bench-smoke`) and the poisoned-buffer tests
# hold them.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/simlint ./...

# lint-fixtures runs the analyzers' own test suites: the analysistest
# fixtures under internal/analysis/*/testdata (flagged and allowed code
# for every rule), the driver unit tests, and the static-vs-runtime set
# match at the repo root (deterministic roots vs equivalence gates).
lint-fixtures:
	$(GO) test ./internal/analysis/... ./cmd/simlint
	$(GO) test -run 'TestDetflowStaticMatchesEquivalenceGates' .

test:
	$(GO) test ./...

# race runs the full suite under the race detector.
race:
	$(GO) test -race ./...

# Short fuzz pass over the property surfaces (codec, cache ops) and
# the differential targets of the stream set and the unit filter, which
# check them against naive reference models in their test files.
fuzz:
	$(GO) test -run=Fuzz -fuzz=FuzzReader -fuzztime=30s ./internal/trace/
	$(GO) test -run=Fuzz -fuzz=FuzzRoundTrip -fuzztime=30s ./internal/trace/
	$(GO) test -run=Fuzz -fuzz=FuzzCacheOps -fuzztime=30s ./internal/cache/
	$(GO) test -run=Fuzz -fuzz=FuzzStreamSet -fuzztime=30s ./internal/stream/
	$(GO) test -run=Fuzz -fuzz=FuzzUnitStride -fuzztime=30s ./internal/filter/

# The same at CI scale: 10 seconds per target.
fuzz-smoke:
	$(GO) test -run=Fuzz -fuzz=FuzzReader -fuzztime=10s ./internal/trace/
	$(GO) test -run=Fuzz -fuzz=FuzzRoundTrip -fuzztime=10s ./internal/trace/
	$(GO) test -run=Fuzz -fuzz=FuzzCacheOps -fuzztime=10s ./internal/cache/
	$(GO) test -run=Fuzz -fuzz=FuzzStreamSet -fuzztime=10s ./internal/stream/
	$(GO) test -run=Fuzz -fuzz=FuzzUnitStride -fuzztime=10s ./internal/filter/

bench:
	$(GO) test -bench=. -benchmem .

# Hot-path benchmark regexp shared by the bench-* gates below.
BENCH_HOT = SystemThroughput$$|SystemThroughputBatch$$|TraceReplay$$|TraceReplayScalar$$|ReplayMulti2$$|ReplayMulti8$$|HalvingScratch$$|HalvingIncremental$$|Fork$$|Merge$$|CheckpointRestore$$

# bench-smoke is the CI gate: one iteration per hot-path benchmark,
# three samples each, checked against the committed baseline
# (BENCH_after.json) by cmd/benchrun. Allocation regressions fail on
# any machine; timing regressions >20% fail only where the sample is
# long enough to trust and the CPU matches the baseline's (see
# cmd/benchrun docs). benchrun keeps each benchmark's lowest allocs/op
# across the samples: a real per-op allocation shows in every one,
# while a stray runtime allocation in a one-iteration sample does not.
bench-smoke:
	$(GO) run ./cmd/benchrun -bench '$(BENCH_HOT)' -benchtime 1x -count 3 -baseline BENCH_after.json

# bench-check is the same gate with real timings, for same-machine use
# before sending a performance-sensitive change.
bench-check:
	$(GO) run ./cmd/benchrun -bench '$(BENCH_HOT)' -benchtime 2s -count 3 -baseline BENCH_after.json

# bench-update refreshes the committed baseline on this machine.
bench-update:
	$(GO) run ./cmd/benchrun -bench '$(BENCH_HOT)' -benchtime 2s -count 5 -baseline BENCH_after.json -update

# replay-smoke checks the whole paper pass against its committed
# output, PAPER_GOLDEN, on one worker and on every core. Each artefact
# computes its benchmark rows concurrently and places them by index,
# and every row is one exact sequential replay, so worker width changes
# wall-clock time only; a row appended from a worker, or a model or
# prefetcher shared across benchmarks, shows up here as a diff. A
# change that moves a published number fails here until it regenerates
# the golden (run the first command below with `> $(PAPER_GOLDEN)`),
# so the moved lines show in its diff. The floating-point results are
# pinned for amd64, which CI runs on: Go may fuse a multiply and an add
# into one instruction on other architectures, which can round a
# printed last digit differently.
#
# The cold leg: within one process, every artefact after Table 1
# replays from what earlier artefacts left on the recordings: results
# from the results memo (Tables 2 and 3 replay nothing after Figure 3)
# and L1 fronts from the stored fronts (internal/sweeprun), so no later
# artefact decodes a trace Table 1 recorded or probes an L1 over it.
# Run alone, the same artefact replays live from a cold cache. So every
# ID `paperexp -list` prints runs alone, each in a fresh process, and
# the outputs, joined with one blank line as `-exp all` joins them,
# must equal the golden too: a memo or front hit and a live replay are
# held to the same bytes.
PAPER_GOLDEN = cmd/paperexp/testdata/all-0.1.golden
replay-smoke:
	GOMAXPROCS=1 $(GO) run ./cmd/paperexp -exp all -scale 0.1 > replay-1worker.out
	$(GO) run ./cmd/paperexp -exp all -scale 0.1 > replay-nworker.out
	cmp $(PAPER_GOLDEN) replay-1worker.out
	cmp $(PAPER_GOLDEN) replay-nworker.out
	$(GO) build -o replay-paperexp ./cmd/paperexp
	sep=; for id in $$(./replay-paperexp -list | awk '{print $$1}'); do \
		printf "$$sep"; sep='\n'; \
		./replay-paperexp -exp $$id -scale 0.1 || exit 1; \
	done > replay-alone.out
	cmp $(PAPER_GOLDEN) replay-alone.out
	rm -f replay-1worker.out replay-nworker.out replay-alone.out replay-paperexp

# sweep-smoke checks a sweep against its points run alone: it builds
# cmd/sweep once, runs the 8-value stream-count sweep and a 4-value cpi
# stream-count sweep, then runs each value alone, each in a fresh
# process, and compares the joined data rows of the solo runs with the
# sweep's rows (awk drops the title and header and the column padding,
# which follows the widest value). The cpi leg sweeps the stream count,
# not the depth: mgrid's CPI is the same to the last bit at depths 1, 2
# and 4 (a deeper stream's extra prefetches drain during the allocating
# miss's stall), while 1, 2, 4 and 10 streams print 1.9, 1.8, 1.5 and
# 1.4, so a replay that mixed up its points' models would show. A sweep
# replays its points together through the recording's results memo and
# stored L1 front (sweeprun.Results), and a cpi sweep charges its
# points' timing models together through timing.Replay, the replay the
# extcpi experiment uses, so a diff is a point the shared pass got
# wrong.
SWEEP_SMOKE = ./sweep-smoke-bin -workload mgrid -scale 0.1
SWEEP_ROWS = awk 'NR > 4 { $$1 = $$1; print }'
sweep-smoke:
	$(GO) build -o sweep-smoke-bin ./cmd/sweep
	$(SWEEP_SMOKE) -param streams -values 1,2,3,4,6,8,12,16 > sweep-all.out
	$(SWEEP_ROWS) sweep-all.out > sweep-rows.out
	for v in 1 2 3 4 6 8 12 16; do \
		$(SWEEP_SMOKE) -param streams -values $$v > sweep-one.out || exit 1; \
		$(SWEEP_ROWS) sweep-one.out; \
	done > sweep-solo.out
	cmp sweep-rows.out sweep-solo.out
	$(SWEEP_SMOKE) -metric cpi -param streams -values 1,2,4,10 > sweep-all.out
	$(SWEEP_ROWS) sweep-all.out > sweep-rows.out
	for v in 1 2 4 10; do \
		$(SWEEP_SMOKE) -metric cpi -param streams -values $$v > sweep-one.out || exit 1; \
		$(SWEEP_ROWS) sweep-one.out; \
	done > sweep-solo.out
	cmp sweep-rows.out sweep-solo.out
	rm -f sweep-smoke-bin sweep-all.out sweep-rows.out sweep-one.out sweep-solo.out

# optimize-smoke is the config-space optimizer gate: on a space small
# enough to enumerate, seeded successive halving must converge on the
# same winner the exhaustive grid finds, and a repeated seeded run (at
# a different -parallel width) must be byte-identical.
#
# The incremental legs gate the checkpointed replay layer (DESIGN.md
# §12) on a config whose rung schedule floors (applu's small input is
# an 8-window trace): the checkpointed run must print byte-identical
# results to a -scratch run — extended-rung scores equal from-scratch
# prefix scores — and again at any -parallel width, while its stderr
# replay-cost line reports at least a 2x refs saving and a nonzero
# eval-memo hit count.
#
# The mixed-front legs run a space of four L1 front classes (assoc ×
# victim) with two stream sides each, so every generation replays
# front-class leaders and followers together: halving must print the
# same bytes at -parallel 1 and 3 (which regroup the classes), and the
# checkpointed run must match -scratch (followers resume from their own
# checkpoints).
OPTIMIZE_SMOKE_ARGS = -optimize -workload mgrid -space 'streams=1,2,4,8' -budget 16 -seed 3 -scale 0.1
OPTIMIZE_INCR_ARGS = -optimize -workload applu -space 'streams=1,2,3,4,5,6,8,12,16' -budget 24 -seed 3 -scale 0.05
OPTIMIZE_FRONT_ARGS = -optimize -workload mgrid -space 'assoc=1,4;victim=0,4;streams=2,8' -budget 16 -seed 3 -scale 0.1
optimize-smoke:
	$(GO) run ./cmd/sweep $(OPTIMIZE_SMOKE_ARGS) -strategy grid > optimize-grid.out
	$(GO) run ./cmd/sweep $(OPTIMIZE_SMOKE_ARGS) -strategy halving -parallel 1 > optimize-halving.out
	$(GO) run ./cmd/sweep $(OPTIMIZE_SMOKE_ARGS) -strategy halving -parallel 0 > optimize-again.out
	cmp optimize-halving.out optimize-again.out
	grep '^winner:' optimize-grid.out > optimize-grid.winner
	grep '^winner:' optimize-halving.out > optimize-halving.winner
	cmp optimize-grid.winner optimize-halving.winner
	$(GO) run ./cmd/sweep $(OPTIMIZE_INCR_ARGS) > optimize-incr.out 2> optimize-incr.err
	$(GO) run ./cmd/sweep $(OPTIMIZE_INCR_ARGS) -scratch > optimize-scratch.out 2> /dev/null
	cmp optimize-incr.out optimize-scratch.out
	$(GO) run ./cmd/sweep $(OPTIMIZE_INCR_ARGS) -parallel 0 > optimize-incr-par.out 2> /dev/null
	cmp optimize-incr.out optimize-incr-par.out
	awk '/^refs:/ { if (2*$$3 <= $$5 && $$NF+0 > 0) ok=1 } END { exit !ok }' optimize-incr.err
	$(GO) run ./cmd/sweep $(OPTIMIZE_FRONT_ARGS) -parallel 1 > optimize-front.out 2> /dev/null
	$(GO) run ./cmd/sweep $(OPTIMIZE_FRONT_ARGS) -parallel 3 > optimize-front-par.out 2> /dev/null
	cmp optimize-front.out optimize-front-par.out
	$(GO) run ./cmd/sweep $(OPTIMIZE_FRONT_ARGS) -parallel 1 -scratch > optimize-front-scratch.out 2> /dev/null
	cmp optimize-front.out optimize-front-scratch.out
	rm -f optimize-grid.out optimize-halving.out optimize-again.out optimize-grid.winner optimize-halving.winner \
		optimize-incr.out optimize-incr.err optimize-scratch.out optimize-incr-par.out \
		optimize-front.out optimize-front-par.out optimize-front-scratch.out

# serve runs the simd job-service daemon (SIGINT/SIGTERM drain
# gracefully; see cmd/simd and internal/service).
serve:
	$(GO) run ./cmd/simd -addr :8210

# service-smoke is the end-to-end service gate: an in-process simd
# self-test that checks every experiment's service result is
# byte-identical to the direct in-process run, that a resubmission is
# served from the memoized job store, and that an in-flight job
# cancels promptly.
service-smoke:
	$(GO) run ./cmd/simd -selftest -selftest-scale 0.05

# Regenerate every table and figure of the paper at full scale.
paper:
	$(GO) run ./cmd/paperexp -exp all -time

# The same, at reduced scale for a fast smoke pass.
quick:
	$(GO) run ./cmd/paperexp -exp all -scale 0.1

# examples runs every example program. Their configurations are Go
# literals that core.New validates, so a non-power-of-two size or
# associativity in one makes its program, and this target, fail.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/strided
	$(GO) run ./examples/filtering
	$(GO) run ./examples/cachecompare
	$(GO) run ./examples/timing

clean:
	$(GO) clean ./...
