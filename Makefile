GO ?= go

# The substrate micro-benchmarks: the sim kernel + MPI messaging building
# blocks every experiment bottoms out in. `make bench` tracks them in
# BENCH_sim.json, the perf trajectory future PRs regress against. The
# BenchmarkSim prefix takes in the barrier/allreduce/alltoall sweeps and
# BenchmarkSimPingPong; that one, the barrier and allreduce sweeps and
# BenchmarkHCA3Sync also report events/op, the deterministic kernel-event
# count next to the noisy ns/op.
# BenchmarkEventQueue prices the kernel's event queue at four heap depths.
# BenchmarkFusedSeries prices a fused SKaMPI-Offset/100 series per ping-pong.
SUBSTRATE_BENCH = BenchmarkSim|BenchmarkHCA3Sync|BenchmarkFusedSeries|BenchmarkLinearFit|BenchmarkSnapshot|BenchmarkDispatch|BenchmarkEventQueue|BenchmarkKernelMemoryPerRank

# Pinned third-party linter versions. CI installs exactly these; locally
# they run only when already on PATH (this repo must build offline).
STATICCHECK_VERSION = 2024.1.1
GOVULNCHECK_VERSION = v1.1.3

.PHONY: all build vet test race fuzz check clean bench bench-smoke lint

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The engine runs simulations concurrently; inside one, the simulator's
# fibers are runtime coroutines the serial dispatch loop resumes one at a
# time on its own goroutine, and the MPI and fault-tolerant sync layers (and
# internal/scale's fiber cross-checks) run on them; cluster and stats feed
# them shared state (disturbed hardware clocks, robust summaries), and
# checkpoint's tests snapshot that state at a session cut, after the fibers
# that wrote it have stopped (no run snapshots one: the sweep ledger keeps
# finished results only);
# fabric is the one package with supervisor goroutines, lease timers and a
# condition-variable queue; its lock discipline is checked only here. All of
# them go under the race detector. CI runs this target and `fuzz`, so these
# two lists are the only ones.
race:
	$(GO) test -race ./internal/sim ./internal/scale ./internal/mpi ./internal/harness ./internal/clocksync ./internal/faults ./internal/cluster ./internal/stats ./internal/checkpoint ./internal/fabric

# Short smoke run of the native fuzz targets (seed corpora always run as
# part of `make test`; this explores beyond them).
fuzz:
	$(GO) test ./internal/sim -run '^$$' -fuzz FuzzEventQueue -fuzztime 10s
	$(GO) test ./internal/cluster -run '^$$' -fuzz FuzzLinkSpecSample -fuzztime 10s
	$(GO) test ./internal/cluster -run '^$$' -fuzz FuzzHWClockDisturbed -fuzztime 10s
	$(GO) test ./internal/cluster -run '^$$' -fuzz FuzzHWClockSegment -fuzztime 10s
	$(GO) test ./internal/clocksync -run '^$$' -fuzz 'FuzzFitOffsetSamples$$' -fuzztime 10s
	$(GO) test ./internal/clocksync -run '^$$' -fuzz FuzzFitOffsetSamplesRobust -fuzztime 10s
	$(GO) test ./internal/analysis -run '^$$' -fuzz FuzzParseDirective -fuzztime 10s
	$(GO) test ./internal/checkpoint -run '^$$' -fuzz FuzzSnapshotDecode -fuzztime 10s
	$(GO) test ./internal/fabric -run '^$$' -fuzz FuzzServeWorker -fuzztime 10s
	$(GO) test ./internal/harness -run '^$$' -fuzz FuzzCacheGet -fuzztime 10s
	$(GO) test ./internal/harness -run '^$$' -fuzz FuzzCacheKey -fuzztime 10s
	$(GO) test ./internal/harness -run '^$$' -fuzz FuzzLedgerLoad -fuzztime 10s
	$(GO) test ./internal/stats -run '^$$' -fuzz FuzzRankSum -fuzztime 10s

# gofmt first (any file it would rewrite fails the target; analyzer
# fixtures under testdata/ are exempt), then the repository's own
# multichecker (determinism, seed flow, allocfree hot path, //synclint:
# grammar), then the pinned third-party linters when available. CI installs
# staticcheck and govulncheck at the pinned versions; offline checkouts skip
# them with a note rather than failing.
lint:
	@unformatted=$$(gofmt -l *.go benchmark cmd examples internal | grep -v '/testdata/' || true); \
	if [ -n "$$unformatted" ]; then \
		echo "lint: gofmt would rewrite:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) run ./cmd/synclint ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not on PATH (CI pins $(STATICCHECK_VERSION)); skipping"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "lint: govulncheck not on PATH (CI pins $(GOVULNCHECK_VERSION)); skipping"; \
	fi

check: build vet lint test race

# Full substrate bench sweep with allocation stats; writes BENCH_sim.json and
# then compares it with the file it replaced (`bench2json OLD NEW`). At one
# sample a side only the exact-repeat units (events/op, switches/op,
# allocs/op) are judged, so a rise there fails the same command that records
# it; ns/op is informational across sittings. Two rows would run only a
# few iterations at 1s, where allocs/op is runtime noise:
# BenchmarkDispatch/serial (a 1M-rank simulation, ~2 s an iteration; 83 to
# 89 across runs) and BenchmarkSimSplit/4096 (~0.3 s; 197237 to 197241).
# They run in a second pass at one fixed count and one CPU; the first pass
# skips them. The count alone does not make SimSplit/4096 repeat: at 10x on
# two CPUs three runs read 197243, 197244, 197243, at 10x on one CPU every
# run reads 197237 (how many goroutines the runtime allocates afresh rather
# than reuses depends on which P runs them).
FIXED_COUNT_N = 10
bench:
	old=$$(mktemp) && trap 'rm -f "$$old"' EXIT && cp BENCH_sim.json "$$old" && \
	{ $(GO) test -run '^$$' -bench '$(SUBSTRATE_BENCH)' -skip '^(BenchmarkDispatch|BenchmarkSimSplit)$$/^(serial|4096)$$' -benchmem -benchtime 1s . && \
	  $(GO) test -run '^$$' -bench '^(BenchmarkDispatch|BenchmarkSimSplit)$$/^(serial|4096)$$' -benchmem -benchtime $(FIXED_COUNT_N)x -cpu 1 . ; } \
		| tee /dev/stderr | $(GO) run ./cmd/bench2json -o BENCH_sim.json && \
	$(GO) run ./cmd/bench2json "$$old" BENCH_sim.json

# One-iteration smoke variant for CI: exercises every substrate bench and
# still emits the BENCH_sim.json artifact, in seconds not minutes. It does
# not compare: at -benchtime 1x the per-op counts include each benchmark's
# set-up (BenchmarkFusedSeries reads 66 allocs/op instead of 0, the
# Allreduce rows 32 events/op instead of 15), so they do not repeat `make
# bench`'s.
bench-smoke:
	$(GO) test -run '^$$' -bench '$(SUBSTRATE_BENCH)' -benchmem -benchtime 1x . \
		| tee /dev/stderr | $(GO) run ./cmd/bench2json -o BENCH_sim.json

clean:
	rm -rf .expcache
	$(GO) clean ./...
