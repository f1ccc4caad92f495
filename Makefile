# Tier-1 verification for satcell. `make check` is the gate every PR
# must keep green: full build + vet + tests, plus a race-detector pass
# over the packages with concurrent code (the parallel campaign
# generation pipeline and the epoch-share table its drive workers share,
# the sharded aggregation pipeline, the wall-clock relays, the live
# measurement tools and the fault-injection subsystem).

GO ?= go

.PHONY: check build vet fmt test race chaos chaos-stream chaos-campaign flight-drill bench bench-json bench-smoke fsck-suite fuzz-smoke obs-suite scenario-suite streaming-suite vtime-suite deadcode

check: build vet fmt test race

build:
	$(GO) build ./...

# vet covers the bench module too, so a core API change that breaks
# bench/ fails here and not only in CI's bench-smoke job.
vet:
	$(GO) vet ./...
	cd bench && $(GO) vet ./...

# gofmt as a gate: fail (and name the files) when anything is
# unformatted, instead of silently drifting.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# Generation's worker pool lives in internal/dataset, and its drive
# workers share each Starlink model builder's epoch-share table
# (internal/leo); internal/core aggregates every figure through its own
# sharded worker pool. All three must stay race-clean for every Workers
# value, as must the socket-juggling relays, the measurement clients,
# the fault injector/supervisor, and the crash-safe store / trace
# loaders (whose corruption suites stress concurrent-looking file
# lifecycles: checkpoint appends, atomic renames, resumed exports).
# Race instrumentation makes the core calibration gate several times
# slower than its ~1.5 min normal run, so give it headroom beyond go
# test's default 10 min timeout.
race:
	$(GO) test -race -timeout 45m ./internal/dataset/ ./internal/leo/ ./internal/core/ \
		./internal/netem/ ./internal/meas/... ./internal/faults/ \
		./internal/store/ ./internal/trace/ ./internal/obs/ \
		./internal/campaign/

# The obs suite exercises the observability layer under the race
# detector: registry/tracer/logger concurrency, the debug endpoint, the
# flight recorder (span tree round-trips, torn/open-span replay, sampler
# goroutine hygiene), the seed corpora of the FuzzReadJSONL and
# FuzzReplayTelemetry targets (testdata/fuzz), the relay counter
# conservation invariant (bytes in == bytes out + drops) under
# concurrent client sessions, a receiver closing first, a close with
# the TCP pump's FIFO full and a blackout holding it, the pipelined pump
# filling a 100 Mbps x 20 ms bandwidth-delay product, and the zero-alloc
# guard that keeps spans off the per-packet path.
obs-suite:
	$(GO) test -race -v -count=1 ./internal/obs/
	$(GO) test -race -v -count=1 -run 'Relay.*(Counters|Noop|Restart|ReceiverCloses|BandwidthDelay)|ZeroAllocUnderSpan' ./internal/netem/

# The fsck suite exercises the crash-safe dataset store against seeded
# corruption — truncation, bit-flips, torn renames, kill-and-resume —
# the parallel fsck's report at one and four cores, the lenient/strict
# loaders, the trace scanner's reused records, its CSV record reader and
# number parsers against encoding/csv and strconv, its one-pass row
# decoder against the split-then-parse path, the trace writer's
# fixed-precision formatter and row writer against strconv and
# encoding/csv, the writer's and scanner's flat-allocation guards, and
# the fuzz seed corpora of the trace readers and the store's two
# scanners (internal/trace/testdata/fuzz, internal/store/testdata/fuzz),
# all under the race detector.
fsck-suite:
	$(GO) test -race -run 'Fsck|Resume|Corrupt|Lenient|Atomic|Manifest|Reuse|Fixed|RowWriter|Fuzz|Records|ParseFixed|AllocsFlat|FuzzScan' \
		-v -count=1 ./internal/store/ ./internal/trace/

# The chaos suite runs the real measurement tools through relays while
# the fault subsystem blacks out links, kills-and-restarts relays and
# mangles datagrams; every test checks graceful degradation and
# goroutine hygiene under the race detector. It also runs the seed
# corpora of the FuzzParseSpec and FuzzParseIOSpec targets
# (internal/faults/testdata/fuzz); fuzz further with
# `go test -run '^$$' -fuzz FuzzParseSpec -fuzztime 60s ./internal/faults/`.
chaos:
	$(GO) test -race -run 'Chaos|FuzzParse' -v -count=1 ./internal/faults/

# The disk-fault chaos suite streams fault-injected dataset directories
# (scripted read errors, torn renames, ENOSPC) through the degrading
# supervisor: exact-quarantine byte-equivalence against a clean corpus
# minus the poisoned drives, retry healing, strict aborts, mid-stream
# cancellation hygiene and panic fences — under the race detector, at
# the worker counts SATCELL_STREAM_WORKERS selects (CI pins 1 and 4).
chaos-stream:
	$(GO) test -race -run 'Chaos|FaultFS|IOInjector|IOSchedule' -v -count=1 \
		./internal/core/ ./internal/store/ ./internal/faults/

# The campaign chaos suite kills the crash-only supervisor at every
# stage boundary and at seeded mid-stage points, resumes from the
# CAMPAIGN journal and requires byte-identical artifacts vs an
# uninterrupted run; plus watchdog stall-recovery under injected
# write-stalls, panic->quarantine degradation with exit-code-3
# certificates, verify->generate corruption healing, the TELEMETRY
# flight-recorder tests (torn-tail replay, resume stitching, automatic
# stall post-mortems), and the advisory lock/journal crash-safety tests
# — all under the race detector.
chaos-campaign:
	$(GO) test -race -run 'Campaign|Lock|Journal' -v -count=1 -timeout 20m \
		./internal/campaign/ ./internal/store/

# The flight drill runs the real satcell-campaign binary under an
# injected write-stall: the watchdog must trip, an automatic post-mortem
# must land under postmortem/, the retried campaign must still converge
# (exit 0), and the TELEMETRY journal must replay into a flight report.
# CI uploads the journal as a workflow artifact.
flight-drill:
	rm -rf flight-drill-run
	$(GO) run ./cmd/satcell-campaign -out flight-drill-run -scale 0.02 \
		-workers 2 -networks RM,ATT -sample-interval 100ms \
		-stall-window 500ms -iofaults 'write-stall:drive001_*:x2:+2500ms'
	@test -s flight-drill-run/TELEMETRY || { echo "flight-drill: no TELEMETRY journal"; exit 1; }
	@test -n "$$(ls flight-drill-run/postmortem 2>/dev/null)" || { echo "flight-drill: no post-mortem captured"; exit 1; }
	$(GO) run ./cmd/satcell-campaign -out flight-drill-run -report

# The scenario suite exercises the open network catalog and the
# declarative campaign layer: catalog registration/round-trip/builder
# resolution, the built-in seed contract (catalog-built models must
# reproduce the historical per-network streams), scenario parsing and
# validation, subset/custom-network generation, and the fuzz harnesses
# for the -networks / -scenario flag grammars (seed corpus only; use
# `go test -fuzz` for open-ended fuzzing).
scenario-suite:
	$(GO) test -v -count=1 ./internal/channel/ ./internal/networks/
	$(GO) test -v -count=1 -run 'Scenario|ParseNetworks|ParseKind|Fuzz|GenerateCustomNetwork' \
		./internal/dataset/

# The streaming suite locks the sharded analysis pipeline: sketch/
# moments/histogram merge laws, the store scan layer (shard naming,
# MANIFEST-order listing, incremental readers), the pinned render
# digest at workers=1,2,4,8, store-scan determinism across worker
# counts and the 10x-corpus memory bound — plus the root facade, whose
# Figures and Figure run the same worker pool — and the streamed
# generate stage: emission equal to GenerateContext at workers=1,2,4,8,
# the in-flight drive window, the paper-scale heap bound and the test
# windows' aliasing of the drive records — plus the fluid TCP model the
# analysis re-runs per test, held bit for bit to its reference; all
# under the race detector.
streaming-suite:
	$(GO) test -race -v -count=1 -run 'Stream|Window|Fluid' ./internal/dataset/
	$(GO) test -race -v -count=1 -run 'Sketch|Moments|Histogram' ./internal/stats/
	$(GO) test -race -v -count=1 -run 'Shard|Scan' ./internal/store/
	$(GO) test -race -v -count=1 -timeout 30m -run 'Stream|Fig9Columns' ./internal/core/
	$(GO) test -race -count=1 -run 'Facade|WorldEndToEnd|Golden' .

# The vtime suite gates the virtual-time stack under the race detector:
# the vclock scheduler/SimClock semantics (timer cancellation
# generations, tie-break determinism), the emu event heap's edge cases
# and its paths' trace cursor (against Trace.At), every
# fault-supervisor test on both clocks (exact instants on a SimClock,
# Stop racing a running edge on the wall clock), the pacer's
# exact virtual shaping, the paired-run vsession determinism tests
# (-count=2 replays every session twice in one process on top of each
# test's own repeat-run assertions), and the replay goldens (fig10,
# fig11, the MPTCP ablation and a faulted vsession, all run by
# vsession, plus a lossy download pair driven on the kernel directly,
# whose per-second series testutil.GoodputSeries samples),
# paired the same way; then the replay pool: the multipath
# figures byte-identical at 1, 2 and 8 workers, and a replay's panic
# re-raised on the caller; last, the replay kernel's pending-event
# bound and its flat-allocation guards (recycled TCP packets, the
# link's zero-alloc send path), and its receive queues: the kernel's
# sequence-ordered queues against plain slices, TCP's out-of-order
# queue and MPTCP's reassembly (the FuzzReassembly seed corpus in
# internal/mptcp/testdata/fuzz) against map-based references, and the
# flow mux.
vtime-suite:
	$(GO) test -race -v -count=2 ./internal/vclock/ ./internal/vsession/ ./internal/testutil/
	$(GO) test -race -count=2 -run ReplayGolden .
	$(GO) test -race -v -count=1 -run ReplayPoolWorkerInvariant .
	$(GO) test -race -v -count=1 -run ReplayAll ./internal/core/
	$(GO) test -race -v -count=1 -run 'Engine|Supervisor|SimClock|TraceCursor' ./internal/emu/ ./internal/faults/
	$(GO) test -race -v -count=1 -run 'PacerShapesExactly|PacerDroptailExact' ./internal/netem/
	$(GO) test -race -v -count=1 -run 'CampaignVSession' ./internal/campaign/
	$(GO) test -race -v -count=1 -run 'Kernel|AllocsFlat|ZeroAllocs|OutOfOrderQueue|FuzzReassembly|FlowMux' \
		./internal/tcp/ ./internal/emu/ ./internal/mptcp/
	$(GO) test -race -v -count=1 ./internal/seqq/

# fuzz-smoke runs every Fuzz target in the repository, found by grep so
# a new target is picked up, for FUZZTIME each (one `go test -fuzz` per
# target). A target fails when the fuzzer finds a crasher, which it
# writes under the package's testdata/fuzz/ for committing; the run
# goes on through the remaining targets and then names the failures.
# It is outside `make check`: it takes minutes, and what it finds
# depends on the time it is given.
FUZZTIME ?= 10s
fuzz-smoke:
	@failed=""; \
	for hit in $$(grep -rHo --include='*_test.go' '^func Fuzz[A-Za-z0-9_]*' . | sed 's/:func /:/' | sort -u); do \
		dir=$$(dirname "$${hit%%:*}"); name=$${hit##*:}; \
		echo "== $$name ($$dir, $(FUZZTIME))"; \
		(cd "$$dir" && $(GO) test -run '^$$' -fuzz "^$$name\$$" -fuzztime $(FUZZTIME) .) || failed="$$failed $$dir:$$name"; \
	done; \
	if [ -n "$$failed" ]; then echo "fuzz-smoke: failing targets:$$failed"; exit 1; fi

# deadcode lists every top-level declaration under internal/ that no
# shipped code (the facade, cmd/, examples/, bench/, internal/testutil)
# reaches, and fails when it lists any. Tests keep nothing live, except
# that another package's test may keep a method of a live type live (a
# read accessor such as Scheduler.Pending). Code that only tests use is
# deleted, or moved into the test file that uses it as a reference, or
# into internal/testutil when several packages' tests share it. It is
# outside `make check` because it type-checks the standard library from
# source (a few seconds).
deadcode:
	@out="$$($(GO) run ./internal/tools/deadcode 2>&1)"; \
	if [ -n "$$out" ]; then echo "$$out"; exit 1; fi

# bench runs the root package's benchmarks, then the layer probes:
# channel sampling (BenchmarkBest in internal/leo, BenchmarkClassify in
# internal/geo), fluid TCP (BenchmarkFluidTCP in internal/dataset), the
# sketch merge (BenchmarkSketchMerge in internal/stats), the trace scan,
# the replay kernel, and the store's export and fsck.
bench:
	$(GO) test -bench=. -benchmem -run=^$$ . ./internal/leo/ ./internal/geo/ \
		./internal/dataset/ ./internal/stats/ ./internal/trace/ ./internal/tcp/ ./internal/store/

# The benchmark under bench/ is a Go module of its own (it reaches the
# repository's packages through a replace), so `go test ./...` at the
# root never builds it. bench-smoke runs its smoke test (every workload
# once, untraced and traced, at tiny sizes, with its output checks and
# the metric names BENCHMARK.json declares) and its compare-mode tests.
bench-smoke:
	cd bench && $(GO) test -count=1 ./...

# bench-json runs the streaming worker sweep once per count and emits
# BENCH_streaming.json (workers, ns/op, rows/s, speedup vs workers=1,
# peak live heap, shard/row counters) for CI artifacts and the
# EXPERIMENTS.md scaling table.
bench-json:
	BENCH_STREAMING_JSON=BENCH_streaming.json \
		$(GO) test -run TestStreamingBenchJSON -v -count=1 -timeout 30m .
