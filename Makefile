# pepscale build / test / reproduction targets.

GO ?= go

.PHONY: all check build vet loc loc-check lint lint-pepvet lint-imports lint-extra test test-short bench bench-json bench-smoke bench-e2e bench-quick scale-smoke serve-smoke race chaos chaos-elastic chaos-serve fuzz-short cover examples experiments quick-experiments experiments-check clean

all: build vet test

# check is the pre-merge gate: compile, vet, lint, the size budget, full tests, the race
# detector over every package, the paper's tables against their golden, the
# streaming-service smoke, the example programs, and the end-to-end benchmark
# at its small size table (every workload, every query checked against the
# serial oracle).
check: build vet lint loc-check test race experiments-check serve-smoke examples bench-quick

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# loc prints the non-test Go lines of every package and their total (analyzer
# corpora under testdata/ excluded) — the unit this round's "smaller" is
# claimed in. CI appends it to the job summary of every PR.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' ! -path './.git/*' | xargs wc -l | \
		awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
		     END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", t }'

# loc-check is the size ratchet: it fails when loc's total exceeds the number
# in the committed .loc-budget, as cover does for .coverage-threshold. A change
# that adds lines raises the budget in its own diff.
loc-check:
	@total=$$($(MAKE) -s --no-print-directory loc | awk '$$2 == "total" { print $$1 }'); \
	budget=$$(cat .loc-budget); \
	echo "loc: $$total non-test lines (budget: $$budget)"; \
	[ "$$total" -le "$$budget" ] || { echo "loc $$total exceeds the $$budget budget in .loc-budget"; exit 1; }

# lint is split so CI can run the repo's own analyzers with GitHub
# annotations while the optional third-party linters stay a separate step.
lint: lint-pepvet lint-imports lint-extra

# lint-pepvet runs the repo's own analyzer suite (cmd/pepvet): five
# checkers (determinism, hotpath, allocflow, ranksafety, clockaudit)
# enforcing the invariants documented in DESIGN.md §7. All five share one
# package load. determinism and allocflow also share one interprocedural
# summary computation — the call graph, SCC order, and per-function effect
# summaries are built once for the suite; clockaudit is a single-writer
# rule (only Rank.charge writes a clock, a Stats counter or the trace log)
# and needs none. Adding a checker costs its walk but never
# a second type-check. PEPVET_FLAGS feeds extra driver flags (-json for
# machine output, -github for CI annotations).
PEPVET_FLAGS ?=
lint-pepvet:
	$(GO) run ./cmd/pepvet $(PEPVET_FLAGS) ./...

# lint-imports keeps the fragment-index builder out of the product: no
# package may import internal/fragidx except the benchmark (bench), which
# times it, and fragidx's own tests.
lint-imports:
	@bad=$$($(GO) list -deps -test -f '{{.ImportPath}}|{{join .Imports " "}}' ./... | \
		awk -F'|' '$$1 !~ /^pepscale\/(bench|internal\/fragidx)([ .]|$$)/ && (" " $$2 " ") ~ / pepscale\/internal\/fragidx / { print $$1 }'); \
	if [ -n "$$bad" ]; then echo "lint: only bench may import internal/fragidx; imported by:"; echo "$$bad"; exit 1; fi

# lint-extra runs staticcheck and govulncheck when they are installed.
# Both are optional locally (the container may not ship them) but CI
# installs and runs both.
lint-extra:
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "lint: staticcheck not installed; skipping"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
	else echo "lint: govulncheck not installed; skipping"; fi

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# race runs every package under the race detector, then repeats the tests
# whose subjects are schedules: many goroutines demanding entries of one run
# cache through its lock-free hit path at once (each built once, same
# pointer for all), every member of an Allgather reading the one result
# the last arriver built, ranks parked at a barrier: woken once each when it
# completes or unwound by a crash, two crashes that must report the least
# failure whichever the host records first, a get's read-only result and its
# allocation-free Wait, every engine and pepd fingerprint, crash lines
# included, byte for byte (under -race every window is fingerprinted at
# Expose, so a write into a fetched block or an exposed buffer fails the Run
# that makes it), goroutines and ranks reading overlapping windows of cold
# digest indexes while the first to reach each mass bucket sorts it, pepd's
# resident scan state: its prepared-fragment tables written by one owner
# rank per Run and a warm batch's allocation budget, and the hit path's
# storage: a top-τ heap allocated once, a warm checkpoint that allocates
# nothing, and one group's stored blob rewritten in place by Put while Get
# copies it, and pepd's delivery stage: a Sink on its own goroutine in
# emission order, the Drain barrier, a Sink panic, and no goroutine left
# after Close.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=10 -run 'TestIndexCacheSingleFlight' ./internal/core/
	$(GO) test -race -count=20 -run 'GatherAndAllgather|CommAllgather|CollectiveWakesLinear|CrashWhileParkedAtBarrier|TwoCrashesOneOutcome|TestRMAGetData|TestWaitAllocs' ./internal/cluster/
	$(GO) test -race -count=20 -run 'TestEngineFingerprints|TestServeFingerprints|TestIndexConcurrentFirstTouch|TestIndexProteinAndSitesEveryPosition|TestRanksShareColdIndex' ./internal/core/ ./internal/serve/ ./internal/digest/
	$(GO) test -race -count=5 -run 'TestPrepTable|TestBackendWarmTableMatchesSerial|TestBackendQuantumAllocBudget|TestCheckpointAllocFree|TestHeapAllocatedOnce|TestStoreConcurrentPutGet' ./internal/core/ ./internal/topk/ ./internal/ckpt/
	$(GO) test -race -count=10 -run 'TestDelivery' ./internal/serve/

# chaos sweeps the fault-injection, checkpoint/restart, and recovery test
# schedules under the race detector: every injected crash, drop, delay, and
# straggler plan must recover to bit-identical hits without hanging.
chaos: chaos-serve
	$(GO) test -race -count=1 -run 'Fault|Crash|Detection|Dropped|Straggler|InjectedDelays|Mailbox|Reset|RunAfterAbort|Wait|Resilient|Recovery' \
		./internal/cluster/ ./internal/core/
	$(GO) test -race -count=1 ./internal/ckpt/

# chaos-serve sweeps the streaming-service chaos schedules under the race
# detector: crashes and block rotations mid-stream must lose no in-flight
# query, answer none twice, keep hits bit-identical to the offline batch,
# and replay to byte-identical traces.
chaos-serve:
	$(GO) test -race -count=1 -run 'Chaos' ./internal/serve/

# chaos-elastic sweeps the elastic-membership schedules under the race
# detector: every join/leave timeline (including the 1024-rank-universe
# join->crash->rejoin cycles), admission/departure/release flow, group
# sub-communicators, and jittered RMA retries must converge on hits
# bit-identical to the static run with byte-identical double-run traces.
chaos-elastic:
	$(GO) test -race -count=1 -run 'Elastic|Membership|Admission|Admit|Group|RetryJitter' \
		./internal/cluster/ ./internal/core/
	$(GO) test -race -count=1 ./internal/placement/

# fuzz-short gives every fuzz target a fixed, CI-sized budget: the codec
# decoders (checkpoint, and the restart decoder held to it, result/batch
# wire, candidate blocks, elastic admission, membership plan, pepd frames,
# sorted sequence image, sortmz boundary tuple) must never panic and must
# only accept canonical blobs (internal/wire/wiretest), the two input
# parsers (FASTA with its boundary-repair splitter, held to its
# byte-at-a-time reference; MGF) must never panic and must agree with
# themselves, and the likelihood model's null-pass bound must reject only
# candidates that Score puts below the floor. The minimize budget is capped
# so a coverage-expanding input cannot stall the run.
FUZZTIME ?= 10s
fuzz-short:
	$(GO) test ./internal/ckpt/ -run '^$$' -fuzz FuzzDecode -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/ckpt/ -run '^$$' -fuzz FuzzRestore -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/core/ -run '^$$' -fuzz FuzzDecodeResults -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/core/ -run '^$$' -fuzz FuzzDecodeBatch -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/core/ -run '^$$' -fuzz FuzzUnmarshalCands -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/core/ -run '^$$' -fuzz FuzzDecodeAdmission -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/cluster/ -run '^$$' -fuzz FuzzDecodeMembershipPlan -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/serve/ -run '^$$' -fuzz FuzzDecodeSubmit -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/serve/ -run '^$$' -fuzz FuzzDecodeResult -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/sortmz/ -run '^$$' -fuzz FuzzUnmarshalSeqs -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/sortmz/ -run '^$$' -fuzz FuzzDecodeBoundary -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/fasta/ -run '^$$' -fuzz FuzzParseFASTA -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/spectrum/ -run '^$$' -fuzz FuzzParseMGF -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/score/ -run '^$$' -fuzz FuzzScorePreparedBound -fuzztime $(FUZZTIME) -fuzzminimizetime 1s

# cover enforces the checked-in statement-coverage floor
# (.coverage-threshold) over the simulation and observability packages.
cover:
	$(GO) test -coverprofile=coverage.out ./internal/cluster/ ./internal/core/ ./internal/trace/
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	min=$$(cat .coverage-threshold); \
	echo "coverage: $$total% of statements (floor: $$min%)"; \
	awk -v t="$$total" -v m="$$min" 'BEGIN { exit !(t+0 >= m+0) }' \
		|| { echo "coverage $$total% is below the $$min% floor"; exit 1; }

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-json refreshes the checked-in kernel baseline: the scorers, the scan
# kernel and engine host time, the virtual machine at scale, and the database
# side of a search (the digest index build per block shape, the FASTA parse
# in MB/s). Run on a quiet machine; compare against git history before
# committing.
bench-json:
	{ $(GO) test -bench 'BenchmarkScorers' -benchmem -run '^$$' . ; \
	  $(GO) test -bench 'BenchmarkScanKernel|BenchmarkEngineHostTime|BenchmarkBackendQuantum' -run '^$$' ./internal/core/ ; \
	  $(GO) test -bench 'BenchmarkMachineScale' -run '^$$' ./internal/cluster/ ; \
	  $(GO) test -bench 'BenchmarkNewIndex' -run '^$$' ./internal/digest/ ; \
	  $(GO) test -bench 'BenchmarkParseBytes' -run '^$$' ./internal/fasta/ ; } \
	  | $(GO) run ./cmd/benchjson -o BENCH_kernel.json

# bench-smoke runs every scan-kernel benchmark for a single iteration: no
# timing signal, but it executes the benchmark fixtures end to end (warm-up
# scans included), so a kernel that panics or diverges fails CI without the
# cost of a timed run.
bench-smoke:
	$(GO) test -bench 'BenchmarkScanKernel' -benchtime 1x -run '^$$' ./internal/core/

# bench-e2e runs the repository benchmark (BENCHMARK.json; see
# bench/README.md): six workloads, an untraced and a traced pass each,
# results and span traces under bench/out/. bench-quick is the same driver
# on the small size table of its tests with one-second runs — no timing
# signal, but every workload runs both passes and every query is checked
# against the serial oracle.
bench-e2e:
	$(GO) run ./bench

bench-quick:
	$(GO) run ./bench -quick -seconds 1

# scale-smoke drives the virtual machine at cluster scale: a full 4096-rank
# run (clean and with an injected crash), the hierarchical-vs-flat
# bit-identity property, the hierarchical comm-time win at p ≥ 1024, at most
# 2p wake-ups of the ranks parked in one 1024-rank barrier, and a
# single untimed iteration of the 1024-rank machine benchmark. Catches O(p²)
# regressions in the machine internals that the default-sized tests never
# exercise. The last two lines are allocation guards: one Get+Wait per
# rank at p=1024, failing above one allocation per step, and one digest index
# build per block shape, failing above its bytes-per-peptide budget.
scale-smoke:
	$(GO) test -short -count=1 \
		-run 'MachineScale4096|HierarchicalReducesCommTime|HierarchicalCollectivesBitIdentical|CollectiveWakesLinear' \
		./internal/cluster/
	$(GO) test -short -count=1 -run 'AlgoAScale4096' ./internal/core/
	$(GO) test -bench 'BenchmarkMachineScale/p=1024' -benchtime 1x -run '^$$' ./internal/cluster/
	$(GO) test -bench 'BenchmarkTransportStep/p=1024' -benchtime 1x -benchmem -run '^$$' ./internal/cluster/
	$(GO) test -bench 'BenchmarkNewIndex' -benchtime 1x -run '^$$' ./internal/digest/

# serve-smoke runs the streaming-service golden path under the race
# detector — a seeded load test pinning streaming-equals-offline hits and
# byte-identical double-run traces — then the live-heap soak guard without
# it (its shadow memory distorts heap sizes), plus a short pepd CLI run
# through the client wire codec and one schedule the CLI must refuse (from
# an empty query pool, so that a regression builds no schedule).
serve-smoke:
	$(GO) test -race -count=1 -run 'StreamingMatchesOffline|DoubleRunTrace|SteadyStateIngestAllocs' ./internal/serve/
	$(GO) test -count=1 -run 'TestServeLiveHeapBounded' -v ./internal/serve/
	$(GO) run ./cmd/pepid -serve -synth-db 200 -synth-queries 8 -serve-duration 0.25 >/dev/null
	$(GO) run ./cmd/pepid -serve -synth-db 200 -synth-queries 0 -serve-duration 1e9 2>&1 | grep -q 'expected arrivals, above'

# examples runs the five example programs end to end (~4 s).
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/metagenome
	$(GO) run ./examples/sortedsearch
	$(GO) run ./examples/quality
	$(GO) run ./examples/fdrsearch

# Regenerate every table and figure of the paper (writes to stdout).
experiments:
	$(GO) run ./cmd/paperbench -scale default -exp all

QUICK_EXPERIMENTS = $(GO) run ./cmd/paperbench -scale quick -exp all
quick-experiments:
	$(QUICK_EXPERIMENTS)

# experiments-check holds every table and figure at quick scale to the
# committed bytes (the virtual clock is exact per seed, so the comparison is
# a plain diff). `make experiments-check UPDATE=1` rewrites the golden for a
# change that means to move a table.
EXPERIMENTS_GOLDEN = internal/experiments/testdata/experiments_quick.txt
experiments-check:
ifdef UPDATE
	$(QUICK_EXPERIMENTS) > $(EXPERIMENTS_GOLDEN)
else
	$(QUICK_EXPERIMENTS) | diff -u $(EXPERIMENTS_GOLDEN) -
endif

clean:
	$(GO) clean ./...
