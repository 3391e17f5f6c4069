# pepscale build / test / reproduction targets.

GO ?= go

.PHONY: all check build vet loc lint lint-pepvet lint-extra test test-short bench bench-json bench-smoke bench-e2e bench-quick scale-smoke serve-smoke race chaos chaos-elastic chaos-serve fuzz-short cover examples experiments quick-experiments experiments-check clean

all: build vet test

# check is the pre-merge gate: compile, vet, lint, full tests, the race
# detector over every package, the paper's tables against their golden, the
# streaming-service smoke, and the end-to-end benchmark at its small size
# table (every workload, every query checked against the serial oracle).
check: build vet lint test race experiments-check serve-smoke bench-quick

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

# lint is split in two so CI can run the repo's own analyzers with GitHub
# annotations while the optional third-party linters stay a separate step.
lint: lint-pepvet lint-extra

# lint-pepvet runs the repo's own analyzer suite (cmd/pepvet): six
# checkers (determinism, hotpath, allocflow, ranksafety, clockaudit,
# blockreg) enforcing the invariants documented in DESIGN.md §7. All six
# share one package load and one interprocedural summary computation —
# the call graph, SCC order, and per-function effect summaries are built
# once and cached for the whole suite, so adding a checker costs its walk
# but never a second type-check. PEPVET_FLAGS feeds extra driver flags
# (-json for machine output, -github for CI annotations).
PEPVET_FLAGS ?=
lint-pepvet:
	$(GO) run ./cmd/pepvet $(PEPVET_FLAGS) ./...

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
# whose subject is a schedule: many goroutines demanding tiers of one shared
# fragment index, or entries of one run cache through its lock-free hit path,
# at once (each built once, same pointer for all).
race:
	$(GO) test -race ./...
	$(GO) test -race -count=10 -run 'TestTierConcurrentSingleFlight' ./internal/fragidx/
	$(GO) test -race -count=10 -run 'TestIndexCacheSingleFlight' ./internal/core/

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
# decoders (checkpoint, result/batch wire, membership plan, pepd frames,
# trace JSON reader) must never panic and must only accept canonical blobs
# (internal/wire/wiretest), and the two input parsers (FASTA with its
# boundary-repair splitter, MGF) must never panic and must agree with
# themselves. The minimize budget is capped so a coverage-expanding input
# cannot stall the run.
FUZZTIME ?= 10s
fuzz-short:
	$(GO) test ./internal/ckpt/ -run '^$$' -fuzz FuzzDecode -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/trace/ -run '^$$' -fuzz FuzzReadChrome -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/core/ -run '^$$' -fuzz FuzzDecodeResults -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/core/ -run '^$$' -fuzz FuzzDecodeBatch -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/cluster/ -run '^$$' -fuzz FuzzDecodeMembershipPlan -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/serve/ -run '^$$' -fuzz FuzzDecodeSubmit -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/serve/ -run '^$$' -fuzz FuzzDecodeResult -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/fasta/ -run '^$$' -fuzz FuzzParseFASTA -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/spectrum/ -run '^$$' -fuzz FuzzParseMGF -fuzztime $(FUZZTIME) -fuzzminimizetime 1s

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

# bench-json refreshes the checked-in scoring-kernel baseline. Run on a
# quiet machine; compare against git history before committing.
bench-json:
	{ $(GO) test -bench 'BenchmarkScorers' -benchmem -run '^$$' . ; \
	  $(GO) test -bench 'BenchmarkScanKernel|BenchmarkEngineHostTime|BenchmarkResilient' -run '^$$' ./internal/core/ ; \
	  $(GO) test -bench 'BenchmarkMachineScale' -run '^$$' ./internal/cluster/ ; } \
	  | $(GO) run ./cmd/benchjson -o BENCH_kernel.json

# bench-smoke runs every scan-kernel benchmark for a single iteration: no
# timing signal, but it executes the benchmark fixtures end to end (including
# the fragment-index warm-up scans, their zero-alloc expectations, and the
# cold-index BenchmarkScanKernelFragIdxCold that builds the tiers in the
# loop), so a kernel that panics, diverges, or allocates per candidate fails
# CI without the cost of a timed run.
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
# bit-identity property, the hierarchical comm-time win at p ≥ 1024, and a
# single untimed iteration of the 1024-rank machine benchmark. Catches O(p²)
# regressions in the machine internals that the default-sized tests never
# exercise. The last two lines are allocation guards: one Get+WaitInto per
# rank at p=1024, failing above one allocation per step, and one digest index
# build per block shape, failing above its bytes-per-peptide budget.
scale-smoke:
	$(GO) test -short -count=1 \
		-run 'MachineScale4096|HierarchicalReducesCommTime|HierarchicalCollectivesBitIdentical' \
		./internal/cluster/
	$(GO) test -short -count=1 -run 'AlgoAScale4096' ./internal/core/
	$(GO) test -bench 'BenchmarkMachineScale/p=1024' -benchtime 1x -run '^$$' ./internal/cluster/
	$(GO) test -bench 'BenchmarkTransportStep/p=1024' -benchtime 1x -benchmem -run '^$$' ./internal/cluster/
	$(GO) test -bench 'BenchmarkNewIndex' -benchtime 1x -run '^$$' ./internal/digest/

# serve-smoke runs the streaming-service golden path under the race
# detector — a seeded load test pinning streaming-equals-offline hits and
# byte-identical double-run traces — plus a short pepd CLI run through the
# client wire codec.
serve-smoke:
	$(GO) test -race -count=1 -run 'StreamingMatchesOffline|DoubleRunTrace|SteadyStateIngestAllocs' ./internal/serve/
	$(GO) run ./cmd/pepid -serve -synth-db 200 -synth-queries 8 -serve-duration 0.25 >/dev/null

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
