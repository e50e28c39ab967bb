# Convenience targets wrapping the tier-1 verify and the paper artefacts.
# Mirrored by .github/workflows/ci.yml.

## The paper artefacts, each printed by `dkip-sim fig <name>`.
FIG_BINS = table1 table2_3 fig01 fig02 fig03 fig09 fig10 fig11 fig12 \
           fig13 fig14 riscv

## Scratch directory for the trace-smoke artefacts.
TRACE_SMOKE_DIR = target/trace-smoke

## Scratch directory for the cache-check store and outputs.
CACHE_CHECK_DIR = target/cache-check

## Scratch directory for the chaos-check stores and outputs.
CHAOS_CHECK_DIR = target/chaos-check

.PHONY: build test doc verify lint bench bench-figures golden bless riscv perf perf-smoke perfbench-check trace-smoke cache-check chaos-check fuzz fuzz-smoke sample-check net-lines clean

build:
	cargo build --release

test:
	cargo test -q

## Tier-1 verify: exactly what CI and the ROADMAP run.
verify:
	cargo build --release && cargo test -q

doc:
	cargo doc --no-deps

## Static checks, exactly as the CI lint job runs them.
lint:
	cargo clippy --all-targets -- -D warnings
	cargo fmt --check

## Golden-stats regression checks: compare fresh runs against the pinned
## snapshots in tests/golden/ (incl. the RISC-V kernel sweep), serially and
## on a 4-thread runner (see EXPERIMENTS.md). perf_invariance pins the 1-
## and 8-thread runners; skip_equivalence runs every golden job with the
## event-driven clock on and single-stepped and requires bit-identical
## statistics.
## The last step re-runs golden_stats with the retired knobs exported
## (DKIP_SAMPLE, DKIP_METRICS, DKIP_THREADS, DKIP_CACHE, DKIP_CACHE_SALT,
## DKIP_NO_SKIP, DKIP_FAULTS): the library reads none of them, so the
## snapshots must still match and the scratch directory must stay empty.
## An honoured DKIP_FAULTS=job.panic:1:0 would fail every job.
golden:
	cargo test -q -p dkip --test golden_stats --test determinism --test riscv_frontend --test perf_invariance --test skip_equivalence
	dir=$$(mktemp -d) && \
	DKIP_SAMPLE=1000:100:100 DKIP_METRICS=$$dir/m.csv:500 DKIP_THREADS=3 \
	DKIP_CACHE=$$dir DKIP_CACHE_SALT=x DKIP_NO_SKIP=1 DKIP_FAULTS=job.panic:1:0 \
	cargo test -q -p dkip --test golden_stats && \
	{ test -z "$$(ls -A $$dir)" || { echo "ambient variables wrote files:"; ls $$dir; exit 1; }; } && \
	rmdir $$dir

## Regenerate the golden snapshots after an *intended* behavioural change,
## then review `git diff tests/golden/`.
bless:
	DKIP_BLESS=1 cargo test -q -p dkip --test golden_stats

## Run every RV64IM kernel to completion on all three core families and
## print the per-kernel IPC table.
riscv: build
	./target/release/dkip-sim fig riscv

## Simulator-throughput benches (criterion shim). Set CRITERION_JSON=path
## (or pass `-- --save-baseline NAME`) to persist the measurements as JSON.
bench:
	cargo bench -p dkip-bench

## Simulator-throughput harness: times every core family on Spec and RISC-V
## workloads and writes BENCH_sim_throughput.json (MIPS + cycles/sec per
## family/workload). See EXPERIMENTS.md "Measuring simulator throughput".
perf: build
	./target/release/perf

## Reduced-budget throughput check against the committed baseline
## (ci/perf_baseline.json): fails on a >30% per-family regression, if the
## D-KIP family drops below the absolute MIPS floor, or if the disabled-probe
## host-calibrated figure regresses >2% (the telemetry_overhead= gate).
## Mirrored by the CI perf-smoke job.
perf-smoke: build
	./target/release/perf budget=40000 samples=5 check=ci/perf_baseline.json tolerance=0.30 floor=0.25 telemetry_overhead=ci/perf_baseline.json

## The repository benchmark's own tests plus a short Fig. 9 exact sweep,
## which exits non-zero on a digest disagreement, a failed job or a failed
## check (see perfbench/README.md). Mirrored by the CI perfbench job.
perfbench-check:
	cargo test --release --manifest-path perfbench/Cargo.toml
	cargo run --quiet --release --manifest-path perfbench/Cargo.toml -- \
		--workload fig09-exact --seconds 5 --trace 0

## Telemetry smoke: one kernel per core family with both backends attached
## (interval metrics + O3PipeView pipeline trace, `dkip-sim timeseries`),
## validated by trace_check
## (7-line block schema, monotone per-µop stage timestamps, metrics column
## schema, monotone cycle/committed counters), plus a repeat D-KIP run that
## must be byte-identical. Mirrored by the CI trace-smoke job.
trace-smoke: build
	rm -rf $(TRACE_SMOKE_DIR) && mkdir -p $(TRACE_SMOKE_DIR)
	for fam in baseline kilo dkip; do \
		./target/release/dkip-sim timeseries $$fam riscv:matmul/8 \
			metrics=$(TRACE_SMOKE_DIR)/$$fam.csv:500 \
			trace=$(TRACE_SMOKE_DIR)/$$fam.trace:20000 || exit 1; \
		./target/release/trace_check $(TRACE_SMOKE_DIR)/$$fam.trace \
			metrics=$(TRACE_SMOKE_DIR)/$$fam.csv || exit 1; \
	done
	./target/release/dkip-sim timeseries dkip riscv:matmul/8 \
		metrics=$(TRACE_SMOKE_DIR)/dkip-again.csv:500 \
		trace=$(TRACE_SMOKE_DIR)/dkip-again.trace:20000
	cmp $(TRACE_SMOKE_DIR)/dkip.csv $(TRACE_SMOKE_DIR)/dkip-again.csv
	cmp $(TRACE_SMOKE_DIR)/dkip.trace $(TRACE_SMOKE_DIR)/dkip-again.trace
	@echo "trace-smoke: telemetry validates and is repeat-run byte-identical"

## Result-store acceptance gates, mirrored by the CI cache-check job:
##  1. full golden matrix ("all") cold then warm against one cache=DIR —
##     the warm run must recompute zero jobs (expect=warm exits 1
##     otherwise) and emit byte-identical output (cmp);
##  2. same contract for one figure (fig09);
##  3. a sampling-rate perturbation of that figure and a budget perturbation
##     of a sweep must both miss the populated store (expect=cold).
cache-check: build
	rm -rf $(CACHE_CHECK_DIR) && mkdir -p $(CACHE_CHECK_DIR)
	./target/release/dkip-sim sweep all cache=$(CACHE_CHECK_DIR)/store expect=cold \
		> $(CACHE_CHECK_DIR)/sweep-cold.txt
	./target/release/dkip-sim sweep all cache=$(CACHE_CHECK_DIR)/store expect=warm \
		> $(CACHE_CHECK_DIR)/sweep-warm.txt
	cmp $(CACHE_CHECK_DIR)/sweep-cold.txt $(CACHE_CHECK_DIR)/sweep-warm.txt
	./target/release/dkip-sim fig fig09 budget=2000 cache=$(CACHE_CHECK_DIR)/store expect=cold \
		> $(CACHE_CHECK_DIR)/fig09-cold.txt
	./target/release/dkip-sim fig fig09 budget=2000 cache=$(CACHE_CHECK_DIR)/store expect=warm \
		> $(CACHE_CHECK_DIR)/fig09-warm.txt
	cmp $(CACHE_CHECK_DIR)/fig09-cold.txt $(CACHE_CHECK_DIR)/fig09-warm.txt
	./target/release/dkip-sim fig fig09 budget=2000 sample=1000:100:100 \
		cache=$(CACHE_CHECK_DIR)/store expect=cold > /dev/null
	./target/release/dkip-sim sweep kilo budget=3999 \
		cache=$(CACHE_CHECK_DIR)/store expect=cold > /dev/null
	@echo "cache-check: warm runs recompute nothing and are byte-identical; perturbations miss"

## Chaos campaigns, mirrored by the CI chaos-check job. Fault points are
## armed per sweep via faults=<point>:<rate>:<seed>[,...] (see
## crates/sim/src/chaos.rs), so each CLI invocation below is one sealed
## campaign. The gates:
##  1. the chaos/store integration suites in release mode;
##  2. injected job panics: the sweep survives, records the failures,
##     exits 1 with a summary — and a disarmed re-run over the same store
##     heals to a fully green, fully warm, byte-identical sweep;
##  3. the same panic campaign with retries=1 absorbs the firstK faults
##     in-process and exits green, byte-identical;
##  4. a store whose every write fails degrades to uncached (exit 0,
##     byte-identical stdout, nothing cached — expect=cold proves it);
##  5. a store whose every read fails recomputes everything byte-identically;
##  6. nothing outside the command line arms a fault: with the retired
##     DKIP_FAULTS=job.panic:1:0 exported, a sweep exits 0 byte-identical.
chaos-check: build
	rm -rf $(CHAOS_CHECK_DIR) && mkdir -p $(CHAOS_CHECK_DIR)
	cargo test -q --release -p dkip --test chaos --test store
	./target/release/dkip-sim sweep kilo cache=$(CHAOS_CHECK_DIR)/ref expect=cold \
		> $(CHAOS_CHECK_DIR)/ref.txt
	./target/release/dkip-sim sweep kilo retries=0 faults=job.panic:first2:7 \
		cache=$(CHAOS_CHECK_DIR)/heal > $(CHAOS_CHECK_DIR)/campaign.txt \
		2> $(CHAOS_CHECK_DIR)/campaign.status; \
	test $$? -eq 1 || { echo "chaos-check: the panic campaign must exit 1"; exit 1; }
	grep -q "# sweep failure:" $(CHAOS_CHECK_DIR)/campaign.status || \
		{ echo "chaos-check: no failure summary:"; cat $(CHAOS_CHECK_DIR)/campaign.status; exit 1; }
	./target/release/dkip-sim sweep kilo cache=$(CHAOS_CHECK_DIR)/heal \
		> $(CHAOS_CHECK_DIR)/healed.txt
	cmp $(CHAOS_CHECK_DIR)/healed.txt $(CHAOS_CHECK_DIR)/ref.txt
	./target/release/dkip-sim sweep kilo cache=$(CHAOS_CHECK_DIR)/heal expect=warm \
		> $(CHAOS_CHECK_DIR)/warm.txt
	cmp $(CHAOS_CHECK_DIR)/warm.txt $(CHAOS_CHECK_DIR)/ref.txt
	./target/release/dkip-sim sweep kilo retries=1 faults=job.panic:first2:7 \
		> $(CHAOS_CHECK_DIR)/retried.txt
	cmp $(CHAOS_CHECK_DIR)/retried.txt $(CHAOS_CHECK_DIR)/ref.txt
	./target/release/dkip-sim sweep kilo faults=store.write:1:11 \
		cache=$(CHAOS_CHECK_DIR)/dead-store > $(CHAOS_CHECK_DIR)/degraded.txt
	cmp $(CHAOS_CHECK_DIR)/degraded.txt $(CHAOS_CHECK_DIR)/ref.txt
	./target/release/dkip-sim sweep kilo cache=$(CHAOS_CHECK_DIR)/dead-store expect=cold \
		> /dev/null
	./target/release/dkip-sim sweep kilo faults=store.read:1:13 \
		cache=$(CHAOS_CHECK_DIR)/ref > $(CHAOS_CHECK_DIR)/readfault.txt
	cmp $(CHAOS_CHECK_DIR)/readfault.txt $(CHAOS_CHECK_DIR)/ref.txt
	DKIP_FAULTS=job.panic:1:0 ./target/release/dkip-sim sweep kilo \
		> $(CHAOS_CHECK_DIR)/ambient.txt
	cmp $(CHAOS_CHECK_DIR)/ambient.txt $(CHAOS_CHECK_DIR)/ref.txt
	@echo "chaos-check: faults isolate, degrade caching not correctness, and heal green"

## Sampled-simulation gates: checkpoint round-trips must be bit-identical
## and the sampled IPC estimator must stay inside its error bands (3%
## suite-mean, 10% per-job) against exact simulation on all four golden
## matrices. Release mode: the accuracy suite simulates ~100k-1M
## instructions per job twice. Mirrored by the CI sample-check job.
sample-check:
	cargo test -q --release -p dkip --test checkpoint_roundtrip --test sampled_accuracy

## Differential-fuzz smoke: 200 random RV64IM programs through the emulator
## oracle and all three core families, plus the checked-in corpus replay.
## Mirrored by the CI fuzz-smoke job. Deterministic: the proptest shim seeds
## from the property name, so every run draws the same 200 programs.
fuzz-smoke:
	DKIP_FUZZ_CASES=200 cargo test -q -p dkip --test fuzz_differential --test corpus_replay

## Full fuzz campaign: 1000 programs in release mode (the acceptance bar;
## see EXPERIMENTS.md "Differential fuzzing" for triage and minimization).
fuzz:
	DKIP_FUZZ_CASES=1000 cargo test -q --release -p dkip --test fuzz_differential --test corpus_replay

## Regenerate every table/figure of the paper on stdout.
bench-figures: build
	@for b in $(FIG_BINS); do \
		echo "==== $$b ===="; \
		./target/release/dkip-sim fig $$b || exit 1; \
		echo; \
	done

## Lines added, removed and net since BASE (a git revision; default HEAD,
## i.e. the uncommitted changes), from `git diff --numstat`, split by path:
## library code (crates/*/src, src), tests (tests/, crates/*/tests), docs
## (*.md) and everything else. Tracked files only: `git add` new files
## first. Example: make net-lines BASE=origin/main
BASE ?= HEAD
net-lines:
	@git diff --numstat $(BASE) | awk ' \
		{ add = ($$1 == "-") ? 0 : $$1; del = ($$2 == "-") ? 0 : $$2; path = $$3; \
		  if (path ~ /\.md$$/) kind = "docs"; \
		  else if (path ~ /^tests\// || path ~ /^crates\/[^\/]+\/tests\//) kind = "tests"; \
		  else if (path ~ /^src\// || path ~ /^crates\/[^\/]+\/src\//) kind = "library"; \
		  else kind = "other"; \
		  added[kind] += add; removed[kind] += del } \
		END { n = split("library tests docs other", kinds, " "); \
		  for (i = 1; i <= n; i++) { k = kinds[i]; \
		    printf "%-8s +%d -%d net %d\n", k, added[k], removed[k], added[k] - removed[k] } }'

clean:
	cargo clean
