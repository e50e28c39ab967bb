//! Experiment harness for the D-KIP reproduction.
//!
//! This crate knows how to run every experiment of the paper's evaluation
//! section and print the same rows/series the paper reports:
//!
//! * [`Machine`] — one of the three processor families with its
//!   configuration; [`Machine::build`] is the one family dispatch, returning
//!   a `Box<dyn dkip_ooo::Engine>` that every exact, probed and sampled run
//!   simulates on,
//! * [`run_baseline`], [`run_kilo`] and [`run_dkip`] — one-call
//!   synthetic-benchmark wrappers for the three families (re-exported from
//!   the core crates),
//! * [`suite_mean_ipc`] — arithmetic-mean IPC over a benchmark list, the
//!   metric of Figures 1, 2, 9, 10, 11 and 12,
//! * [`experiments`] — one driver function per paper figure/table, each
//!   returning a structured [`report::Series`] collection,
//! * [`workload`] — the [`Workload`] abstraction: a job runs either a
//!   synthetic benchmark or an execution-driven RISC-V kernel from
//!   `dkip-riscv`, both through one `Iterator<Item = MicroOp>` path,
//! * [`runner`] — the parallel sweep runner: an explicit job list fanned out
//!   over a `std::thread::scope` worker pool with deterministic result
//!   ordering,
//! * [`fuzz`] — the differential-fuzzing oracle: checks that a random
//!   RV64IM program commits the same architectural state on the functional
//!   emulator and all three core families, plus the shrinking-lite
//!   minimisers used by `tests/fuzz_differential.rs`,
//! * [`sampled`] — the sampled-simulation mode: detailed windows on one
//!   live engine separated by functionally warmed fast-forward, estimating
//!   whole-run IPC with a confidence interval (opt-in per [`Job`] or per
//!   [`SweepRunner`]; exact mode stays the golden reference),
//! * [`store`] — the persistent content-addressed result store: every
//!   cacheable [`Job`] derives a stable config key, and the runner serves
//!   hits byte-identically instead of re-simulating (the `cache=` option
//!   selects the store directory),
//! * [`chaos`] — deterministic fault injection: a [`chaos::Faults`] plan
//!   (`dkip-sim sweep … faults=SPEC`) that the runner and store carry and
//!   consult at named fault points on their per-job and I/O paths, to
//!   exercise the failure handling; disarmed by default, it costs one
//!   `Option` test,
//! * [`golden`] — golden-snapshot comparison for the regression tests under
//!   `tests/golden/`, with a `DKIP_BLESS=1` regeneration path,
//! * [`suites`] — the pinned job lists behind those snapshots, shared by the
//!   golden-stats and perf-invariance tests,
//! * [`report`] — plain-text table rendering used by `dkip-sim fig` and by
//!   `EXPERIMENTS.md`,
//! * [`cli`] — the `dkip-sim` command line: one strict parser and one
//!   runner builder behind the `fig`, `timeseries` and `sweep` subcommands.
//!
//! The instruction budget per benchmark is a parameter everywhere: the
//! paper simulates 200M instructions per SimPoint, which is far more than
//! needed for the synthetic workloads to reach steady state; the figure
//! default ([`experiments::DEFAULT_BUDGET`]) is ten thousand instructions so
//! that the whole figure set regenerates in seconds.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chaos;
pub mod cli;
pub mod experiments;
pub mod fuzz;
pub mod golden;
pub mod report;
pub mod runner;
pub mod sampled;
pub mod store;
pub mod suites;
pub mod workload;

pub use dkip_core::run_dkip;
pub use dkip_kilo::run_kilo;
pub use dkip_ooo::run_baseline;
pub use runner::{Job, JobFailure, JobResult, Machine, SweepReport, SweepRunner};
pub use sampled::{run_sampled, SampledRun};
pub use store::{ResultStore, ShardSpec, StoredResult, SweepCheckpoint};
pub use workload::{Workload, WorkloadStream};

use dkip_model::config::MemoryHierarchyConfig;
use dkip_model::stats::MeanIpc;
use dkip_model::SimStats;
use dkip_trace::{Benchmark, Suite};

/// A closure-friendly alias for "run this benchmark and give me its stats".
pub type BenchRunner<'a> = dyn Fn(Benchmark) -> SimStats + 'a;

/// Arithmetic-mean IPC over `benchmarks`, running each through `runner`.
///
/// This is the "Average IPC (Arith. Mean)" metric used on the y-axis of the
/// paper's figures.
pub fn suite_mean_ipc(benchmarks: &[Benchmark], runner: &BenchRunner<'_>) -> f64 {
    let mut mean = MeanIpc::new();
    for &bench in benchmarks {
        mean.add(runner(bench).ipc());
    }
    mean.mean()
}

/// The L2 cache sizes (in KB) swept by Figures 11 and 12.
#[must_use]
pub fn figure11_l2_sizes_kb() -> Vec<usize> {
    vec![64, 128, 256, 512, 1024, 2048, 4096]
}

/// The benchmarks a figure runs for `suite`: the whole suite when `full`,
/// otherwise its members of the fast representative subset.
#[must_use]
pub fn figure_benchmarks(suite: Suite, full: bool) -> Vec<Benchmark> {
    match (full, suite) {
        (true, Suite::Int) => Benchmark::spec_int(),
        (true, Suite::Fp) => Benchmark::spec_fp(),
        (false, _) => Benchmark::representative()
            .into_iter()
            .filter(|b| b.suite() == suite)
            .collect(),
    }
}

/// Convenience: the default memory hierarchy of Tables 2/3.
#[must_use]
pub fn default_memory() -> MemoryHierarchyConfig {
    MemoryHierarchyConfig::paper_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dkip_model::config::BaselineConfig;

    #[test]
    fn suite_mean_ipc_averages_over_benchmarks() {
        let benches = [Benchmark::Mesa, Benchmark::Crafty];
        let mean = suite_mean_ipc(&benches, &|b| {
            run_baseline(
                &BaselineConfig::r10_64(),
                &MemoryHierarchyConfig::l1_2(),
                b,
                3_000,
                1,
            )
        });
        assert!(mean > 0.0 && mean <= 4.0);
    }

    #[test]
    fn l2_sweep_matches_the_paper_range() {
        let sizes = figure11_l2_sizes_kb();
        assert_eq!(sizes.first(), Some(&64));
        assert_eq!(sizes.last(), Some(&4096));
        assert_eq!(sizes.len(), 7);
    }

    #[test]
    fn default_budget_is_reasonable() {
        const {
            assert!(experiments::DEFAULT_BUDGET >= 10_000);
            assert!(experiments::RISCV_BUDGET > experiments::DEFAULT_BUDGET);
        }
    }

    #[test]
    fn representative_subset_is_split_by_suite() {
        for suite in [Suite::Int, Suite::Fp] {
            let benchmarks = figure_benchmarks(suite, false);
            assert!(!benchmarks.is_empty());
            assert!(benchmarks.iter().all(|b| b.suite() == suite));
        }
    }

    #[test]
    fn full_suite_selects_all_benchmarks() {
        assert_eq!(figure_benchmarks(Suite::Int, true).len(), 12);
        assert_eq!(figure_benchmarks(Suite::Fp, true).len(), 14);
    }

    // The `dkip-sim` parser (`cli::Options`) and runner builder. Each test
    // parses what a figure, `timeseries` or `sweep` accepts; the refusals go
    // through `cli::run`, so they are exactly what the binary exits 2 on.

    fn fig_options(args: &[&str]) -> Result<cli::Options, String> {
        let args: Vec<String> = args.iter().map(|arg| (*arg).to_owned()).collect();
        cli::Options::parse(&args, cli::FIG_OPTIONS, "fig fig09")
    }

    fn assert_refused(args: &[&str], needle: &str) {
        let message = cli::refusal(args);
        assert!(
            message.contains(needle),
            "{args:?}: {message:?} should mention {needle:?}"
        );
    }

    /// The subjects are positional; the options after them parse in any
    /// order, and the budget is spelled `budget=N`.
    #[test]
    fn budget_and_threads_parse_positionally() {
        for args in [
            ["budget=2500", "full", "threads=3"],
            ["threads=3", "budget=2500", "full"],
        ] {
            let options = fig_options(&args).unwrap();
            assert_eq!(options.budget, Some(2500));
            assert_eq!(options.budget_or(experiments::DEFAULT_BUDGET), 2500);
            assert!(options.full);
            assert_eq!(options.threads, Some(3));
            assert_eq!(options.runner().unwrap().threads(), 3);
        }
        assert_refused(&["fig", "fig09", "2500"], "malformed");
        assert_refused(&["timeseries", "baseline", "gcc", "4000"], "malformed");
    }

    #[test]
    fn missing_budget_falls_back_to_the_caller_default() {
        let options = fig_options(&["full"]).unwrap();
        assert_eq!(options.budget, None);
        assert_eq!(
            options.budget_or(experiments::DEFAULT_BUDGET),
            experiments::DEFAULT_BUDGET
        );
        assert_eq!(options.budget_or(123), 123);
        assert!(!fig_options(&[]).unwrap().full, "the subset by default");
    }

    #[test]
    fn malformed_arguments_are_rejected_not_defaulted() {
        assert_refused(&["fig", "fig09", "budget=10k"], "10k");
        assert_refused(&["fig", "fig09", "budget=-5"], "budget");
        assert_refused(&["fig", "fig09", "threads=0"], "threads");
        assert_refused(&["fig", "fig09", "threads=many"], "threads");
        // Typos must not be ignored.
        assert_refused(&["fig", "fig09", "ful"], "malformed");
        assert_refused(&["fig", "fig09", "full=1"], "malformed");
        // A second value must not silently win.
        assert_refused(&["fig", "fig09", "budget=50000", "budget=5000"], "repeated");
        assert_refused(&["fig", "fig09", "full", "full"], "repeated");
        assert_refused(&["sweep", "kilo", "threads=2", "threads=2"], "repeated");
        // A zero budget would print an all-zero figure.
        assert_refused(&["fig", "fig09", "budget=0"], "budget");
        assert_refused(&["timeseries", "dkip", "gcc", "budget=0"], "budget");
    }

    #[test]
    fn sampling_rates_parse_strictly() {
        let options = fig_options(&["budget=5000", "sample=20000:2000:4000"]).unwrap();
        let rate = options.sample.expect("rate parsed");
        assert_eq!(rate.to_string(), "20000:2000:4000");
        assert_eq!(fig_options(&[]).unwrap().sample, None, "exact by default");
        assert_refused(&["fig", "fig09", "sample="], "sample");
        assert_refused(&["fig", "fig09", "sample=fast"], "sample");
        // Warmup + window must fit in the period.
        assert_refused(&["fig", "fig09", "sample=1000:600:600"], "sample");
    }

    #[test]
    fn metrics_configurations_parse_strictly() {
        let options = fig_options(&["metrics=runs/ts.csv:500"]).unwrap();
        let metrics = options.metrics.expect("metrics parsed");
        assert_eq!(metrics.to_string(), "runs/ts.csv:500");
        assert_eq!(
            fig_options(&[]).unwrap().metrics,
            None,
            "no telemetry by default"
        );
        assert_refused(&["fig", "fig09", "metrics="], "metrics");
        // The interval is mandatory and positive; the path is non-empty.
        assert_refused(&["fig", "fig09", "metrics=ts.csv"], "metrics");
        assert_refused(&["fig", "fig09", "metrics=ts.csv:0"], "metrics");
        assert_refused(&["fig", "fig09", "metrics=:500"], "metrics");
    }

    #[test]
    fn cache_knobs_parse_strictly() {
        let options = fig_options(&["cache=target/cc", "expect=warm"]).unwrap();
        assert_eq!(options.cache.as_deref(), Some("target/cc"));
        assert_eq!(options.expect, Some(cli::Expect::Warm));
        let cold = fig_options(&["cache=target/cc", "expect=cold"]).unwrap();
        assert_eq!(cold.expect, Some(cli::Expect::Cold));
        let defaults = fig_options(&[]).unwrap();
        assert_eq!(defaults.cache, None, "no caching by default");
        assert_eq!(defaults.expect, None);
        assert_refused(&["fig", "fig09", "cache="], "cache");
        assert_refused(&["fig", "fig09", "cache=  "], "cache");
        assert_refused(&["fig", "fig09", "expect=lukewarm"], "expect");
        assert_refused(&["fig", "fig09", "expect="], "expect");
    }

    #[test]
    fn explicit_cache_attaches_a_store_to_the_runner() {
        let dir = std::env::temp_dir().join(format!("dkip-cli-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = format!("cache={}", dir.display());
        let runner = fig_options(&[&cache, "threads=2"])
            .unwrap()
            .runner()
            .unwrap();
        assert!(runner.store().is_some());
        assert_eq!(runner.threads(), 2);
        let runner = fig_options(&["threads=2"]).unwrap().runner().unwrap();
        assert!(runner.store().is_none(), "no store unless cache= names one");
        // An expectation about the cache needs a cache to check.
        assert_refused(&["fig", "fig09", "expect=warm"], "cache=DIR");
        assert_refused(&["sweep", "kilo", "expect=cold"], "cache=DIR");
        // Without an expectation the hit/miss counts are only reported;
        // with one, a cold run must not hit and a warm run must not miss.
        use std::process::ExitCode;
        assert_eq!(cli::check_expect(None, 3, 4), ExitCode::SUCCESS);
        assert_eq!(
            cli::check_expect(Some(cli::Expect::Cold), 0, 4),
            ExitCode::SUCCESS
        );
        assert_eq!(
            cli::check_expect(Some(cli::Expect::Cold), 3, 4),
            ExitCode::FAILURE
        );
        assert_eq!(
            cli::check_expect(Some(cli::Expect::Warm), 3, 0),
            ExitCode::SUCCESS
        );
        assert_eq!(
            cli::check_expect(Some(cli::Expect::Warm), 3, 4),
            ExitCode::FAILURE
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sample_and_metrics_reach_every_job_through_the_runner() {
        use dkip_model::config::DkipConfig;
        use dkip_model::SampleConfig;
        let ambient = || {
            (
                std::env::var_os("DKIP_SAMPLE"),
                std::env::var_os("DKIP_METRICS"),
            )
        };
        let before = ambient();
        let job = Job::new(
            "fig",
            Machine::Dkip(DkipConfig::paper_default()),
            MemoryHierarchyConfig::mem_400(),
            Benchmark::Gcc,
            30_000,
        );
        let jobs = std::slice::from_ref(&job);

        let sampled = fig_options(&["sample=10000:1000:1000", "threads=1"])
            .unwrap()
            .runner()
            .unwrap()
            .run(jobs);
        assert_eq!(sampled[0].sample, Some(SampleConfig::default_rate()));

        let dir = std::env::temp_dir().join(format!("dkip-cli-probe-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let metrics = format!("metrics={}/m.csv:500", dir.display());
        let probed = fig_options(&[&metrics, "threads=1"])
            .unwrap()
            .runner()
            .unwrap()
            .run(jobs);
        assert_eq!(probed[0].sample, None, "metrics= alone stays exact");
        let files: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert_eq!(files.len(), 1, "the probed job writes its metrics file");
        let _ = std::fs::remove_dir_all(&dir);

        assert!(job.sample.is_none() && job.metrics.is_none());
        assert_eq!(
            ambient(),
            before,
            "nothing is published via the environment"
        );
    }

    #[test]
    fn sweep_binaries_reject_pipeline_traces() {
        for args in [
            ["fig", "fig09", "trace=out.trace"],
            ["fig", "riscv", "trace=out.trace"],
            ["sweep", "kilo", "trace=out.trace"],
        ] {
            assert_refused(&args, "does not take");
            assert_refused(&args, "dkip-sim timeseries");
        }
    }

    #[test]
    fn timeseries_args_parse_family_workload_and_knobs() {
        let (machine, workload) = cli::timeseries_subject("dkip", "riscv:matmul/8").unwrap();
        assert_eq!(machine.family(), "dkip");
        assert_eq!(workload.name(), "riscv:matmul/8");
        let args: Vec<String> = ["metrics=ts.csv:250", "trace=pipe.trace:5000"]
            .iter()
            .map(|arg| (*arg).to_owned())
            .collect();
        let options = cli::Options::parse(&args, cli::TIMESERIES_OPTIONS, "timeseries").unwrap();
        assert_eq!(options.budget, None);
        assert_eq!(options.metrics.expect("metrics").to_string(), "ts.csv:250");
        let trace = options.trace.expect("trace");
        assert_eq!(trace.path, "pipe.trace");
        assert_eq!(trace.ops, 5_000);
        let (machine, workload) = cli::timeseries_subject("baseline", "gcc").unwrap();
        assert_eq!(machine.family(), "baseline");
        assert_eq!(workload.name(), "gcc");
        let budget = cli::Options::parse(&["budget=4000".to_owned()], cli::TIMESERIES_OPTIONS, "");
        assert_eq!(budget.unwrap().budget, Some(4000));
    }

    #[test]
    fn timeseries_args_are_strict() {
        assert_refused(&["timeseries"], "family and a workload");
        assert_refused(&["timeseries", "dkip"], "workload");
        assert_refused(&["timeseries", "r10", "gcc", "metrics=m.csv:5"], "r10");
        assert_refused(&["timeseries", "dkip", "gccc", "metrics=m.csv:5"], "gccc");
        assert_refused(&["timeseries", "dkip", "gcc"], "nothing to record");
        assert_refused(
            &["timeseries", "dkip", "gcc", "budget=5", "budget=6"],
            "repeated",
        );
        assert_refused(&["timeseries", "dkip", "gcc", "trace="], "trace");
        assert_refused(&["timeseries", "dkip", "gcc", "trace=t.trace:0"], "trace");
        assert_refused(&["timeseries", "dkip", "gcc", "metrics=m.csv"], "metrics");
        assert_refused(&["timeseries", "dkip", "gcc", "full"], "full");
    }

    /// No environment variable sizes the pool any more: `threads=N` is the
    /// one override, and without it the runner takes the host's parallelism.
    #[test]
    fn explicit_thread_count_overrides_the_environment() {
        let options = fig_options(&["threads=3"]).unwrap();
        assert_eq!(options.runner().unwrap().threads(), 3);
        let auto = fig_options(&[]).unwrap().runner().unwrap();
        assert_eq!(auto.threads(), SweepRunner::host().threads());
        assert!(auto.store().is_none());
    }
}
