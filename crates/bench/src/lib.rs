//! Benchmark harness regenerating every table and figure of the D-KIP
//! paper.
//!
//! Two kinds of targets live here:
//!
//! * **Figure binaries** (`src/bin/fig*.rs`, `table*.rs`) — each prints the
//!   rows/series of one paper artefact using the drivers in
//!   `dkip_sim::experiments`. Run them with, e.g.,
//!   `cargo run -p dkip-bench --release --bin fig09_comparison`.
//!   Every simulating binary (the nine `fig*` paper figures plus
//!   `fig_riscv_ipc`; `table1`/`table2_3` just print static configuration
//!   tables and take no arguments) accepts five optional positional
//!   arguments: the per-benchmark instruction budget, `full` to use the
//!   complete benchmark suite instead of the fast representative subset,
//!   `threads=N` to fix the sweep-runner worker-pool size (default: the
//!   `DKIP_THREADS` environment variable, then the host's available
//!   parallelism), `sample=P:U:W` to regenerate the figure under
//!   sampled simulation at that `period:warmup:window` rate (default:
//!   exact simulation), `metrics=PATH:INTERVAL` to collect an
//!   interval-metrics time series per job alongside the figure (default:
//!   no telemetry), `cache=DIR` to serve/populate the
//!   content-addressed result store at that directory (default: the
//!   `DKIP_CACHE` environment variable, then no caching), and
//!   `expect=cold|warm` to assert the run's cache behaviour (exit 1 when a
//!   `cold` run hits or a `warm` run recomputes — see `make cache-check`).
//!   Malformed arguments exit with status 2 — an explicitly stated budget,
//!   thread count, sampling rate, metrics configuration or cache directory
//!   never falls back silently.
//! * **Telemetry binaries** — `fig_timeseries` runs exactly one
//!   (family, workload) pair with the interval-metrics and/or per-µop
//!   pipeline-trace backends attached (`trace=PATH[:OPS]`, Konata /
//!   O3PipeView format; only meaningful for a single run, so the sweep
//!   binaries reject it), and `trace_check` validates the emitted
//!   artefacts (see `make trace-smoke`).
//! * **Criterion benches** (`benches/`) — component microbenchmarks and one
//!   timed end-to-end simulation per core family.
//!
//! The helper functions here parse the common command-line arguments.

#![warn(missing_docs)]

pub mod throughput;

use dkip_model::{MetricsConfig, SampleConfig, TraceConfig};
use dkip_sim::{ResultStore, SweepRunner, Workload};
use dkip_trace::{Benchmark, Suite};

/// Default per-benchmark instruction budget for the figure binaries.
pub const DEFAULT_BUDGET: u64 = 10_000;

/// Parsed command line of a figure binary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FigureArgs {
    /// Explicit per-benchmark instruction budget, if one was given.
    /// Binaries read it through [`FigureArgs::instr_budget`] so each can
    /// pick its own default (`fig_riscv_ipc` needs a run-to-completion
    /// budget, the synthetic sweeps use [`DEFAULT_BUDGET`]).
    pub budget: Option<u64>,
    /// Whether to run the full 26-benchmark suite.
    pub full_suite: bool,
    /// Explicit worker-pool size (`threads=N`); `None` defers to
    /// `DKIP_THREADS` / the host parallelism via [`SweepRunner::from_env`].
    pub threads: Option<usize>,
    /// Sampled-simulation rate (`sample=P:U:W`); `None` means exact
    /// simulation. [`FigureArgs::runner`] applies it to every job.
    pub sample: Option<SampleConfig>,
    /// Interval-metrics collection (`metrics=<path>:<interval>`); `None`
    /// means no telemetry. [`FigureArgs::runner`] applies it to every job,
    /// and each job writes its own time series to the given path with a
    /// per-job tag inserted before the extension.
    pub metrics: Option<MetricsConfig>,
    /// Explicit result-store directory (`cache=DIR`); `None` defers to the
    /// `DKIP_CACHE` environment variable (unset: no caching). With a store
    /// attached, every job of the figure sweep is served from the cache
    /// when present and written back when not.
    pub cache: Option<String>,
    /// Cache-behaviour assertion (`expect=cold|warm`): after the figure is
    /// rendered, [`FigureArgs::finish_cache`] fails the process (exit 1)
    /// if a `cold` run hit the cache or a `warm` run recomputed anything.
    /// Requires a store; `None` asserts nothing.
    pub expect: Option<CacheExpectation>,
}

/// What a figure run asserts about its cache behaviour (`expect=`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheExpectation {
    /// Every cacheable job must be computed (zero hits).
    Cold,
    /// Every cacheable job must be served from the store (zero misses).
    Warm,
}

impl FigureArgs {
    /// Parses `[budget] [full] [threads=N] [sample=P:U:W]
    /// [metrics=PATH:INTERVAL] [cache=DIR] [expect=cold|warm]` from
    /// `std::env::args`, exiting with status 2 on a malformed argument.
    #[must_use]
    pub fn from_env() -> Self {
        match Self::parse(std::env::args().skip(1)) {
            Ok(args) => args,
            Err(message) => {
                eprintln!("{message}");
                std::process::exit(2);
            }
        }
    }

    /// Parses the argument list. Arguments are positional and strict: any
    /// token that is not `full`, `threads=N`, `sample=P:U:W`,
    /// `metrics=PATH:INTERVAL` or an unsigned integer budget is an error — a
    /// mistyped budget must not fall back silently to the default, exactly
    /// as a mistyped `threads=` must not.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the offending argument.
    pub fn parse(args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut budget = None;
        let mut full_suite = false;
        let mut threads = None;
        let mut sample = None;
        let mut metrics = None;
        let mut cache = None;
        let mut expect = None;
        for arg in args {
            if arg == "full" {
                full_suite = true;
            } else if let Some(v) = arg.strip_prefix("threads=") {
                match v.parse::<usize>() {
                    Ok(n) if n > 0 => threads = Some(n),
                    _ => {
                        return Err(format!(
                            "invalid thread count {v:?}: expected threads=N with N >= 1"
                        ))
                    }
                }
            } else if let Some(v) = arg.strip_prefix("sample=") {
                match SampleConfig::parse(v) {
                    Ok(rate) => sample = Some(rate),
                    Err(err) => {
                        return Err(format!(
                            "invalid sampling rate {v:?}: {err} (expected sample=P:U:W)"
                        ))
                    }
                }
            } else if let Some(v) = arg.strip_prefix("metrics=") {
                match MetricsConfig::parse(v) {
                    Ok(cfg) => metrics = Some(cfg),
                    Err(err) => {
                        return Err(format!(
                            "invalid metrics configuration {v:?}: {err} \
                             (expected metrics=PATH:INTERVAL)"
                        ))
                    }
                }
            } else if let Some(v) = arg.strip_prefix("cache=") {
                if v.trim().is_empty() {
                    return Err(
                        "invalid cache=: expected cache=DIR with a non-empty directory".to_owned(),
                    );
                }
                cache = Some(v.trim().to_owned());
            } else if let Some(v) = arg.strip_prefix("expect=") {
                match v {
                    "cold" => expect = Some(CacheExpectation::Cold),
                    "warm" => expect = Some(CacheExpectation::Warm),
                    _ => {
                        return Err(format!(
                            "invalid expectation {v:?}: expected expect=cold or expect=warm"
                        ))
                    }
                }
            } else if arg.starts_with("trace=") {
                // A per-µop pipeline trace of a whole multi-job sweep would
                // interleave meaninglessly; tracing is a single-run affair.
                return Err(
                    "trace= is only supported by fig_timeseries, which runs one \
                     (family, workload) pair"
                        .to_owned(),
                );
            } else {
                match arg.parse::<u64>() {
                    Ok(0) => return Err("invalid budget 0: expected at least 1 instruction".to_owned()),
                    Ok(n) => {
                        if let Some(previous) = budget {
                            return Err(format!(
                                "conflicting budgets {previous} and {n}: pass at most one numeric budget"
                            ));
                        }
                        budget = Some(n);
                    }
                    Err(_) => {
                        return Err(format!(
                            "invalid argument {arg:?}: expected a numeric budget, 'full' or 'threads=N'"
                        ))
                    }
                }
            }
        }
        Ok(FigureArgs {
            budget,
            full_suite,
            threads,
            sample,
            metrics,
            cache,
            expect,
        })
    }

    /// The instruction budget: the explicit positional argument, or
    /// `default` when none was given.
    #[must_use]
    pub fn instr_budget(&self, default: u64) -> u64 {
        self.budget.unwrap_or(default)
    }

    /// The sweep runner selected by the command line / environment, with
    /// the result store attached: an explicit `cache=DIR` wins over the
    /// `DKIP_CACHE` environment variable; neither means no caching. The
    /// runner carries the `sample=` rate and `metrics=` configuration, so
    /// every job of every sweep the figure runs through it is sampled or
    /// probed without the drivers threading either through.
    ///
    /// # Panics
    ///
    /// Exits with status 2 when an explicit `cache=` directory cannot be
    /// created (the strict-knob contract — an explicitly requested store
    /// must not be dropped silently); panics when `DKIP_CACHE` is invalid.
    #[must_use]
    pub fn runner(&self) -> SweepRunner {
        let mut runner = match self.threads {
            Some(n) => SweepRunner::new(n).with_store_opt(ResultStore::from_env()),
            None => SweepRunner::from_env(),
        };
        if let Some(rate) = self.sample {
            runner = runner.with_sample(rate);
        }
        if let Some(metrics) = &self.metrics {
            runner = runner.with_metrics(metrics.clone());
        }
        match &self.cache {
            None => runner,
            Some(dir) => match ResultStore::open(dir) {
                Ok(store) => runner.with_store(store),
                Err(e) => {
                    eprintln!("invalid cache={dir:?}: cannot open store: {e}");
                    std::process::exit(2);
                }
            },
        }
    }

    /// Reports the figure's cache totals and enforces the `expect=`
    /// assertion. Call once after rendering, with the same runner every
    /// sweep of the figure ran through (the attached store's counters are
    /// process-wide, shared across clones).
    ///
    /// Prints a `# cache: …` summary to stderr when a store is attached.
    /// With `expect=cold` the process exits 1 if anything hit the cache;
    /// with `expect=warm` it exits 1 if anything was recomputed. An
    /// `expect=` without a store exits 2 — the assertion would be
    /// meaningless.
    pub fn finish_cache(&self, runner: &SweepRunner) {
        let Some(store) = runner.store() else {
            if self.expect.is_some() {
                eprintln!("expect= requires a result store: pass cache=DIR or set DKIP_CACHE");
                std::process::exit(2);
            }
            return;
        };
        let (hits, misses) = (store.hits(), store.misses());
        eprintln!(
            "# cache: hits={hits} misses={misses} store={}",
            store.root().display()
        );
        match self.expect {
            Some(CacheExpectation::Cold) if hits > 0 => {
                eprintln!("error: expected a cold run but {hits} jobs hit the cache");
                std::process::exit(1);
            }
            Some(CacheExpectation::Warm) if misses > 0 => {
                eprintln!("error: expected a warm run but {misses} jobs were recomputed");
                std::process::exit(1);
            }
            _ => {}
        }
    }

    /// The benchmark list to use for `suite`.
    #[must_use]
    pub fn benchmarks(&self, suite: Suite) -> Vec<Benchmark> {
        if self.full_suite {
            match suite {
                Suite::Int => Benchmark::spec_int(),
                Suite::Fp => Benchmark::spec_fp(),
            }
        } else {
            Benchmark::representative()
                .into_iter()
                .filter(|b| b.suite() == suite)
                .collect()
        }
    }
}

/// Parsed command line of the `fig_timeseries` binary, which runs exactly
/// one (family, workload) pair and is therefore the only target that also
/// accepts a per-µop pipeline trace (`trace=`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimeseriesArgs {
    /// The core family to run ("baseline", "kilo" or "dkip"), at its
    /// paper-default configuration.
    pub family: String,
    /// The workload to run, parsed from its display name
    /// ([`Workload::parse`]).
    pub workload: Workload,
    /// Explicit instruction budget, if one was given.
    pub budget: Option<u64>,
    /// Interval-metrics output (`metrics=<path>:<interval>`). Unlike the
    /// sweep binaries, the path is used exactly as given — one run, one
    /// file, no per-job tag.
    pub metrics: Option<MetricsConfig>,
    /// Pipeline-trace output (`trace=<path>[:<ops>]`), Konata/O3PipeView
    /// format, capped at `ops` traced µops.
    pub trace: Option<TraceConfig>,
}

impl TimeseriesArgs {
    /// Parses `<family> <workload> [budget] [metrics=PATH:INTERVAL]
    /// [trace=PATH[:OPS]]` from `std::env::args`, exiting with status 2 on a
    /// malformed argument.
    #[must_use]
    pub fn from_env() -> Self {
        match Self::parse(std::env::args().skip(1)) {
            Ok(args) => args,
            Err(message) => {
                eprintln!("{message}");
                eprintln!(
                    "usage: fig_timeseries <baseline|kilo|dkip> <workload> \
                     [budget] [metrics=PATH:INTERVAL] [trace=PATH[:OPS]]"
                );
                std::process::exit(2);
            }
        }
    }

    /// Parses the argument list with the same strictness contract as
    /// [`FigureArgs::parse`]: nothing malformed falls back silently.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the offending argument.
    pub fn parse(args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut family = None;
        let mut workload = None;
        let mut budget = None;
        let mut metrics = None;
        let mut trace = None;
        for arg in args {
            if let Some(v) = arg.strip_prefix("metrics=") {
                match MetricsConfig::parse(v) {
                    Ok(cfg) => metrics = Some(cfg),
                    Err(err) => {
                        return Err(format!(
                            "invalid metrics configuration {v:?}: {err} \
                             (expected metrics=PATH:INTERVAL)"
                        ))
                    }
                }
            } else if let Some(v) = arg.strip_prefix("trace=") {
                match TraceConfig::parse(v) {
                    Ok(cfg) => trace = Some(cfg),
                    Err(err) => {
                        return Err(format!(
                            "invalid trace configuration {v:?}: {err} \
                             (expected trace=PATH[:OPS])"
                        ))
                    }
                }
            } else if family.is_none() {
                if !matches!(arg.as_str(), "baseline" | "kilo" | "dkip") {
                    return Err(format!(
                        "unknown family {arg:?}: expected baseline, kilo or dkip"
                    ));
                }
                family = Some(arg);
            } else if workload.is_none() {
                workload = Some(Workload::parse(&arg)?);
            } else if let Ok(n) = arg.parse::<u64>() {
                if n == 0 {
                    return Err("invalid budget 0: expected at least 1 instruction".to_owned());
                }
                if let Some(previous) = budget {
                    return Err(format!(
                        "conflicting budgets {previous} and {n}: pass at most one numeric budget"
                    ));
                }
                budget = Some(n);
            } else {
                return Err(format!(
                    "invalid argument {arg:?}: expected a numeric budget, \
                     metrics=PATH:INTERVAL or trace=PATH[:OPS]"
                ));
            }
        }
        let family = family.ok_or_else(|| "missing family argument".to_owned())?;
        let workload = workload.ok_or_else(|| "missing workload argument".to_owned())?;
        Ok(TimeseriesArgs {
            family,
            workload,
            budget,
            metrics,
            trace,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<FigureArgs, String> {
        FigureArgs::parse(args.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn representative_subset_is_split_by_suite() {
        let args = parse(&[]).unwrap();
        assert!(!args.benchmarks(Suite::Int).is_empty());
        assert!(!args.benchmarks(Suite::Fp).is_empty());
        assert!(args
            .benchmarks(Suite::Int)
            .iter()
            .all(|b| b.suite() == Suite::Int));
    }

    #[test]
    fn full_suite_selects_all_benchmarks() {
        let args = parse(&["full"]).unwrap();
        assert_eq!(args.benchmarks(Suite::Int).len(), 12);
        assert_eq!(args.benchmarks(Suite::Fp).len(), 14);
    }

    #[test]
    fn budget_and_threads_parse_positionally() {
        let args = parse(&["2500", "full", "threads=3"]).unwrap();
        assert_eq!(args.budget, Some(2500));
        assert_eq!(args.instr_budget(DEFAULT_BUDGET), 2500);
        assert!(args.full_suite);
        assert_eq!(args.threads, Some(3));
        assert_eq!(args.runner().threads(), 3);
    }

    #[test]
    fn missing_budget_falls_back_to_the_caller_default() {
        let args = parse(&["full"]).unwrap();
        assert_eq!(args.budget, None);
        assert_eq!(args.instr_budget(DEFAULT_BUDGET), DEFAULT_BUDGET);
        assert_eq!(args.instr_budget(123), 123);
    }

    #[test]
    fn malformed_arguments_are_rejected_not_defaulted() {
        assert!(parse(&["10k"]).unwrap_err().contains("10k"));
        assert!(parse(&["-5"]).is_err(), "negative budgets are malformed");
        assert!(parse(&["threads=0"]).is_err());
        assert!(parse(&["threads=many"]).is_err());
        assert!(parse(&["ful"]).is_err(), "typos must not be ignored");
        assert!(
            parse(&["50000", "5000"])
                .unwrap_err()
                .contains("conflicting"),
            "a second budget must not silently win"
        );
        assert!(
            parse(&["0"]).unwrap_err().contains("budget 0"),
            "a zero budget would print an all-zero figure"
        );
    }

    #[test]
    fn sampling_rates_parse_strictly() {
        let args = parse(&["5000", "sample=20000:2000:4000"]).unwrap();
        let rate = args.sample.expect("rate parsed");
        assert_eq!(rate.to_string(), "20000:2000:4000");
        assert_eq!(parse(&[]).unwrap().sample, None, "exact by default");
        assert!(parse(&["sample="]).is_err());
        assert!(parse(&["sample=fast"]).is_err());
        assert!(
            parse(&["sample=1000:600:600"]).is_err(),
            "warmup + window must fit in the period"
        );
    }

    #[test]
    fn metrics_configurations_parse_strictly() {
        let args = parse(&["metrics=runs/ts.csv:500"]).unwrap();
        let metrics = args.metrics.expect("metrics parsed");
        assert_eq!(metrics.to_string(), "runs/ts.csv:500");
        assert_eq!(parse(&[]).unwrap().metrics, None, "no telemetry by default");
        assert!(parse(&["metrics="]).is_err());
        assert!(parse(&["metrics=ts.csv"]).is_err(), "interval is mandatory");
        assert!(parse(&["metrics=ts.csv:0"]).is_err());
        assert!(parse(&["metrics=:500"]).is_err(), "path must be non-empty");
    }

    #[test]
    fn cache_knobs_parse_strictly() {
        let args = parse(&["cache=target/cc", "expect=warm"]).unwrap();
        assert_eq!(args.cache.as_deref(), Some("target/cc"));
        assert_eq!(args.expect, Some(CacheExpectation::Warm));
        assert_eq!(
            parse(&["expect=cold"]).unwrap().expect,
            Some(CacheExpectation::Cold)
        );
        assert_eq!(parse(&[]).unwrap().cache, None, "no caching by default");
        assert_eq!(parse(&[]).unwrap().expect, None);
        assert!(parse(&["cache="]).is_err());
        assert!(parse(&["cache=  "]).is_err());
        assert!(parse(&["expect=lukewarm"]).is_err());
        assert!(parse(&["expect="]).is_err());
    }

    #[test]
    fn explicit_cache_attaches_a_store_to_the_runner() {
        let dir = std::env::temp_dir().join(format!("dkip-figargs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let args = parse(&[&format!("cache={}", dir.display()), "threads=2"]).unwrap();
        let runner = args.runner();
        assert!(runner.store().is_some());
        assert_eq!(runner.threads(), 2);
        // finish_cache without an expectation only reports; it must not exit.
        args.finish_cache(&runner);
        assert!(
            parse(&["threads=2"]).unwrap().runner().store().is_none()
                || std::env::var("DKIP_CACHE").is_ok()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sample_and_metrics_reach_every_job_through_the_runner() {
        use dkip_model::config::{DkipConfig, MemoryHierarchyConfig};
        use dkip_sim::{Job, Machine};
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

        let sampled = parse(&["sample=10000:1000:1000", "threads=1"])
            .unwrap()
            .runner()
            .run(jobs);
        assert_eq!(sampled[0].sample, Some(SampleConfig::default_rate()));

        let dir = std::env::temp_dir().join(format!("dkip-figargs-probe-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let probed = parse(&[&format!("metrics={}/m.csv:500", dir.display()), "threads=1"])
            .unwrap()
            .runner()
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
        let err = parse(&["trace=out.trace"]).unwrap_err();
        assert!(err.contains("fig_timeseries"), "{err}");
    }

    fn parse_ts(args: &[&str]) -> Result<TimeseriesArgs, String> {
        TimeseriesArgs::parse(args.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn timeseries_args_parse_family_workload_and_knobs() {
        let args = parse_ts(&[
            "dkip",
            "riscv:matmul/8",
            "metrics=ts.csv:250",
            "trace=pipe.trace:5000",
        ])
        .unwrap();
        assert_eq!(args.family, "dkip");
        assert_eq!(args.workload.name(), "riscv:matmul/8");
        assert_eq!(args.budget, None);
        assert_eq!(args.metrics.expect("metrics").to_string(), "ts.csv:250");
        let trace = args.trace.expect("trace");
        assert_eq!(trace.path, "pipe.trace");
        assert_eq!(trace.ops, 5_000);
        let spec = parse_ts(&["baseline", "gcc", "4000"]).unwrap();
        assert_eq!(spec.workload.name(), "gcc");
        assert_eq!(spec.budget, Some(4000));
    }

    #[test]
    fn timeseries_args_are_strict() {
        assert!(parse_ts(&[]).unwrap_err().contains("missing family"));
        assert!(parse_ts(&["dkip"])
            .unwrap_err()
            .contains("missing workload"));
        assert!(parse_ts(&["r10", "gcc"]).unwrap_err().contains("r10"));
        assert!(parse_ts(&["dkip", "gccc"]).unwrap_err().contains("gccc"));
        assert!(parse_ts(&["dkip", "gcc", "0"]).is_err());
        assert!(parse_ts(&["dkip", "gcc", "5", "6"])
            .unwrap_err()
            .contains("conflicting"));
        assert!(parse_ts(&["dkip", "gcc", "trace="]).is_err());
        assert!(parse_ts(&["dkip", "gcc", "trace=t.trace:0"]).is_err());
        assert!(parse_ts(&["dkip", "gcc", "metrics=m.csv"]).is_err());
        assert!(parse_ts(&["dkip", "gcc", "full"])
            .unwrap_err()
            .contains("full"));
    }

    #[test]
    fn explicit_thread_count_overrides_the_environment() {
        let args = parse(&["threads=3"]).unwrap();
        assert_eq!(args.runner().threads(), 3);
        let auto = parse(&[]).unwrap();
        assert!(auto.runner().threads() >= 1);
    }
}
