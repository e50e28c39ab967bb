//! The `dkip-sim` command line — the entry point of the D-KIP reproduction:
//! it prints the paper's tables and figures, dumps the telemetry of one run,
//! and runs golden sweeps against the result store. The binary is a thin
//! shell over [`run`].
//!
//! ```text
//! dkip-sim fig <name> [budget=N] [full] [threads=N] [sample=P:U:W]
//!                     [metrics=PATH:INTERVAL] [cache=DIR] [expect=cold|warm]
//! dkip-sim timeseries <baseline|kilo|dkip> <workload> [budget=N]
//!                     [metrics=PATH:INTERVAL] [trace=PATH[:OPS]]
//! dkip-sim sweep <suite> [budget=N] [threads=N] [cache=DIR] [shard=I/N]
//!                     [expect=cold|warm] [retries=N]
//! ```
//!
//! One grammar serves all three subcommands: the positional subjects, then
//! `key=value` options and the bare word `full`. Each subcommand, and each
//! figure, names the options it takes. An option it does not take, a
//! repeated option, a malformed value or `budget=0` exits 2 with the usage
//! text: nothing stated on the command line falls back silently.
//!
//! * `fig <name>` prints one paper artefact: `table1`, `table2_3`, `fig01`,
//!   `fig02`, `fig03`, `fig09` … `fig14` or `riscv` (every shipped RV64IM
//!   kernel run to completion on R10-64, KILO-1024 and D-KIP-2048).
//!   - `budget=N` is the per-benchmark instruction budget (default
//!     `experiments::DEFAULT_BUDGET`; for `riscv`, `RISCV_BUDGET`, a cap
//!     rather than a length, since each kernel ends at its `ecall`);
//!   - `full` runs the complete 26-benchmark suite instead of the
//!     representative subset (not for `riscv`);
//!   - `threads=N` sizes the worker pool (default: the host's available
//!     parallelism);
//!   - `sample=P:U:W` simulates every job sampled at that
//!     `period:warmup:window` rate (default: exact);
//!   - `metrics=PATH:INTERVAL` writes an interval-metrics time series per
//!     job, with a per-job tag inserted before the extension;
//!   - `cache=DIR` serves and populates the content-addressed result store
//!     in `DIR`, and reports `# cache: hits=… misses=…` on stderr;
//!   - `expect=cold|warm` asserts the cache behaviour: exit 1 when a cold
//!     run hit the store or a warm run recomputed (see `make cache-check`).
//!
//!   `table1` and `table2_3` print static configuration and take no
//!   options.
//! * `timeseries <family> <workload>` runs one (family, workload) pair at
//!   the family's paper-default configuration with the interval-metrics
//!   (`metrics=`, CSV or JSON-lines by extension) and/or per-µop
//!   pipeline-trace (`trace=PATH[:OPS]`, O3PipeView text loadable by
//!   Konata) backends attached. At least one is required, and the paths
//!   are used exactly as given: one run, one file. `budget=` defaults to
//!   `RISCV_BUDGET` for a kernel and `DEFAULT_BUDGET` otherwise.
//! * `sweep <suite>` runs a golden suite, serving cached jobs from
//!   `cache=DIR` and checkpointing per-shard progress (`shard=I/N`, which
//!   needs a store) so an interrupted sweep resumes. Failed jobs (an
//!   isolated panic, a metrics-write error) are retried for up to
//!   `retries=N` extra rounds (default 2) with bounded backoff; jobs still
//!   failing are summarised on stderr and the sweep exits 1, without
//!   discarding the completed work, which is checkpointed and cached.
//!
//! The one environment variable a `dkip-sim` run reads is `DKIP_FAULTS`,
//! which arms the chaos fault points ([`crate::chaos`]).

use std::process::ExitCode;
use std::sync::Mutex;
use std::time::Duration;

use dkip_model::config::{BaselineConfig, DkipConfig, KiloConfig, MemoryHierarchyConfig};
use dkip_model::{MetricsConfig, SampleConfig, Telemetry, TraceConfig};
use dkip_trace::Suite;

use crate::experiments::{self, DEFAULT_BUDGET, RISCV_BUDGET, SEED};
use crate::runner::{results_to_kv, JobFailure};
use crate::store::{ResultStore, ShardSpec, SweepCheckpoint};
use crate::suites::golden_suite_jobs;
use crate::Workload;
use crate::{figure11_l2_sizes_kb, figure_benchmarks, Job, JobResult, Machine, SweepRunner};

/// The usage text printed with every refused command line.
pub const USAGE: &str = "usage: dkip-sim <subcommand> <subjects> [options]
  fig <name> [budget=N] [full] [threads=N] [sample=P:U:W] [metrics=PATH:INTERVAL] [cache=DIR] [expect=cold|warm]
      names: table1 table2_3 fig01 fig02 fig03 fig09 fig10 fig11 fig12 fig13 fig14 riscv
      (table1 and table2_3 take no options; riscv takes no 'full')
  timeseries <baseline|kilo|dkip> <workload> [budget=N] [metrics=PATH:INTERVAL] [trace=PATH[:OPS]]
  sweep <suite> [budget=N] [threads=N] [cache=DIR] [shard=I/N] [expect=cold|warm] [retries=N]
      suites: baseline | kilo | dkip | riscv | all
environment: DKIP_FAULTS (chaos fault points)";

/// The options of the simulating figures.
pub(crate) const FIG_OPTIONS: &[&str] = &[
    "budget", "full", "threads", "sample", "metrics", "cache", "expect",
];
/// `riscv` runs the kernels, not a SPEC suite, so `full` means nothing.
pub(crate) const RISCV_OPTIONS: &[&str] =
    &["budget", "threads", "sample", "metrics", "cache", "expect"];
pub(crate) const TIMESERIES_OPTIONS: &[&str] = &["budget", "metrics", "trace"];
pub(crate) const SWEEP_OPTIONS: &[&str] =
    &["budget", "threads", "cache", "shard", "expect", "retries"];

/// Runs one command line (the arguments after the program name).
///
/// # Errors
///
/// A usage error, refused before any simulation starts; the binary turns
/// it into exit status 2 and [`USAGE`].
pub fn run(args: &[String]) -> Result<ExitCode, String> {
    let (subcommand, args) = args.split_first().ok_or("missing subcommand")?;
    match subcommand.as_str() {
        "fig" => {
            let (name, args) = args.split_first().ok_or("fig requires a figure name")?;
            let figure = FIGURES
                .iter()
                .find(|figure| figure.name == name)
                .ok_or_else(|| format!("unknown figure {name:?}"))?;
            let options = Options::parse(args, figure.options, &format!("fig {name}"))?;
            cmd_fig(figure, &options)
        }
        "timeseries" => match args {
            [family, workload, args @ ..] => cmd_timeseries(
                family,
                workload,
                &Options::parse(args, TIMESERIES_OPTIONS, "timeseries")?,
            ),
            _ => Err("timeseries requires a family and a workload".to_owned()),
        },
        "sweep" => {
            let (suite, args) = args.split_first().ok_or("sweep requires a suite name")?;
            cmd_sweep(suite, &Options::parse(args, SWEEP_OPTIONS, "sweep")?)
        }
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

/// What a run asserts about its cache behaviour (`expect=`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Expect {
    /// Every cacheable job must be computed (zero hits).
    Cold,
    /// Every cacheable job must be served from the store (zero misses).
    Warm,
}

/// The options after a subcommand's subjects; `None` means "not given".
#[derive(Debug, Default)]
pub(crate) struct Options {
    pub(crate) budget: Option<u64>,
    pub(crate) full: bool,
    pub(crate) threads: Option<usize>,
    pub(crate) sample: Option<SampleConfig>,
    pub(crate) metrics: Option<MetricsConfig>,
    pub(crate) trace: Option<TraceConfig>,
    pub(crate) cache: Option<String>,
    pub(crate) expect: Option<Expect>,
    pub(crate) shard: Option<ShardSpec>,
    pub(crate) retries: Option<usize>,
}

impl Options {
    /// Parses `key=value` options and the bare word `full`, accepting each
    /// of the `allowed` keys at most once.
    pub(crate) fn parse(
        args: &[String],
        allowed: &[&str],
        subcommand: &str,
    ) -> Result<Options, String> {
        let mut options = Options::default();
        let mut seen = Vec::new();
        for arg in args {
            let (key, value) = match arg.split_once('=') {
                Some((key, value)) if key != "full" => (key, value),
                None if arg == "full" => ("full", ""),
                _ => {
                    return Err(format!(
                        "malformed argument {arg:?}: expected key=value or full"
                    ))
                }
            };
            if !allowed.contains(&key) {
                let hint = if key == "trace" {
                    " (pipeline traces are recorded by dkip-sim timeseries)"
                } else {
                    ""
                };
                return Err(format!("{subcommand} does not take {arg:?}{hint}"));
            }
            if seen.contains(&key) {
                return Err(format!("repeated option {key:?}"));
            }
            seen.push(key);
            let invalid = |why: &dyn std::fmt::Display| format!("invalid {arg:?}: {why}");
            match key {
                "full" => options.full = true,
                "budget" => {
                    let budget = value.trim().parse().ok().filter(|&n| n > 0);
                    options.budget = Some(budget.ok_or_else(|| invalid(&"expected N >= 1"))?);
                }
                "threads" => {
                    options.threads = Some(
                        SweepRunner::parse_threads(value)
                            .ok_or_else(|| invalid(&"expected N >= 1"))?,
                    )
                }
                "sample" => {
                    options.sample = Some(SampleConfig::parse(value).map_err(|e| invalid(&e))?)
                }
                "metrics" => {
                    options.metrics = Some(MetricsConfig::parse(value).map_err(|e| invalid(&e))?);
                }
                "trace" => {
                    options.trace = Some(TraceConfig::parse(value).map_err(|e| invalid(&e))?)
                }
                "cache" if value.trim().is_empty() => return Err(invalid(&"expected a directory")),
                "cache" => options.cache = Some(value.trim().to_owned()),
                "expect" => {
                    options.expect = Some(match value {
                        "cold" => Expect::Cold,
                        "warm" => Expect::Warm,
                        _ => return Err(invalid(&"expected cold or warm")),
                    });
                }
                "shard" => options.shard = Some(ShardSpec::parse(value)?),
                "retries" => {
                    let retries = value.trim().parse();
                    options.retries = Some(retries.map_err(|_| invalid(&"expected an integer"))?);
                }
                _ => unreachable!("every allowed option is parsed"),
            }
        }
        Ok(options)
    }

    /// The instruction budget: `budget=` when given, otherwise the caller's
    /// `default`.
    pub(crate) fn budget_or(&self, default: u64) -> u64 {
        self.budget.unwrap_or(default)
    }

    /// The sweep runner these options describe: `threads=` workers (default:
    /// the host's parallelism) carrying `sample=` and `metrics=` to every
    /// job, with the `cache=` store attached.
    pub(crate) fn runner(&self) -> Result<SweepRunner, String> {
        let mut runner = self
            .threads
            .map_or_else(SweepRunner::host, SweepRunner::new);
        if let Some(rate) = self.sample {
            runner = runner.with_sample(rate);
        }
        if let Some(metrics) = &self.metrics {
            runner = runner.with_metrics(metrics.clone());
        }
        match &self.cache {
            Some(dir) => match ResultStore::open(dir) {
                Ok(store) => Ok(runner.with_store(store)),
                Err(e) => Err(format!("invalid cache={dir:?}: cannot open store: {e}")),
            },
            None if self.expect.is_some() || self.shard.is_some() => {
                Err("expect= and shard= need a result store: pass cache=DIR".to_owned())
            }
            None => Ok(runner),
        }
    }
}

/// Enforces `expect=`: a cold run must not hit, a warm run must not miss.
pub(crate) fn check_expect(expect: Option<Expect>, hits: u64, misses: u64) -> ExitCode {
    match expect {
        Some(Expect::Cold) if hits > 0 => {
            eprintln!("error: expected a cold run but {hits} jobs hit the cache");
            ExitCode::FAILURE
        }
        Some(Expect::Warm) if misses > 0 => {
            eprintln!("error: expected a warm run but {misses} jobs were recomputed");
            ExitCode::FAILURE
        }
        _ => ExitCode::SUCCESS,
    }
}

/// One `dkip-sim fig` target.
pub(crate) struct Figure {
    pub(crate) name: &'static str,
    /// The options it takes.
    pub(crate) options: &'static [&'static str],
    /// Prints the artefact on stdout, running its sweeps through the runner.
    print: fn(&Options, &SweepRunner),
}

pub(crate) const FIGURES: &[Figure] = &[
    Figure {
        name: "table1",
        options: &[],
        print: |_, _| println!("{}", experiments::table1().render()),
    },
    Figure {
        name: "table2_3",
        options: &[],
        print: |_, _| print_table2_3(),
    },
    Figure {
        name: "fig01",
        options: FIG_OPTIONS,
        print: |o, r| print_window_scaling(Suite::Int, o, r),
    },
    Figure {
        name: "fig02",
        options: FIG_OPTIONS,
        print: |o, r| print_window_scaling(Suite::Fp, o, r),
    },
    Figure {
        name: "fig03",
        options: FIG_OPTIONS,
        print: print_issue_histogram,
    },
    Figure {
        name: "fig09",
        options: FIG_OPTIONS,
        print: |o, r| {
            let int = figure_benchmarks(Suite::Int, o.full);
            let fp = figure_benchmarks(Suite::Fp, o.full);
            let budget = o.budget_or(DEFAULT_BUDGET);
            let fig = experiments::figure9_comparison(&int, &fp, budget, r);
            println!("{}", fig.render());
        },
    },
    Figure {
        name: "fig10",
        options: FIG_OPTIONS,
        print: |o, r| {
            let fp = figure_benchmarks(Suite::Fp, o.full);
            let budget = o.budget_or(DEFAULT_BUDGET);
            let fig = experiments::figure10_scheduler_sweep(&fp, budget, r);
            println!("{}", fig.render());
        },
    },
    Figure {
        name: "fig11",
        options: FIG_OPTIONS,
        print: |o, r| print_cache_sweep(Suite::Int, o, r),
    },
    Figure {
        name: "fig12",
        options: FIG_OPTIONS,
        print: |o, r| print_cache_sweep(Suite::Fp, o, r),
    },
    Figure {
        name: "fig13",
        options: FIG_OPTIONS,
        print: |o, r| print_llib_occupancy(Suite::Int, o, r),
    },
    Figure {
        name: "fig14",
        options: FIG_OPTIONS,
        print: |o, r| print_llib_occupancy(Suite::Fp, o, r),
    },
    Figure {
        name: "riscv",
        options: RISCV_OPTIONS,
        print: |o, r| {
            let runs = experiments::riscv_kernel_runs();
            let fig = experiments::figure_riscv_ipc(&runs, o.budget_or(RISCV_BUDGET), r);
            println!("{}", fig.render());
        },
    },
];

/// Figures 1 and 2: IPC vs instruction-window size under the six Table 1
/// memory subsystems.
fn print_window_scaling(suite: Suite, options: &Options, runner: &SweepRunner) {
    let fig = experiments::figure_window_scaling(
        suite,
        &figure_benchmarks(suite, options.full),
        &BaselineConfig::figure1_window_sizes(),
        options.budget_or(DEFAULT_BUDGET),
        runner,
    );
    println!("{}", fig.render());
}

/// Figure 3: the decode→issue distance distribution on an unbounded
/// processor with 400-cycle memory (SpecFP).
fn print_issue_histogram(options: &Options, runner: &SweepRunner) {
    let hist = experiments::figure3_issue_histogram(
        &figure_benchmarks(Suite::Fp, options.full),
        options.budget_or(DEFAULT_BUDGET),
        runner,
    );
    println!("# Figure 3: decode->issue distance distribution (SpecFP, MEM-400, unbounded core)");
    println!("{:>12} {:>10} {:>8}", "distance", "count", "percent");
    for (lower, count) in hist.iter() {
        if count > 0 {
            println!(
                "{lower:>12} {count:>10} {:>7.2}%",
                100.0 * count as f64 / hist.total_samples() as f64
            );
        }
    }
    println!("overflow(>2000): {}", hist.overflow_count());
    println!(
        "fraction issuing within 300 cycles: {:.1}%",
        100.0 * hist.fraction_at_most(300)
    );
}

/// Figures 11 and 12: impact of the L2 cache size.
fn print_cache_sweep(suite: Suite, options: &Options, runner: &SweepRunner) {
    let fig = experiments::figure_cache_sweep(
        suite,
        &figure_benchmarks(suite, options.full),
        &figure11_l2_sizes_kb(),
        options.budget_or(DEFAULT_BUDGET),
        runner,
    );
    println!("{}", fig.render());
}

/// Figures 13 and 14: maximum LLIB instructions and registers.
fn print_llib_occupancy(suite: Suite, options: &Options, runner: &SweepRunner) {
    let fig = experiments::figure_llib_occupancy(
        suite,
        &figure_benchmarks(suite, options.full),
        options.budget_or(DEFAULT_BUDGET),
        runner,
    );
    println!("{}", fig.render());
}

/// Tables 2 and 3: the default D-KIP architecture parameters.
fn print_table2_3() {
    let cfg = DkipConfig::paper_default();
    let mem = MemoryHierarchyConfig::paper_default();
    println!("# Table 2/3: default D-KIP parameters");
    println!(
        "cache_processor: rob={} timer={} iq_int={} iq_fp={} sched={:?} fetch={}",
        cfg.cache_processor.rob_capacity,
        cfg.cache_processor.rob_timer,
        cfg.cache_processor.int_iq_capacity,
        cfg.cache_processor.fp_iq_capacity,
        cfg.cache_processor.sched,
        cfg.cache_processor.widths.fetch
    );
    println!(
        "llib: entries={} insertion={} llrf_banks={} regs_per_bank={}",
        cfg.llib.capacity,
        cfg.llib.insertion_rate,
        cfg.llib.llrf_banks,
        cfg.llib.llrf_regs_per_bank
    );
    println!(
        "memory_processor: queue={} sched={:?} decode={}",
        cfg.memory_processor.queue_capacity,
        cfg.memory_processor.sched,
        cfg.memory_processor.decode_width
    );
    println!(
        "address_processor: lsq={} ports={}",
        cfg.address_processor.lsq_capacity, cfg.address_processor.memory_ports
    );
    println!(
        "memory: l1={:?}B l1_lat={} l2={:?}B l2_lat={} mem_lat={}",
        mem.l1_size, mem.l1_latency, mem.l2_size, mem.l2_latency, mem.memory_latency
    );
}

fn cmd_fig(figure: &Figure, options: &Options) -> Result<ExitCode, String> {
    let runner = options.runner()?;
    (figure.print)(options, &runner);
    let Some(store) = runner.store() else {
        return Ok(ExitCode::SUCCESS);
    };
    // The store's counters are shared by every clone, so they total all
    // the sweeps the figure ran.
    let (hits, misses) = (store.hits(), store.misses());
    eprintln!(
        "# cache: hits={hits} misses={misses} store={}",
        store.root().display()
    );
    Ok(check_expect(options.expect, hits, misses))
}

/// The subjects of `timeseries`: the family at its paper-default
/// configuration, and the workload.
pub(crate) fn timeseries_subject(
    family: &str,
    workload: &str,
) -> Result<(Machine, Workload), String> {
    let machine = match family {
        "baseline" => Machine::Baseline(BaselineConfig::r10_64()),
        "kilo" => Machine::Kilo(KiloConfig::kilo_1024()),
        "dkip" => Machine::Dkip(DkipConfig::paper_default()),
        _ => {
            return Err(format!(
                "unknown family {family:?}: expected baseline, kilo or dkip"
            ))
        }
    };
    Ok((machine, Workload::parse(workload)?))
}

fn cmd_timeseries(family: &str, workload: &str, options: &Options) -> Result<ExitCode, String> {
    let (machine, workload) = timeseries_subject(family, workload)?;
    if options.metrics.is_none() && options.trace.is_none() {
        return Err(
            "nothing to record: pass metrics=PATH:INTERVAL and/or trace=PATH[:OPS]".to_owned(),
        );
    }
    let budget = options.budget_or(if workload.is_finite() {
        RISCV_BUDGET
    } else {
        DEFAULT_BUDGET
    });
    let mem = MemoryHierarchyConfig::mem_400();
    let mut telemetry = Telemetry::from_configs(options.metrics.as_ref(), options.trace.as_ref());
    let mut stream = workload.stream(SEED);
    let stats = machine.simulate_stream_probed(&mem, &mut stream, budget, Some(&mut telemetry));
    if let Err(err) = telemetry.write_files() {
        eprintln!("cannot write telemetry output: {err}");
        return Ok(ExitCode::FAILURE);
    }
    // A finite workload that ran to completion inside the trace window must
    // have a trace block for every committed instruction — the per-µop
    // probe contract the telemetry-invariance suite relies on.
    if options.trace.is_some() && workload.is_finite() && !telemetry.trace_budget_exhausted() {
        assert_eq!(
            telemetry.trace_retired(),
            stats.committed,
            "trace blocks must match committed instructions"
        );
    }
    // The header keeps the name of the binary this subcommand replaced, so
    // its output compares byte for byte with earlier dumps.
    println!(
        "# fig_timeseries {} {} budget={budget}",
        machine.name(),
        workload.name()
    );
    println!(
        "committed={} cycles={} ipc={:.4}",
        stats.committed,
        stats.cycles,
        stats.ipc()
    );
    if let Some(metrics) = &options.metrics {
        println!(
            "metrics: {} rows every {} instructions -> {}",
            telemetry.metrics_rows(),
            metrics.interval,
            metrics.path
        );
    }
    if let Some(trace) = &options.trace {
        println!(
            "trace: {} of {} budgeted µops retired -> {}",
            telemetry.trace_retired(),
            trace.ops,
            trace.path
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_sweep(suite: &str, options: &Options) -> Result<ExitCode, String> {
    let jobs = golden_suite_jobs(suite, options.budget)?;
    let runner = options.runner()?;
    let retries = options.retries.unwrap_or(2);
    // Shard selection keeps the original job indices so every shard's
    // progress file refers to the same global numbering.
    let indices: Vec<usize> = match options.shard {
        None => (0..jobs.len()).collect(),
        Some(spec) => (0..jobs.len()).filter(|&idx| spec.owns(idx)).collect(),
    };
    let shard_jobs: Vec<_> = indices.iter().map(|&idx| jobs[idx].clone()).collect();
    let checkpoint = match (options.shard, runner.store()) {
        (Some(spec), Some(store)) => match SweepCheckpoint::open(store, suite, spec) {
            Ok(ckpt) => Some(Mutex::new(ckpt)),
            Err(e) => return Err(format!("cannot open progress file: {e}")),
        },
        _ => None,
    };
    let resumed = checkpoint
        .as_ref()
        .map_or(0, |ckpt| ckpt.lock().expect("checkpoint poisoned").len());
    // Retry loop: round 0 runs everything, later rounds re-run only the
    // jobs that failed, with bounded backoff between rounds. Results land
    // in per-shard-position slots so the final output is in job order no
    // matter which round produced each result; the checkpoint observer
    // only ever sees successes, so failed jobs are never marked done.
    let mut slots: Vec<Option<JobResult>> = vec![None; shard_jobs.len()];
    let mut pending: Vec<usize> = (0..shard_jobs.len()).collect();
    let mut failures: Vec<JobFailure> = Vec::new();
    let (mut hits, mut misses, mut uncacheable) = (0u64, 0u64, 0u64);
    let mut backoff = Duration::from_millis(200);
    for round in 0..=retries {
        if pending.is_empty() {
            break;
        }
        if round > 0 {
            eprintln!(
                "# sweep {suite}: retrying {} failed job(s), round {round}/{retries} \
                 (backoff {}ms)",
                pending.len(),
                backoff.as_millis()
            );
            std::thread::sleep(backoff);
            backoff = (backoff * 2).min(Duration::from_secs(2));
        }
        let round_jobs: Vec<Job> = pending.iter().map(|&pos| shard_jobs[pos].clone()).collect();
        // Global job indices of this round's jobs, for checkpointing.
        let global: Vec<usize> = pending.iter().map(|&pos| indices[pos]).collect();
        let observe = checkpoint.as_ref().map(|ckpt| {
            let global = &global;
            move |pos: usize, _result: &JobResult| {
                ckpt.lock().expect("checkpoint poisoned").mark(global[pos]);
            }
        });
        let report = runner.run_report_observed(
            &round_jobs,
            observe
                .as_ref()
                .map(|f| f as &(dyn Fn(usize, &JobResult) + Sync)),
        );
        hits += report.hits;
        misses += report.misses;
        uncacheable += report.uncacheable;
        let failed: std::collections::BTreeSet<usize> =
            report.failures.iter().map(|f| f.index).collect();
        let mut results = report.results.into_iter();
        let mut still_pending = Vec::new();
        for (round_pos, &shard_pos) in pending.iter().enumerate() {
            if failed.contains(&round_pos) {
                still_pending.push(shard_pos);
            } else {
                slots[shard_pos] = Some(results.next().expect("one result per succeeded job"));
            }
        }
        failures = report
            .failures
            .into_iter()
            .map(|mut failure| {
                failure.index = indices[pending[failure.index]];
                failure
            })
            .collect();
        pending = still_pending;
    }
    let results: Vec<JobResult> = slots.into_iter().flatten().collect();
    print!("{}", results_to_kv(&results));
    eprintln!(
        "# sweep {suite}: jobs={} hits={hits} misses={misses} uncacheable={uncacheable} \
         resumed={resumed} failures={}",
        results.len(),
        failures.len(),
    );
    if !failures.is_empty() {
        for failure in &failures {
            eprintln!("# sweep failure: {}", failure.render());
        }
        eprintln!(
            "error: {} job(s) still failing after {retries} retry round(s)",
            failures.len()
        );
        return Ok(ExitCode::FAILURE);
    }
    Ok(check_expect(options.expect, hits, misses))
}

/// The usage error `args` is refused with; panics when it is accepted.
#[cfg(test)]
pub(crate) fn refusal(args: &[&str]) -> String {
    let args: Vec<String> = args.iter().map(|arg| (*arg).to_owned()).collect();
    match run(&args) {
        Ok(_) => panic!("{args:?} must be refused"),
        Err(message) => message,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Unknown subcommands, figures and suites, missing subjects and
    /// options a subcommand or figure does not take are refused before
    /// anything runs (`main` turns the refusal into exit status 2 and the
    /// usage text), and every figure the usage text lists dispatches. The
    /// option values themselves are pinned by the parser tests at the crate
    /// root.
    #[test]
    fn the_command_line_is_strict_and_every_listed_figure_dispatches() {
        let refused: &[(&[&str], &str)] = &[
            (&[], "missing subcommand"),
            (&["serve"], "unknown subcommand"),
            (&["fig"], "figure name"),
            (&["fig", "fig4"], "unknown figure"),
            (&["fig", "fig09", "shard=0/2"], "does not take"),
            (&["fig", "fig09", "retries=1"], "does not take"),
            (&["fig", "riscv", "full"], "does not take"),
            (&["fig", "table1", "budget=5"], "does not take"),
            (&["fig", "table2_3", "threads=2"], "does not take"),
            (&["timeseries", "dkip", "gcc", "threads=2"], "does not take"),
            (&["timeseries", "dkip", "gcc", "cache=d"], "does not take"),
            (&["sweep"], "suite"),
            (&["sweep", "nope"], "unknown suite"),
            (&["sweep", "kilo", "sample=1000:100:100"], "does not take"),
            (&["sweep", "kilo", "metrics=m.csv:5"], "does not take"),
            (&["sweep", "kilo", "full"], "does not take"),
            (&["sweep", "kilo", "shard=2/2"], "shard"),
            (&["sweep", "kilo", "shard=0/2"], "cache=DIR"),
            (&["sweep", "kilo", "retries=-1"], "retries"),
        ];
        for (args, needle) in refused {
            let message = refusal(args);
            assert!(
                message.contains(needle),
                "{args:?}: {message:?} should mention {needle:?}"
            );
        }

        let listed: Vec<&str> = USAGE
            .lines()
            .find_map(|line| line.trim().strip_prefix("names: "))
            .expect("the usage text lists the figures")
            .split_whitespace()
            .collect();
        let names: Vec<&str> = FIGURES.iter().map(|figure| figure.name).collect();
        assert_eq!(listed, names);
        for figure in FIGURES {
            let mut args = vec!["fig".to_owned(), figure.name.to_owned()];
            if figure.options.contains(&"budget") {
                args.extend(["budget=200".to_owned(), "threads=1".to_owned()]);
            }
            assert!(run(&args).is_ok(), "fig {} must dispatch", figure.name);
        }
    }
}
