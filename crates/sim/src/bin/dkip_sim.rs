//! `dkip-sim` — run a golden sweep against the result store.
//!
//! One subcommand around the content-addressed result store
//! (`dkip_sim::store`):
//!
//! * `sweep <suite> [budget=N] [threads=N] [cache=DIR] [shard=I/N]
//!   [expect=cold|warm] [retries=N]` — run a golden suite, serving cached
//!   jobs from `cache=DIR` (or `DKIP_CACHE`) and checkpointing per-shard
//!   progress so an interrupted sweep resumes. Failed jobs (an isolated
//!   panic, a metrics-write error) are retried for up to `retries=N`
//!   extra rounds (default 2) with bounded backoff; jobs still failing
//!   are summarised on stderr and the sweep exits 1 — without discarding
//!   the completed work, which is checkpointed and cached. `expect=`
//!   turns the run into an assertion: `cold` fails (exit 1) if anything
//!   hit, `warm` fails if anything recomputed — CI's cache-check contract.
//!
//! Malformed arguments exit 2 with a usage message, like the figure
//! binaries' `threads=` contract.

use std::process::ExitCode;
use std::sync::Mutex;
use std::time::Duration;

use dkip_sim::runner::{results_to_kv, JobFailure};
use dkip_sim::store::{ResultStore, ShardSpec, SweepCheckpoint};
use dkip_sim::suites::golden_suite_jobs;
use dkip_sim::{Job, JobResult, SweepRunner};

const USAGE: &str = "usage: dkip-sim <subcommand>
  sweep <suite> [budget=N] [threads=N] [cache=DIR] [shard=I/N] [expect=cold|warm] [retries=N]
      suites: baseline | kilo | dkip | riscv | all
environment: DKIP_CACHE (default store), DKIP_THREADS, DKIP_CACHE_SALT, DKIP_FAULTS";

fn usage_error(message: &str) -> ExitCode {
    eprintln!("error: {message}\n{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("sweep") => cmd_sweep(&args[1..]),
        Some(other) => usage_error(&format!("unknown subcommand {other:?}")),
        None => usage_error("missing subcommand"),
    }
}

fn parse_positive(value: &str, what: &str) -> Result<u64, String> {
    value
        .trim()
        .parse::<u64>()
        .ok()
        .filter(|&n| n > 0)
        .ok_or_else(|| format!("invalid {what} {value:?}: expected a positive integer"))
}

fn cmd_sweep(args: &[String]) -> ExitCode {
    let Some(suite) = args.first() else {
        return usage_error("sweep requires a suite name");
    };
    let mut budget = None;
    let mut threads = None;
    let mut cache = None;
    let mut shard = None;
    let mut expect = None;
    let mut retries = 2usize;
    for arg in &args[1..] {
        let Some((key, value)) = arg.split_once('=') else {
            return usage_error(&format!("malformed sweep argument {arg:?}"));
        };
        let outcome = match key {
            "budget" => parse_positive(value, "budget").map(|b| budget = Some(b)),
            "threads" => parse_positive(value, "threads").map(|n| threads = Some(n as usize)),
            "cache" => {
                if value.trim().is_empty() {
                    Err("invalid cache=: expected a directory".to_owned())
                } else {
                    cache = Some(value.trim().to_owned());
                    Ok(())
                }
            }
            "shard" => ShardSpec::parse(value).map(|s| shard = Some(s)),
            "expect" => match value {
                "cold" | "warm" => {
                    expect = Some(value.to_owned());
                    Ok(())
                }
                _ => Err(format!("invalid expect={value:?}: expected cold or warm")),
            },
            "retries" => value
                .trim()
                .parse::<usize>()
                .map_err(|_| format!("invalid retries {value:?}: expected an integer >= 0"))
                .map(|n| retries = n),
            _ => Err(format!("unknown sweep argument {key}=")),
        };
        if let Err(message) = outcome {
            return usage_error(&message);
        }
    }
    let jobs = match golden_suite_jobs(suite, budget) {
        Ok(jobs) => jobs,
        Err(message) => return usage_error(&message),
    };
    // An explicit `cache=` wins over `DKIP_CACHE`; an explicit `threads=`
    // still picks up the environment store, mirroring the figure binaries.
    let runner = match threads {
        Some(n) => SweepRunner::new(n).with_store_opt(ResultStore::from_env()),
        None => SweepRunner::from_env(),
    };
    let runner = match cache {
        None => runner,
        Some(dir) => match ResultStore::open(&dir) {
            Ok(store) => runner.with_store(store),
            Err(e) => {
                return usage_error(&format!("invalid cache={dir:?}: cannot open store: {e}"))
            }
        },
    };
    if runner.store().is_none() {
        if expect.is_some() {
            return usage_error("expect= requires cache= or DKIP_CACHE");
        }
        if shard.is_some() {
            return usage_error(
                "shard= requires cache= or DKIP_CACHE (progress lives in the store)",
            );
        }
    }
    // Shard selection keeps the original job indices so every shard's
    // progress file refers to the same global numbering.
    let indices: Vec<usize> = match shard {
        None => (0..jobs.len()).collect(),
        Some(spec) => (0..jobs.len()).filter(|&idx| spec.owns(idx)).collect(),
    };
    let shard_jobs: Vec<_> = indices.iter().map(|&idx| jobs[idx].clone()).collect();
    let checkpoint = match (shard, runner.store()) {
        (Some(spec), Some(store)) => match SweepCheckpoint::open(store, suite, spec) {
            Ok(ckpt) => Some(Mutex::new(ckpt)),
            Err(e) => return usage_error(&format!("cannot open progress file: {e}")),
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
        return ExitCode::FAILURE;
    }
    match expect.as_deref() {
        Some("cold") if hits > 0 => {
            eprintln!("error: expected a cold sweep but {hits} jobs hit the cache");
            ExitCode::FAILURE
        }
        Some("warm") if misses > 0 => {
            eprintln!("error: expected a warm sweep but {misses} jobs were recomputed");
            ExitCode::FAILURE
        }
        _ => ExitCode::SUCCESS,
    }
}
