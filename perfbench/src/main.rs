//! The D-KIP reproduction's benchmark: regenerates Fig. 9 and the RISC-V
//! kernel figure through `dkip-sim`'s public job API, checks the outputs,
//! and reports host-time metrics. See `README.md` for the workloads, the
//! metrics and the layer map.
//!
//! ```text
//! cargo run --quiet --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig09-exact --seed 1 --seconds 30 --trace 0
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics of an untraced run;
//! with `--trace 1` the per-layer metrics of a separate traced run. The last
//! line of standard output is one JSON object; lines before it starting
//! with `#` are per-run metadata.

mod heap;
mod layers;
mod report;
mod workloads;

use std::ffi::OsString;
use std::process::ExitCode;
use std::time::Instant;

use report::{median, result_line, stats_digest, valid_metric_name, Metric, Summary};
use workloads::{Kind, Scratch};

#[global_allocator]
static HEAP: heap::Counting = heap::Counting;

/// Fewest untraced sweeps a run measures, however short `--seconds` is.
const MIN_SWEEPS: usize = 3;

/// Set-up takes micro- to milliseconds, so before each sweep it is also
/// repeated back to back for this long (and at least [`MIN_SETUPS`] times);
/// the median of all set-ups is reported. Spreading the repetitions over
/// the run keeps one slow moment of the host from setting the median.
const SETUP_SLICE_SECONDS: f64 = 0.05;
const MIN_SETUPS: usize = 5;

/// The end-to-end metrics and their units, in report order.
const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("sim_mips", "MIPS"),
    ("setup_s", "s"),
    ("job_heap_mb", "MB"),
];

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut kind = None;
    let mut seed = 1u64;
    let mut seconds = 30.0f64;
    let mut trace = false;
    let mut args = args.peekable();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| {
                    let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
                    format!(
                        "unknown workload {value:?}: expected one of {}",
                        names.join(", ")
                    )
                })?);
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Refuses to run when any `DKIP_*` variable is set: the library reads
/// several of them (`DKIP_SAMPLE` flips `Job::new` to sampled mode,
/// `DKIP_NO_SKIP` changes both cores' clock), and an ambient knob must not
/// change what the benchmark measures.
fn env_guard(vars: impl Iterator<Item = (OsString, OsString)>) -> Result<(), String> {
    let set: Vec<String> = vars
        .map(|(key, _)| key.to_string_lossy().into_owned())
        .filter(|key| key.starts_with("DKIP_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!("unset {} before benchmarking", set.join(", ")))
    }
}

/// What a run measured and whether its outputs were right.
struct Outcome {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

/// The untraced run: repeated set-up and sweep for at least `seconds`.
fn untraced(args: &Args, scratch: &Scratch) -> Result<Outcome, String> {
    let mut problems = Vec::new();
    let (mut setup_s, mut wall_s, mut mips, mut heap_mb) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut digest: Option<String> = None;
    let mut last = None;
    let timed_setup = |dir: &std::path::Path| {
        let begin = Instant::now();
        workloads::setup(args.kind, args.seed, dir)
            .map(|setup| (setup, begin.elapsed().as_secs_f64()))
    };
    let start = Instant::now();
    // A sweep is started only if at least half of it is expected to fall
    // within `--seconds`, so a run overshoots by half a sweep at most.
    while wall_s.len() < MIN_SWEEPS
        || start.elapsed().as_secs_f64() + 0.5 * median(&wall_s) < args.seconds
    {
        let slice = Instant::now();
        for rep in 0.. {
            if rep >= MIN_SETUPS && slice.elapsed().as_secs_f64() >= SETUP_SLICE_SECONDS {
                break;
            }
            let store_dir = scratch.dir.join(format!("setup-{}", setup_s.len()));
            setup_s.push(timed_setup(&store_dir)?.1);
            let _ = std::fs::remove_dir_all(&store_dir);
        }
        let store_dir = scratch.dir.join(format!("store-{}", wall_s.len()));
        let (setup, secs) = timed_setup(&store_dir)?;
        setup_s.push(secs);
        let sweep = workloads::sweep(&setup);
        attempted += setup.jobs.len() as u64;
        failed += sweep.failed;
        problems.extend(workloads::check_sweep(args.kind, &setup, &sweep));
        let this = stats_digest(&sweep.results);
        match &digest {
            Some(first) if *first != this => {
                problems.push(format!("sweep {} digest {this} != {first}", wall_s.len()));
            }
            _ => digest = Some(this),
        }
        wall_s.push(sweep.wall_s);
        mips.push(workloads::covered(&sweep.results) as f64 / sweep.wall_s / 1e6);
        heap_mb.push(sweep.job_heap_mb);
        drop(setup);
        let _ = std::fs::remove_dir_all(&store_dir);
        last = Some(sweep);
    }
    let last = last.expect("at least one sweep");
    if args.kind == Kind::RiscvSampled {
        let setup = workloads::setup(args.kind, args.seed, &scratch.dir.join("store-check"))?;
        problems.extend(workloads::check_kernels(&setup, &last.results));
    }

    let wall = Summary::of(&wall_s).expect("at least one sweep");
    let setup = Summary::of(&setup_s).expect("at least one set-up");
    println!(
        "# jobs={} sweeps={} setups={}",
        last.results.len(),
        wall.n,
        setup.n
    );
    println!("# stats_digest={}", digest.as_deref().unwrap_or("none"));
    println!(
        "# wall_s median={} max={} n={}",
        wall.median, wall.max, wall.n
    );
    println!("# wall_s samples={wall_s:?}");
    println!(
        "# setup_s median={} max={} n={}",
        setup.median, setup.max, setup.n
    );
    println!(
        "# failed_frac={} (failed {failed} of {attempted} jobs)",
        report::ratio(failed as f64, attempted as f64)
    );
    println!(
        "# peak_rss_mb={} (VmHWM of the process)",
        report::peak_rss_mb()
    );
    Ok(Outcome {
        metrics: END_TO_END
            .iter()
            .zip([wall.median, median(&mips), setup.median, median(&heap_mb)])
            .map(|(&(name, unit), value)| Metric::new(name, value, unit))
            .collect(),
        attempted,
        failed,
        problems,
    })
}

/// The traced run: one untraced sweep, then serial traced rounds and probes.
fn traced(args: &Args, scratch: &Scratch) -> Result<Outcome, String> {
    let setup = workloads::setup(args.kind, args.seed, &scratch.dir.join("store"))?;
    let run = layers::traced_run(args.kind, &setup, &scratch.dir, args.seconds);
    println!("# stats_digest={}", run.untraced_digest);
    println!(
        "# traced subset: {} jobs, {} rounds, untraced digest {}, traced digest {}",
        layers::traced_subset(&setup.jobs).len(),
        run.rounds,
        run.untraced_subset_digest,
        run.traced_digest
    );
    Ok(Outcome {
        metrics: run.metrics,
        attempted: run.attempted,
        failed: run.failed,
        problems: run.problems,
    })
}

fn main() -> ExitCode {
    let args =
        match env_guard(std::env::vars_os()).and_then(|()| parse_args(std::env::args().skip(1))) {
            Ok(args) => args,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::from(2);
            }
        };
    let scratch = match Scratch::create() {
        Ok(scratch) => scratch,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "# workload={} seed={} seconds={} trace={} threads={} available_parallelism={}",
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        workloads::THREADS,
        std::thread::available_parallelism().map_or(0, usize::from),
    );
    // Host-speed control, recorded as metadata only: the emulator is on
    // riscv-sampled's own path, so dividing by it would cancel that
    // workload's emulator gains.
    println!(
        "# host.calib_mips={}",
        dkip_bench::throughput::measure_calibration()
    );

    let outcome = if args.trace {
        traced(&args, &scratch)
    } else {
        untraced(&args, &scratch)
    };
    let mut outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    for m in &outcome.metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
        if !valid_metric_name(&m.name) || !m.value.is_finite() {
            outcome
                .problems
                .push(format!("bad metric {} = {}", m.name, m.value));
        }
    }
    for problem in &outcome.problems {
        eprintln!("perfbench: check failed: {problem}");
    }
    let correct = outcome.problems.is_empty() && outcome.failed == 0;
    println!(
        "{}",
        result_line(correct, outcome.attempted, outcome.failed, &outcome.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vars(pairs: &[(&str, &str)]) -> impl Iterator<Item = (OsString, OsString)> {
        pairs
            .iter()
            .map(|&(k, v)| (OsString::from(k), OsString::from(v)))
            .collect::<Vec<_>>()
            .into_iter()
    }

    #[test]
    fn env_guard_rejects_any_dkip_variable() {
        assert!(env_guard(vars(&[("PATH", "/bin"), ("HOME", "/")])).is_ok());
        for name in ["DKIP_SAMPLE", "DKIP_NO_SKIP", "DKIP_CACHE", "DKIP_ANYTHING"] {
            let err = env_guard(vars(&[("PATH", "/bin"), (name, "1")])).unwrap_err();
            assert!(err.contains(name), "{err}");
        }
    }

    #[test]
    fn args_parse_the_command_line() {
        let args = parse_args(
            [
                "--workload",
                "riscv-sampled",
                "--seed",
                "9",
                "--seconds",
                "5",
                "--trace",
                "1",
            ]
            .map(String::from)
            .into_iter(),
        )
        .unwrap();
        assert_eq!(args.kind, Kind::RiscvSampled);
        assert_eq!((args.seed, args.seconds, args.trace), (9, 5.0, true));
        assert!(parse_args(["--workload", "nope"].map(String::from).into_iter()).is_err());
        assert!(parse_args(["--trace", "2"].map(String::from).into_iter()).is_err());
        assert!(parse_args(std::iter::empty()).is_err());
    }

    /// The names `BENCHMARK.json` declares, in order, from one of its lists.
    fn declared(list: &str) -> Vec<String> {
        let doc = include_str!("../../BENCHMARK.json");
        let start = doc.find(&format!("\"{list}\"")).unwrap();
        let end = start + doc[start..].find(']').unwrap();
        doc[start..end]
            .split("\"name\": \"")
            .skip(1)
            .map(|rest| rest[..rest.find('"').unwrap()].to_owned())
            .collect()
    }

    #[test]
    fn emitted_metrics_match_the_declared_ones() {
        assert_eq!(
            declared("end_to_end"),
            END_TO_END
                .iter()
                .map(|(name, _)| name.to_string())
                .collect::<Vec<_>>()
        );
        let dir = std::env::temp_dir().join(format!("perfbench-names-{}", std::process::id()));
        let mut jobs = Kind::RiscvSampled.jobs(1);
        jobs.retain(|job| matches!(job.workload, dkip_sim::Workload::Riscv(r) if r.size == 22));
        let setup = workloads::Setup {
            jobs,
            store: None,
            expected_a0: Vec::new(),
        };
        let run = layers::traced_run(Kind::RiscvSampled, &setup, &dir, 0.0);
        let _ = std::fs::remove_dir_all(&dir);
        let names: Vec<String> = run.metrics.iter().map(|m| m.name.clone()).collect();
        assert_eq!(declared("per_layer"), names);
        for name in &names {
            assert!(valid_metric_name(name), "{name}");
        }
    }

    #[test]
    fn traced_and_untraced_digests_agree() {
        // A small exact and a small sampled sweep, through the runner and
        // through the traced path.
        let dir = std::env::temp_dir().join(format!("perfbench-test-{}", std::process::id()));
        let representative = dkip_trace::Benchmark::representative();
        let mut jobs: Vec<_> = Kind::Fig09Exact.jobs(5);
        jobs.extend(Kind::Fig09Sampled.jobs(5));
        jobs.retain(|job| {
            [representative[0], representative[3]]
                .iter()
                .any(|&bench| job.workload == bench.into())
        });
        for job in &mut jobs {
            job.budget = 20_000;
        }
        let setup = workloads::Setup {
            jobs,
            store: None,
            expected_a0: Vec::new(),
        };
        let run = layers::traced_run(Kind::Fig09Sampled, &setup, &dir, 0.0);
        let _ = std::fs::remove_dir_all(&dir);
        assert!(run.problems.is_empty(), "{:?}", run.problems);
        assert_eq!(run.traced_digest, run.untraced_subset_digest);
    }
}
