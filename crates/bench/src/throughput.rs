//! The simulator-throughput harness behind `make perf` and the `perf-smoke`
//! CI job.
//!
//! Each [`perf_jobs`] point runs one core family on one workload (a
//! synthetic SPEC benchmark or an execution-driven RISC-V kernel), timed by
//! the vendored criterion shim's measurement machinery ([`criterion::run_one`]
//! with [`criterion::Throughput::Elements`] = committed instructions), so
//! `cargo bench -p dkip-bench` and `make perf` share one timing + JSON code
//! path. The report is written as `BENCH_sim_throughput.json`:
//!
//! ```json
//! {
//!   "schema": "dkip-sim-throughput/v2",
//!   "entries": [ { "family": "dkip", "workload": "swim", "mips": ...,
//!                  "ticks_executed": ..., "cycles_skipped": ...,
//!                  "skipped_frac": ..., ... } ],
//!   "families": [ { "family": "dkip", "mips_geomean": ... } ]
//! }
//! ```
//!
//! `mips` is millions of *simulated covered instructions* per host second;
//! `cycles_per_sec` is simulated cycles per host second. Both are host
//! metadata — the simulated statistics themselves stay bit-identical and are
//! pinned by the golden snapshots, not by this harness. Schema v2 adds the
//! event-driven-clock telemetry: `ticks_executed` (real `tick()` calls),
//! `cycles_skipped` (quiesced cycles fast-forwarded over) and
//! `skipped_frac` (`cycles_skipped / cycles`); the harness additionally
//! fails if no D-KIP workload skipped a single cycle, so the skip path
//! cannot silently rot.
//!
//! Schema v3 adds the sampled-simulation rows: every entry carries a
//! `mode` ("exact" or "sampled") and `covered` (the instructions the run
//! spanned — committed for exact runs, detailed + functionally
//! fast-forwarded for sampled runs, the numerator of `mips`). The matrix
//! gains D-KIP points re-run under sampling ([`PERF_SAMPLE_RATE`]); the
//! harness fails unless each is at least [`SAMPLED_SPEEDUP_FLOOR`]× the
//! MIPS of its exact twin, so the sampled fast path cannot silently rot
//! either. Family geomeans (and therefore the committed
//! `ci/perf_baseline.json` comparison) are computed from exact entries
//! only.
//!
//! Schema v4 adds the best-sample figures `min_ns` / `mips_best` per entry
//! and `mips_best_geomean` per family (host scheduling noise is one-sided —
//! preemption only slows a sample — so best-of-N is far more stable than
//! the mean), plus host calibration: the probe-free RV64IM emulator is
//! timed as a host-speed control *immediately after each job's samples*
//! (`calib_mips_best` per entry) and the report records the overall
//! `calibrated_best_geomean` — the geomean over exact entries of
//! `mips_best / calib_mips_best`. The `telemetry_overhead=PATH` gate builds
//! on both: every perf job runs with the telemetry probe sink disabled
//! ([`Job::unprobed`]), and the gate fails if the calibrated geomean
//! regresses more than [`TELEMETRY_OVERHEAD_TOLERANCE`] against the
//! committed baseline — pinning that the per-stage `Option<&mut Telemetry>`
//! hooks stay near-free when `None`. Pairing each point with an adjacent
//! control (rather than calibrating once per run) cancels host throttling
//! and machine-class drift even when the host speed shifts *during* the
//! matrix, which absolute MIPS comparisons cannot survive.

use criterion::{run_one, Measurement, Throughput};
use dkip_model::config::{BaselineConfig, DkipConfig, KiloConfig, MemoryHierarchyConfig};
use dkip_model::SampleConfig;
use dkip_riscv::{Kernel, KernelRun};
use dkip_sim::{Job, Machine, Workload};
use dkip_trace::Benchmark;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Default per-point instruction budget for `make perf`.
pub const DEFAULT_PERF_BUDGET: u64 = 150_000;

/// Default number of timed samples per point.
pub const DEFAULT_SAMPLES: usize = 3;

/// Default output file, relative to the invocation directory.
pub const DEFAULT_OUT: &str = "BENCH_sim_throughput.json";

/// Default tolerated per-family regression when checking against a committed
/// baseline (0.30 = a family may be up to 30% slower before the check
/// fails).
pub const DEFAULT_TOLERANCE: f64 = 0.30;

/// Sampling rate of the sampled-mode throughput rows: a sparse 10% detailed
/// fraction, chosen for speed. The accuracy of sampling is pinned elsewhere
/// (`tests/sampled_accuracy.rs`, at denser per-suite rates); these rows pin
/// its *host throughput*.
pub const PERF_SAMPLE_RATE: &str = "20000:1000:1000";

/// Minimum MIPS ratio each sampled D-KIP row must achieve over its exact
/// twin. Empirically sampling at [`PERF_SAMPLE_RATE`] reaches 4–5×; the
/// floor leaves headroom for host noise while still catching the sampled
/// path degrading into detailed-simulation cost.
pub const SAMPLED_SPEEDUP_FLOOR: f64 = 3.0;

/// Tolerated slowdown of the *calibrated* overall best-sample geomean for
/// the `telemetry_overhead=` gate: the disabled-probe hot path (every perf
/// job runs [`Job::unprobed`]) may cost at most 2% against the committed
/// pre-telemetry baseline. Deliberately much tighter than
/// [`DEFAULT_TOLERANCE`]: the probe sink is an `Option` branch per stage
/// and must stay near-free when `None`. A 2% wall-clock tolerance is only
/// statistically tenable because the comparison is host-calibrated — both
/// reports express each simulator point as a ratio of the probe-free
/// emulator control timed right next to it ([`measure_calibration`]),
/// cancelling host-speed drift that absolute MIPS comparisons cannot.
pub const TELEMETRY_OVERHEAD_TOLERANCE: f64 = 0.02;

/// Matrix size of the emulator calibration kernel (`matmul`): big enough
/// (~600k retired instructions, a few host-ms) that best-of-N timing is
/// stable, small enough to add negligible harness cost.
pub const CALIBRATION_SIZE: u64 = 32;

/// Timed samples per calibration pass. Fixed rather than inherited from
/// `samples=`: each iteration is only a few host-ms, so a deep best-of-N is
/// nearly free and the control needs a tighter minimum than the matrix
/// points to hold a 2% gate.
pub const CALIBRATION_SAMPLES: usize = 25;

/// Times the host-speed control of the `telemetry_overhead=` gate: a
/// probe-free workload — the functional RV64IM emulator running
/// `matmul/`[`CALIBRATION_SIZE`] to completion, fresh machine state per
/// iteration, best of [`CALIBRATION_SAMPLES`] samples — and returns its
/// best-sample MIPS. The emulator has no telemetry hooks at all, so
/// expressing each simulator point as a ratio of a control measured
/// *adjacent to it in time* cancels host throttling, steal time and
/// machine-class differences out of the baseline comparison, while a real
/// slowdown of the cores' disabled-probe path does not cancel (it moves
/// the simulators but not the emulator).
#[must_use]
pub fn measure_calibration() -> f64 {
    let run = KernelRun::new(Kernel::Matmul, CALIBRATION_SIZE);
    let pristine = run.emulator();
    let retired = pristine.clone().run_to_halt();
    let measurement = run_one(
        "calibration",
        &format!("emu:{}", run.name()),
        CALIBRATION_SAMPLES,
        Some(Throughput::Elements(retired)),
        |b| b.iter(|| pristine.clone().run_to_halt()),
    );
    if measurement.min_ns > 0.0 {
        retired as f64 * 1e9 / measurement.min_ns / 1e6
    } else {
        0.0
    }
}

/// One timed simulation point of the throughput report.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputEntry {
    /// Core family tag ("baseline" / "kilo" / "dkip").
    pub family: &'static str,
    /// Machine configuration name ("R10-64", "KILO-1024", "D-KIP-2048").
    pub machine: String,
    /// Workload name ("swim", "riscv:matmul/8", …).
    pub workload: String,
    /// Simulation mode: "exact" or "sampled" (schema v3).
    pub mode: &'static str,
    /// Instruction budget the point ran with.
    pub budget: u64,
    /// Simulated instructions committed per iteration. For sampled rows
    /// only the measured windows commit in detail, so this is much smaller
    /// than `covered`.
    pub committed: u64,
    /// Instructions the run covered per iteration (schema v3): equals
    /// `committed` for exact rows; detailed + functionally fast-forwarded
    /// for sampled rows. The numerator of `mips`.
    pub covered: u64,
    /// Simulated cycles per iteration.
    pub cycles: u64,
    /// `tick()` invocations actually executed per iteration (schema v2).
    pub ticks_executed: u64,
    /// Quiesced cycles the event-driven clock skipped per iteration
    /// (schema v2).
    pub cycles_skipped: u64,
    /// Millions of simulated committed instructions per host second,
    /// computed from the *mean* sample time.
    pub mips: f64,
    /// Millions of simulated committed instructions per host second,
    /// computed from the *best* (minimum) sample time (schema v4). Host
    /// scheduling noise is one-sided — preemption only ever slows a sample
    /// down — so the best-of-N figure is far more stable run-to-run and is
    /// what the tight `telemetry_overhead=` gate compares.
    pub mips_best: f64,
    /// Best-sample MIPS of the probe-free emulator control timed
    /// immediately after this job's samples ([`measure_calibration`],
    /// schema v4). `mips_best / calib_mips_best` is this point's
    /// host-speed-independent figure.
    pub calib_mips_best: f64,
    /// Simulated cycles per host second.
    pub cycles_per_sec: f64,
    /// The underlying timing measurement.
    pub measurement: Measurement,
}

impl ThroughputEntry {
    /// Fraction of simulated cycles skipped by the event-driven clock.
    #[must_use]
    pub fn skipped_frac(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.cycles_skipped as f64 / self.cycles as f64
        }
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"family\": {}, \"machine\": {}, \"workload\": {}, \"mode\": {}, \
             \"budget\": {}, \"committed\": {}, \"covered\": {}, \"cycles\": {}, \
             \"ticks_executed\": {}, \
             \"cycles_skipped\": {}, \"skipped_frac\": {}, \"samples\": {}, \"mean_ns\": {}, \
             \"min_ns\": {}, \"mips\": {}, \"mips_best\": {}, \"calib_mips_best\": {}, \
             \"cycles_per_sec\": {}}}",
            criterion::json_string(self.family),
            criterion::json_string(&self.machine),
            criterion::json_string(&self.workload),
            criterion::json_string(self.mode),
            self.budget,
            self.committed,
            self.covered,
            self.cycles,
            self.ticks_executed,
            self.cycles_skipped,
            criterion::json_number(self.skipped_frac()),
            self.measurement.samples,
            criterion::json_number(self.measurement.mean_ns),
            criterion::json_number(self.measurement.min_ns),
            criterion::json_number(self.mips),
            criterion::json_number(self.mips_best),
            criterion::json_number(self.calib_mips_best),
            criterion::json_number(self.cycles_per_sec),
        )
    }
}

/// The standard throughput matrix: every core family on two synthetic SPEC
/// workloads (one integer, one memory-bound FP) and two RISC-V kernels (one
/// dense, one pointer-chasing), all in exact mode, plus the D-KIP's two
/// synthetic points re-run under sampling at [`PERF_SAMPLE_RATE`] (the
/// RISC-V kernels' default dynamic lengths are shorter than one sampling
/// period, so a sampled row would degenerate to an exact one).
///
/// Exact rows are exact: the committed `ci/perf_baseline.json` geomeans pin
/// the exact simulator. Every row is unprobed: the harness times the
/// disabled-telemetry hot path by contract (that is what the
/// `telemetry_overhead=` gate certifies).
#[must_use]
pub fn perf_jobs(budget: u64) -> Vec<Job> {
    let mem = MemoryHierarchyConfig::mem_400();
    let machines = [
        Machine::Baseline(BaselineConfig::r10_64()),
        Machine::Kilo(KiloConfig::kilo_1024()),
        Machine::Dkip(DkipConfig::paper_default()),
    ];
    let workloads = [
        Workload::Spec(Benchmark::Gcc),
        Workload::Spec(Benchmark::Swim),
        Workload::from(Kernel::Matmul),
        Workload::from(Kernel::ListWalk),
    ];
    let mut jobs = Vec::new();
    for machine in &machines {
        for workload in &workloads {
            jobs.push(Job::new(
                format!("{}/{}", machine.family(), workload.name()),
                machine.clone(),
                mem.clone(),
                *workload,
                budget,
            ));
        }
    }
    let rate = SampleConfig::parse(PERF_SAMPLE_RATE).expect("valid perf sampling rate");
    let dkip = Machine::Dkip(DkipConfig::paper_default());
    for workload in [
        Workload::Spec(Benchmark::Gcc),
        Workload::Spec(Benchmark::Swim),
    ] {
        jobs.push(
            Job::new(
                format!("{}/{}+sampled", dkip.family(), workload.name()),
                dkip.clone(),
                mem.clone(),
                workload,
                budget,
            )
            .with_sample(rate),
        );
    }
    jobs
}

/// Times every job (`samples` runs each, after one untimed warm-up that also
/// yields the simulated statistics) and returns the per-point report
/// entries. Each job's samples are followed by an emulator calibration pass
/// ([`measure_calibration`]) so every point carries a host-speed control
/// measured adjacent to it in time.
#[must_use]
pub fn measure(jobs: &[Job], samples: usize) -> Vec<ThroughputEntry> {
    jobs.iter()
        .map(|job| {
            // The warm-up run provides the (deterministic) simulated stats,
            // so the timed iterations can declare instructions/iteration as
            // criterion throughput. For sampled rows the element count is
            // the covered span, not the window-committed count: the row
            // measures how fast the mode covers workload instructions.
            let warm = job.run();
            let stats = warm.stats;
            let (mode, bench_name) = match job.sample {
                None => ("exact", job.workload.name()),
                Some(_) => ("sampled", format!("{}+sampled", job.workload.name())),
            };
            let measurement = run_one(
                job.machine.family(),
                &bench_name,
                samples,
                Some(Throughput::Elements(warm.covered)),
                |b| b.iter(|| job.run().stats.cycles),
            );
            let mips = measurement.elements_per_sec().unwrap_or(0.0) / 1e6;
            let mips_best = if measurement.min_ns > 0.0 {
                warm.covered as f64 * 1e9 / measurement.min_ns / 1e6
            } else {
                0.0
            };
            let cycles_per_sec = if measurement.mean_ns > 0.0 {
                stats.cycles as f64 * 1e9 / measurement.mean_ns
            } else {
                0.0
            };
            let calib_mips_best = measure_calibration();
            ThroughputEntry {
                family: job.machine.family(),
                machine: job.machine.name().to_owned(),
                workload: job.workload.name(),
                mode,
                budget: job.budget,
                committed: stats.committed,
                covered: warm.covered,
                cycles: stats.cycles,
                ticks_executed: stats.ticks_executed,
                cycles_skipped: stats.cycles_skipped,
                mips,
                mips_best,
                calib_mips_best,
                cycles_per_sec,
                measurement,
            }
        })
        .collect()
}

/// Per-family geometric-mean MIPS over the **exact** entries, preserving
/// first-occurrence order. Sampled rows are excluded: the committed
/// `ci/perf_baseline.json` geomeans pin the exact simulator's throughput,
/// and mixing in the (faster) sampled rows would let an exact-path
/// regression hide behind the sampling speedup.
#[must_use]
pub fn family_geomeans(entries: &[ThroughputEntry]) -> Vec<(String, f64)> {
    family_metric_geomeans(entries, |e| e.mips)
}

/// Per-family geometric-mean best-sample MIPS over the exact entries
/// (schema v4). This is the figure the `telemetry_overhead=` gate compares:
/// best-of-N discards one-sided host-scheduling noise, so it can hold a far
/// tighter tolerance than the mean-based [`family_geomeans`].
#[must_use]
pub fn family_best_geomeans(entries: &[ThroughputEntry]) -> Vec<(String, f64)> {
    family_metric_geomeans(entries, |e| e.mips_best)
}

fn family_metric_geomeans(
    entries: &[ThroughputEntry],
    metric: impl Fn(&ThroughputEntry) -> f64,
) -> Vec<(String, f64)> {
    let mut order: Vec<String> = Vec::new();
    let mut logs: Vec<(f64, u32)> = Vec::new();
    for entry in entries.iter().filter(|e| e.mode == "exact") {
        let idx = match order.iter().position(|f| f == entry.family) {
            Some(idx) => idx,
            None => {
                order.push(entry.family.to_owned());
                logs.push((0.0, 0));
                order.len() - 1
            }
        };
        logs[idx].0 += metric(entry).max(f64::MIN_POSITIVE).ln();
        logs[idx].1 += 1;
    }
    order
        .into_iter()
        .zip(logs)
        .map(|(family, (sum, n))| (family, (sum / f64::from(n.max(1))).exp()))
        .collect()
}

/// Pairs every sampled entry with its exact twin (same family, machine and
/// workload) and returns `(family/workload, sampled_mips / exact_mips)`.
/// A sampled row with no exact twin, or whose twin measured zero MIPS,
/// reports a speedup of 0 so the caller's floor check fails loudly rather
/// than skipping the pair.
#[must_use]
pub fn sampled_speedups(entries: &[ThroughputEntry]) -> Vec<(String, f64)> {
    entries
        .iter()
        .filter(|e| e.mode == "sampled")
        .map(|sampled| {
            let twin = entries.iter().find(|e| {
                e.mode == "exact"
                    && e.family == sampled.family
                    && e.machine == sampled.machine
                    && e.workload == sampled.workload
            });
            let speedup = match twin {
                Some(exact) if exact.mips > 0.0 => sampled.mips / exact.mips,
                _ => 0.0,
            };
            (format!("{}/{}", sampled.family, sampled.workload), speedup)
        })
        .collect()
}

/// Overall host-speed-independent figure of a run (schema v4): the geomean
/// over the **exact** entries of `mips_best / calib_mips_best`. This is the
/// single number the `telemetry_overhead=` gate compares. Because every
/// point is divided by a control timed adjacent to it, host throttling —
/// even a frequency shift partway through the matrix — cancels out;
/// averaging all 12 exact points then squeezes the residual jitter further,
/// which a 2% tolerance needs. Entries with no usable control
/// (`calib_mips_best <= 0`) are skipped; `None` if nothing remains.
#[must_use]
pub fn calibrated_best_geomean(entries: &[ThroughputEntry]) -> Option<f64> {
    let ratios: Vec<f64> = entries
        .iter()
        .filter(|e| e.mode == "exact" && e.calib_mips_best > 0.0)
        .map(|e| e.mips_best / e.calib_mips_best)
        .collect();
    if ratios.is_empty() {
        return None;
    }
    let sum: f64 = ratios.iter().map(|r| r.max(f64::MIN_POSITIVE).ln()).sum();
    Some((sum / ratios.len() as f64).exp())
}

/// Serialises the full throughput report.
#[must_use]
pub fn report_to_json(entries: &[ThroughputEntry]) -> String {
    let mut out = String::from("{\n  \"schema\": \"dkip-sim-throughput/v4\",\n  \"entries\": [\n");
    let body: Vec<String> = entries
        .iter()
        .map(|e| format!("    {}", e.to_json()))
        .collect();
    out.push_str(&body.join(",\n"));
    out.push_str("\n  ],\n");
    if let Some(calibrated) = calibrated_best_geomean(entries) {
        out.push_str(&format!(
            "  \"calibrated_best_geomean\": {},\n",
            criterion::json_number(calibrated)
        ));
    }
    out.push_str("  \"families\": [\n");
    let best = family_best_geomeans(entries);
    let families: Vec<String> = family_geomeans(entries)
        .into_iter()
        .zip(best)
        .map(|((family, geomean), (_, best_geomean))| {
            format!(
                "    {{\"family\": {}, \"mips_geomean\": {}, \"mips_best_geomean\": {}}}",
                criterion::json_string(&family),
                criterion::json_number(geomean),
                criterion::json_number(best_geomean)
            )
        })
        .collect();
    out.push_str(&families.join(",\n"));
    out.push_str("\n  ],\n  \"sampled_speedups\": [\n");
    let speedups: Vec<String> = sampled_speedups(entries)
        .into_iter()
        .map(|(point, speedup)| {
            format!(
                "    {{\"point\": {}, \"speedup\": {}}}",
                criterion::json_string(&point),
                criterion::json_number(speedup)
            )
        })
        .collect();
    out.push_str(&speedups.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

/// Extracts the `(family, mips_geomean)` pairs from a throughput report
/// produced by [`report_to_json`]. The scanner only relies on the fixed
/// `{"family": "...", "mips_geomean": N}` shape inside the `"families"`
/// array, so it tolerates added fields elsewhere.
#[must_use]
pub fn parse_family_geomeans(json: &str) -> Vec<(String, f64)> {
    parse_family_metric(json, "\"mips_geomean\": ")
}

/// Extracts the `(family, mips_best_geomean)` pairs (schema v4) the same
/// way. Pre-v4 reports carry no best-sample figures, so this returns an
/// empty vector for them — callers treat that as "baseline unusable", not
/// as "no regression".
#[must_use]
pub fn parse_family_best_geomeans(json: &str) -> Vec<(String, f64)> {
    parse_family_metric(json, "\"mips_best_geomean\": ")
}

/// Extracts the `calibrated_best_geomean` figure from a report (schema v4).
/// `None` for reports written without calibration passes — such a report
/// cannot anchor the `telemetry_overhead=` gate.
#[must_use]
pub fn parse_calibrated_best_geomean(json: &str) -> Option<f64> {
    let key = "\"calibrated_best_geomean\": ";
    let number = &json[json.find(key)? + key.len()..];
    let end = number
        .find(|c: char| {
            !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+' || c == 'e' || c == 'E')
        })
        .unwrap_or(number.len());
    number[..end].parse::<f64>().ok().filter(|v| *v > 0.0)
}

fn parse_family_metric(json: &str, key: &str) -> Vec<(String, f64)> {
    let mut result = Vec::new();
    let Some(families_at) = json.find("\"families\"") else {
        return result;
    };
    let section = &json[families_at..];
    let mut rest = section;
    while let Some(fam_at) = rest.find("\"family\": \"") {
        let after = &rest[fam_at + "\"family\": \"".len()..];
        let Some(fam_end) = after.find('"') else {
            break;
        };
        let family = &after[..fam_end];
        let tail = &after[fam_end..];
        let Some(geo_at) = tail.find(key) else {
            break;
        };
        let number = &tail[geo_at + key.len()..];
        let end = number
            .find(|c: char| {
                !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+' || c == 'e' || c == 'E')
            })
            .unwrap_or(number.len());
        if let Ok(value) = number[..end].parse::<f64>() {
            result.push((family.to_owned(), value));
        }
        rest = &tail[geo_at..];
    }
    result
}

/// The outcome of comparing a fresh report against a committed baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct RegressionReport {
    /// Human-readable per-family lines.
    pub lines: Vec<String>,
    /// Families slower than `(1 - tolerance) ×` their baseline geomean.
    pub regressed: Vec<String>,
}

/// Compares fresh per-family geomeans against a baseline report. A family
/// present in the baseline but absent from the fresh run counts as
/// regressed (the harness silently dropping a family must fail the check).
#[must_use]
pub fn compare_to_baseline(
    fresh: &[(String, f64)],
    baseline_json: &str,
    tolerance: f64,
) -> RegressionReport {
    compare_families(fresh, &parse_family_geomeans(baseline_json), tolerance)
}

/// Geometric mean over per-family geomean figures. Every family fields the
/// same number of exact points, so this equals the overall geomean across
/// all points — one summary number for a whole report.
#[must_use]
pub fn overall_geomean(pairs: &[(String, f64)]) -> Option<f64> {
    if pairs.is_empty() {
        return None;
    }
    let sum: f64 = pairs
        .iter()
        .map(|(_, v)| v.max(f64::MIN_POSITIVE).ln())
        .sum();
    Some((sum / pairs.len() as f64).exp())
}

fn compare_families(
    fresh: &[(String, f64)],
    baseline: &[(String, f64)],
    tolerance: f64,
) -> RegressionReport {
    let mut lines = Vec::new();
    let mut regressed = Vec::new();
    for (family, base_mips) in baseline {
        match fresh.iter().find(|(f, _)| f == family) {
            None => {
                lines.push(format!(
                    "{family}: missing from fresh run (baseline {base_mips:.3} MIPS)"
                ));
                regressed.push(family.clone());
            }
            Some((_, new_mips)) => {
                let floor = base_mips * (1.0 - tolerance);
                let ratio = new_mips / base_mips.max(f64::MIN_POSITIVE);
                let verdict = if *new_mips < floor { "REGRESSED" } else { "ok" };
                lines.push(format!(
                    "{family}: {new_mips:.3} MIPS vs baseline {base_mips:.3} ({:+.1}%) [{verdict}]",
                    (ratio - 1.0) * 100.0
                ));
                if *new_mips < floor {
                    regressed.push(family.clone());
                }
            }
        }
    }
    RegressionReport { lines, regressed }
}

/// Parsed command line of the `perf` binary.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfArgs {
    /// Per-point instruction budget.
    pub budget: u64,
    /// Timed samples per point.
    pub samples: usize,
    /// Report output path.
    pub out: PathBuf,
    /// Baseline report to compare against, if any.
    pub check: Option<PathBuf>,
    /// Tolerated per-family fractional slowdown for `check`.
    pub tolerance: f64,
    /// Absolute MIPS floor for the `dkip` family (0 disables the check).
    pub floor: f64,
    /// Pre-telemetry baseline report: the disabled-probe geomeans must stay
    /// within [`TELEMETRY_OVERHEAD_TOLERANCE`] of it.
    pub telemetry_overhead: Option<PathBuf>,
}

impl Default for PerfArgs {
    fn default() -> Self {
        PerfArgs {
            budget: DEFAULT_PERF_BUDGET,
            samples: DEFAULT_SAMPLES,
            out: PathBuf::from(DEFAULT_OUT),
            check: None,
            tolerance: DEFAULT_TOLERANCE,
            floor: 0.0,
            telemetry_overhead: None,
        }
    }
}

impl PerfArgs {
    /// Parses `budget=N samples=N out=PATH check=PATH tolerance=F floor=F
    /// telemetry_overhead=PATH` (any order). Like `dkip-sim`,
    /// malformed arguments are errors, never silent fallbacks.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending argument.
    pub fn parse(args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut parsed = PerfArgs::default();
        for arg in args {
            if let Some(v) = arg.strip_prefix("budget=") {
                parsed.budget =
                    v.parse::<u64>().ok().filter(|&n| n > 0).ok_or_else(|| {
                        format!("invalid budget {v:?}: expected a positive integer")
                    })?;
            } else if let Some(v) = arg.strip_prefix("samples=") {
                parsed.samples =
                    v.parse::<usize>().ok().filter(|&n| n > 0).ok_or_else(|| {
                        format!("invalid samples {v:?}: expected a positive integer")
                    })?;
            } else if let Some(v) = arg.strip_prefix("out=") {
                if v.is_empty() {
                    return Err("invalid out=: expected a path".to_owned());
                }
                parsed.out = PathBuf::from(v);
            } else if let Some(v) = arg.strip_prefix("check=") {
                if v.is_empty() {
                    return Err("invalid check=: expected a path".to_owned());
                }
                parsed.check = Some(PathBuf::from(v));
            } else if let Some(v) = arg.strip_prefix("tolerance=") {
                parsed.tolerance = v
                    .parse::<f64>()
                    .ok()
                    .filter(|t| (0.0..1.0).contains(t))
                    .ok_or_else(|| {
                        format!("invalid tolerance {v:?}: expected a fraction in [0, 1)")
                    })?;
            } else if let Some(v) = arg.strip_prefix("floor=") {
                parsed.floor = v.parse::<f64>().ok().filter(|f| *f >= 0.0).ok_or_else(|| {
                    format!("invalid floor {v:?}: expected a non-negative MIPS value")
                })?;
            } else if let Some(v) = arg.strip_prefix("telemetry_overhead=") {
                if v.is_empty() {
                    return Err("invalid telemetry_overhead=: expected a path".to_owned());
                }
                parsed.telemetry_overhead = Some(PathBuf::from(v));
            } else {
                return Err(format!(
                    "invalid argument {arg:?}: expected budget=N, samples=N, out=PATH, \
                     check=PATH, tolerance=F, floor=F or telemetry_overhead=PATH"
                ));
            }
        }
        Ok(parsed)
    }

    /// Parses `std::env::args`, exiting with status 2 on a malformed
    /// argument.
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
}

/// Runs the full harness: measure, write the report, and apply the optional
/// baseline / floor checks. Returns the process exit code.
#[must_use]
pub fn run(args: &PerfArgs) -> i32 {
    let jobs = perf_jobs(args.budget);
    println!(
        "measuring {} points (budget={}, samples={}) ...",
        jobs.len(),
        args.budget,
        args.samples
    );
    let entries = measure(&jobs, args.samples);
    let mut table = String::new();
    for entry in &entries {
        let _ = writeln!(
            table,
            "  {:8} {:24} {:7} {:>10.3} MIPS  {:>12.0} cycles/s  {:>5.1}% skipped",
            entry.family,
            entry.workload,
            entry.mode,
            entry.mips,
            entry.cycles_per_sec,
            entry.skipped_frac() * 100.0
        );
    }
    print!("{table}");
    let fresh = family_geomeans(&entries);
    for (family, geomean) in &fresh {
        println!("family {family}: {geomean:.3} MIPS (geomean)");
    }
    if let Some(calibrated) = calibrated_best_geomean(&entries) {
        println!("calibrated best geomean: {calibrated:.4}x the emulator control");
    }
    let json = report_to_json(&entries);
    if let Err(err) = std::fs::write(&args.out, &json) {
        eprintln!("failed to write {}: {err}", args.out.display());
        return 1;
    }
    println!("wrote {}", args.out.display());

    let mut failed = false;
    // The event-driven clock must actually engage: if no D-KIP workload
    // skipped a single cycle, the fast path has silently rotted (every
    // memory-bound sweep quiesces somewhere).
    let dkip_skipped: u64 = entries
        .iter()
        .filter(|e| e.family == "dkip")
        .map(|e| e.cycles_skipped)
        .sum();
    if dkip_skipped == 0 {
        eprintln!("event-driven clock: no dkip workload skipped any cycle [FAILED]");
        failed = true;
    } else {
        println!("event-driven clock: dkip skipped {dkip_skipped} quiesced cycles [ok]");
    }
    // The sampled fast path must actually be fast: each sampled D-KIP row
    // must reach SAMPLED_SPEEDUP_FLOOR × the MIPS of its exact twin.
    let speedups = sampled_speedups(&entries);
    if speedups.is_empty() {
        eprintln!("sampled throughput: no sampled rows in the matrix [FAILED]");
        failed = true;
    }
    for (point, speedup) in &speedups {
        if *speedup >= SAMPLED_SPEEDUP_FLOOR {
            println!("sampled throughput: {point} {speedup:.2}x exact (>= {SAMPLED_SPEEDUP_FLOOR}x) [ok]");
        } else {
            eprintln!("sampled throughput: {point} {speedup:.2}x exact (< {SAMPLED_SPEEDUP_FLOOR}x) [FAILED]");
            failed = true;
        }
    }
    if args.floor > 0.0 {
        match fresh.iter().find(|(f, _)| f == "dkip") {
            Some((_, mips)) if *mips >= args.floor => {
                println!(
                    "dkip throughput floor: {mips:.3} >= {} MIPS [ok]",
                    args.floor
                );
            }
            Some((_, mips)) => {
                eprintln!(
                    "dkip throughput floor: {mips:.3} < {} MIPS [FAILED]",
                    args.floor
                );
                failed = true;
            }
            None => {
                eprintln!("dkip throughput floor: family missing from run [FAILED]");
                failed = true;
            }
        }
    }
    if let Some(check) = &args.check {
        match std::fs::read_to_string(check) {
            Err(err) => {
                eprintln!("failed to read baseline {}: {err}", check.display());
                failed = true;
            }
            Ok(baseline_json) => {
                let report = compare_to_baseline(&fresh, &baseline_json, args.tolerance);
                for line in &report.lines {
                    println!("{line}");
                }
                if report.lines.is_empty() {
                    eprintln!("baseline {} contains no families [FAILED]", check.display());
                    failed = true;
                }
                if !report.regressed.is_empty() {
                    eprintln!(
                        "throughput regression (> {:.0}%) in: {}",
                        args.tolerance * 100.0,
                        report.regressed.join(", ")
                    );
                    failed = true;
                }
            }
        }
    }
    if let Some(baseline) = &args.telemetry_overhead {
        match std::fs::read_to_string(baseline) {
            Err(err) => {
                eprintln!(
                    "failed to read telemetry-overhead baseline {}: {err}",
                    baseline.display()
                );
                failed = true;
            }
            Ok(baseline_json) => {
                let fresh_best = family_best_geomeans(&entries);
                let base_best = parse_family_best_geomeans(&baseline_json);
                for (family, mips) in &fresh_best {
                    let base = base_best
                        .iter()
                        .find(|(f, _)| f == family)
                        .map_or(f64::NAN, |(_, v)| *v);
                    println!(
                        "telemetry overhead: {family}: best {mips:.3} MIPS vs baseline {base:.3}"
                    );
                }
                // The overall geomean only means the same thing in both
                // reports if they cover the same families: a silently
                // dropped (slow) family would inflate the fresh figure.
                let fresh_names: Vec<&String> = fresh_best.iter().map(|(f, _)| f).collect();
                let base_names: Vec<&String> = base_best.iter().map(|(f, _)| f).collect();
                if fresh_names != base_names {
                    eprintln!(
                        "telemetry overhead: family mismatch, fresh {fresh_names:?} vs \
                         baseline {base_names:?} [FAILED]"
                    );
                    failed = true;
                }
                let fresh_ratio = calibrated_best_geomean(&entries);
                let base_ratio = parse_calibrated_best_geomean(&baseline_json);
                match (fresh_ratio, base_ratio) {
                    (Some(fresh_ratio), Some(base_ratio)) => {
                        let floor = base_ratio * (1.0 - TELEMETRY_OVERHEAD_TOLERANCE);
                        let delta = (fresh_ratio / base_ratio - 1.0) * 100.0;
                        let verdict = if fresh_ratio >= floor {
                            "ok"
                        } else {
                            failed = true;
                            "FAILED"
                        };
                        let line = format!(
                            "telemetry overhead: calibrated best geomean {fresh_ratio:.4}x \
                             emulator vs baseline {base_ratio:.4}x ({delta:+.1}%, \
                             tolerance {:.0}%) [{verdict}]",
                            TELEMETRY_OVERHEAD_TOLERANCE * 100.0
                        );
                        if fresh_ratio >= floor {
                            println!("{line}");
                        } else {
                            eprintln!("{line}");
                        }
                    }
                    _ => {
                        eprintln!(
                            "telemetry-overhead baseline {} has no calibrated_best_geomean \
                             figure (pre-v4 report?) [FAILED]",
                            baseline.display()
                        );
                        failed = true;
                    }
                }
            }
        }
    }
    i32::from(failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(family: &'static str, workload: &str, mips: f64) -> ThroughputEntry {
        ThroughputEntry {
            family,
            machine: family.to_uppercase(),
            workload: workload.to_owned(),
            mode: "exact",
            budget: 1000,
            committed: 1000,
            covered: 1000,
            cycles: 2000,
            ticks_executed: 1500,
            cycles_skipped: 500,
            mips,
            // Best-sample throughput is deliberately distinct from the mean
            // figure so tests catch code comparing the wrong one; the
            // calibration control is a fixed 50 MIPS so calibrated ratios
            // are mips_best / 50.
            mips_best: mips * 2.0,
            calib_mips_best: 50.0,
            cycles_per_sec: mips * 2e6,
            measurement: Measurement {
                group: family.to_owned(),
                name: workload.to_owned(),
                samples: 2,
                mean_ns: 1e6,
                min_ns: 1e6,
                max_ns: 1e6,
                total_ns: 2e6,
                elements_per_iter: Some(1000),
            },
        }
    }

    #[test]
    fn geomeans_group_by_family_in_order() {
        let entries = vec![
            entry("baseline", "gcc", 4.0),
            entry("baseline", "swim", 1.0),
            entry("dkip", "gcc", 3.0),
        ];
        let means = family_geomeans(&entries);
        assert_eq!(means.len(), 2);
        assert_eq!(means[0].0, "baseline");
        assert!((means[0].1 - 2.0).abs() < 1e-12, "geomean(4, 1) = 2");
        assert_eq!(means[1].0, "dkip");
    }

    #[test]
    fn report_json_round_trips_family_geomeans() {
        let entries = vec![
            entry("baseline", "gcc", 4.0),
            entry("baseline", "swim", 1.0),
            entry("kilo", "gcc", 2.5),
            entry("dkip", "swim", 1.5),
        ];
        let json = report_to_json(&entries);
        let parsed = parse_family_geomeans(&json);
        let direct = family_geomeans(&entries);
        assert_eq!(parsed.len(), direct.len());
        for ((pf, pv), (df, dv)) in parsed.iter().zip(&direct) {
            assert_eq!(pf, df);
            assert!((pv - dv).abs() < 1e-9, "{pf}: {pv} vs {dv}");
        }
        // The best-sample geomeans (2× the mean figures in the test helper)
        // round-trip independently and must not be confused with the mean.
        let parsed_best = parse_family_best_geomeans(&json);
        let direct_best = family_best_geomeans(&entries);
        assert_eq!(parsed_best.len(), direct_best.len());
        for ((pf, pv), (df, dv)) in parsed_best.iter().zip(&direct_best) {
            assert_eq!(pf, df);
            assert!((pv - dv).abs() < 1e-9, "{pf} best: {pv} vs {dv}");
            let (_, mean) = direct.iter().find(|(f, _)| f == pf).unwrap();
            assert!((pv - mean * 2.0).abs() < 1e-9, "{pf}: best is 2x mean");
        }
    }

    #[test]
    fn parser_ignores_entry_section_families() {
        // "family" keys also appear inside "entries"; only the "families"
        // summary must be parsed.
        let entries = vec![entry("baseline", "gcc", 4.0)];
        let json = report_to_json(&entries);
        let parsed = parse_family_geomeans(&json);
        assert_eq!(parsed, vec![("baseline".to_owned(), 4.0)]);
    }

    #[test]
    fn regressions_are_detected_with_tolerance() {
        let baseline_entries = vec![entry("baseline", "gcc", 4.0), entry("dkip", "swim", 2.0)];
        let baseline_json = report_to_json(&baseline_entries);
        // baseline family fine, dkip 40% slower than baseline.
        let fresh = vec![("baseline".to_owned(), 3.9), ("dkip".to_owned(), 1.2)];
        let report = compare_to_baseline(&fresh, &baseline_json, 0.30);
        assert_eq!(report.regressed, vec!["dkip".to_owned()]);
        assert!(report.lines.iter().any(|l| l.contains("REGRESSED")));
    }

    #[test]
    fn faster_runs_never_regress() {
        let baseline_json = report_to_json(&[entry("dkip", "swim", 1.0)]);
        let fresh = vec![("dkip".to_owned(), 10.0)];
        let report = compare_to_baseline(&fresh, &baseline_json, 0.30);
        assert!(report.regressed.is_empty());
    }

    #[test]
    fn missing_families_count_as_regressions() {
        let baseline_json = report_to_json(&[entry("dkip", "swim", 1.0)]);
        let report = compare_to_baseline(&[], &baseline_json, 0.30);
        assert_eq!(report.regressed, vec!["dkip".to_owned()]);
    }

    #[test]
    fn telemetry_overhead_gate_reads_best_sample_figures() {
        // The helper records best = 2x mean, so parsing the wrong column
        // out of the baseline would be off by a factor of two.
        let baseline_json = report_to_json(&[entry("dkip", "swim", 1.0)]);
        let best = parse_family_best_geomeans(&baseline_json);
        assert_eq!(best.len(), 1);
        assert!((best[0].1 - 2.0).abs() < 1e-9, "best geomean is 2x mean");
        // A pre-v4 baseline carries no best-sample geomeans at all: the
        // gate must fail it, never pass-by-default.
        let pre_v4 = "{\"families\": [{\"family\": \"dkip\", \"mips_geomean\": 1}]}";
        assert!(parse_family_best_geomeans(pre_v4).is_empty());
        assert_eq!(overall_geomean(&parse_family_best_geomeans(pre_v4)), None);
    }

    #[test]
    fn calibrated_geomean_round_trips_through_the_report() {
        // calib_mips_best is a fixed 50 in the helper, so the calibrated
        // ratios are mips_best / 50: geomean(2/50, 8/50) = 4/50 = 0.08.
        let entries = vec![entry("dkip", "gcc", 1.0), entry("dkip", "swim", 4.0)];
        let direct = calibrated_best_geomean(&entries).unwrap();
        assert!((direct - 0.08).abs() < 1e-12, "geomean of paired ratios");
        let json = report_to_json(&entries);
        assert!(json.contains("\"calib_mips_best\": 50"));
        let parsed = parse_calibrated_best_geomean(&json).unwrap();
        assert!((parsed - direct).abs() < 1e-9);
        // A report whose entries carry no usable control must not write the
        // figure at all — and the parser must report that as None, so the
        // gate fails such a baseline instead of passing by default.
        let mut uncalibrated = entry("dkip", "swim", 1.0);
        uncalibrated.calib_mips_best = 0.0;
        let without = report_to_json(&[uncalibrated]);
        assert!(!without.contains("calibrated_best_geomean"));
        assert_eq!(parse_calibrated_best_geomean(&without), None);
    }

    #[test]
    fn calibrated_geomean_uses_exact_entries_only() {
        let mut sampled = entry("dkip", "gcc", 100.0);
        sampled.mode = "sampled";
        let entries = vec![entry("dkip", "gcc", 1.0), sampled];
        let overall = calibrated_best_geomean(&entries).unwrap();
        assert!(
            (overall - 0.04).abs() < 1e-12,
            "the fast sampled row must not inflate the calibrated figure"
        );
    }

    #[test]
    fn calibration_measures_the_emulator_control() {
        assert!(measure_calibration() > 0.0);
    }

    #[test]
    fn overall_geomean_aggregates_family_figures() {
        let pairs = vec![("a".to_owned(), 2.0), ("b".to_owned(), 8.0)];
        let overall = overall_geomean(&pairs).unwrap();
        assert!((overall - 4.0).abs() < 1e-12, "geomean(2, 8) = 4");
        assert_eq!(overall_geomean(&[]), None);
        // 2% gate arithmetic on a calibrated figure: 0.0392 vs a baseline
        // of 0.04 passes, 0.0391 fails.
        let floor = 0.04 * (1.0 - TELEMETRY_OVERHEAD_TOLERANCE);
        assert!(0.0392 >= floor && 0.0391 < floor);
    }

    #[test]
    fn report_json_carries_clock_and_mode_telemetry() {
        let mut sampled = entry("dkip", "swim", 8.0);
        sampled.mode = "sampled";
        sampled.covered = 10_000;
        let entries = vec![entry("dkip", "swim", 2.0), sampled];
        let json = report_to_json(&entries);
        assert!(json.contains("\"schema\": \"dkip-sim-throughput/v4\""));
        assert!(json.contains("\"min_ns\": 1000000"));
        assert!(json.contains("\"mips_best\": 4"));
        assert!(json.contains("\"ticks_executed\": 1500"));
        assert!(json.contains("\"cycles_skipped\": 500"));
        assert!(json.contains("\"skipped_frac\": 0.25"));
        assert!(json.contains("\"mode\": \"exact\""));
        assert!(json.contains("\"mode\": \"sampled\""));
        assert!(json.contains("\"covered\": 10000"));
        assert!(json.contains("\"point\": \"dkip/swim\", \"speedup\": 4"));
        assert!((entries[0].skipped_frac() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn family_geomeans_exclude_sampled_rows() {
        let mut sampled = entry("dkip", "gcc", 100.0);
        sampled.mode = "sampled";
        let entries = vec![
            entry("dkip", "gcc", 2.0),
            entry("dkip", "swim", 8.0),
            sampled,
        ];
        let means = family_geomeans(&entries);
        assert_eq!(means.len(), 1);
        assert!((means[0].1 - 4.0).abs() < 1e-12, "geomean(2, 8) = 4");
        // The (fast) sampled row must not inflate the pinned exact geomean.
    }

    #[test]
    fn sampled_speedups_pair_rows_and_fail_loudly_when_unpaired() {
        let mut sampled = entry("dkip", "gcc", 9.0);
        sampled.mode = "sampled";
        let mut orphan = entry("dkip", "mesa", 9.0);
        orphan.mode = "sampled";
        let entries = vec![entry("dkip", "gcc", 3.0), sampled, orphan];
        let speedups = sampled_speedups(&entries);
        assert_eq!(speedups.len(), 2);
        assert_eq!(speedups[0].0, "dkip/gcc");
        assert!((speedups[0].1 - 3.0).abs() < 1e-12);
        assert_eq!(
            speedups[1],
            ("dkip/mesa".to_owned(), 0.0),
            "a sampled row with no exact twin reports 0x so floor checks fail"
        );
    }

    #[test]
    fn perf_args_parse_strictly() {
        let ok = PerfArgs::parse(
            [
                "budget=5000",
                "samples=2",
                "out=x.json",
                "tolerance=0.2",
                "floor=0.5",
            ]
            .iter()
            .map(|s| (*s).to_owned()),
        )
        .unwrap();
        assert_eq!(ok.budget, 5000);
        assert_eq!(ok.samples, 2);
        assert_eq!(ok.out, PathBuf::from("x.json"));
        assert!((ok.tolerance - 0.2).abs() < 1e-12);
        assert!((ok.floor - 0.5).abs() < 1e-12);
        assert_eq!(ok.telemetry_overhead, None);
        let gated = PerfArgs::parse(
            ["telemetry_overhead=ci/perf_baseline.json"]
                .iter()
                .map(|s| (*s).to_owned()),
        )
        .unwrap();
        assert_eq!(
            gated.telemetry_overhead,
            Some(PathBuf::from("ci/perf_baseline.json"))
        );
        assert!(PerfArgs::parse(["telemetry_overhead="].iter().map(|s| (*s).to_owned())).is_err());
        assert!(PerfArgs::parse(["budget=0"].iter().map(|s| (*s).to_owned())).is_err());
        assert!(PerfArgs::parse(["samples=none"].iter().map(|s| (*s).to_owned())).is_err());
        assert!(PerfArgs::parse(["tolerance=1.5"].iter().map(|s| (*s).to_owned())).is_err());
        assert!(PerfArgs::parse(["bogus"].iter().map(|s| (*s).to_owned())).is_err());
        assert!(PerfArgs::parse(["out="].iter().map(|s| (*s).to_owned())).is_err());
    }

    #[test]
    fn perf_jobs_cover_every_family_and_both_workload_kinds() {
        let jobs = perf_jobs(10_000);
        assert_eq!(
            jobs.len(),
            14,
            "3 families x 4 workloads + 2 sampled dkip rows"
        );
        for family in ["baseline", "kilo", "dkip"] {
            let of_family: Vec<_> = jobs
                .iter()
                .filter(|j| j.machine.family() == family && j.sample.is_none())
                .collect();
            assert_eq!(of_family.len(), 4);
            assert!(
                of_family.iter().any(|j| j.workload.is_finite()),
                "{family} runs RISC-V"
            );
            assert!(
                of_family.iter().any(|j| !j.workload.is_finite()),
                "{family} runs Spec"
            );
        }
        assert!(
            jobs.iter().all(|j| j.metrics.is_none()),
            "perf jobs time the disabled-probe hot path: no metrics sink"
        );
        let sampled: Vec<_> = jobs.iter().filter(|j| j.sample.is_some()).collect();
        assert_eq!(sampled.len(), 2, "dkip gcc + swim re-run under sampling");
        for job in &sampled {
            assert_eq!(job.machine.family(), "dkip");
            assert!(!job.workload.is_finite(), "sampled rows use endless Spec");
            assert_eq!(
                job.sample.unwrap().to_string(),
                PERF_SAMPLE_RATE,
                "sampled rows run at the documented perf rate"
            );
        }
    }

    #[test]
    fn measured_sampled_rows_cover_the_budget_cheaply() {
        let rate = SampleConfig::parse(PERF_SAMPLE_RATE).unwrap();
        let job = Job::new(
            "sampled-smoke",
            Machine::Dkip(DkipConfig::paper_default()),
            MemoryHierarchyConfig::mem_400(),
            Benchmark::Gcc,
            40_000,
        )
        .with_sample(rate);
        let entries = measure(&[job], 1);
        assert_eq!(entries[0].mode, "sampled");
        assert!(entries[0].covered >= 40_000, "covers the whole budget");
        assert!(
            entries[0].committed < entries[0].covered / 5,
            "only the detailed windows commit: {} of {}",
            entries[0].committed,
            entries[0].covered
        );
        assert!(entries[0].mips > 0.0);
    }

    #[test]
    fn measure_produces_positive_rates() {
        let jobs = vec![Job::new(
            "smoke",
            Machine::Baseline(BaselineConfig::r10_64()),
            MemoryHierarchyConfig::mem_400(),
            Benchmark::Gcc,
            1_000,
        )];
        let entries = measure(&jobs, 1);
        assert_eq!(entries.len(), 1);
        assert!(entries[0].mips > 0.0);
        assert!(entries[0].cycles_per_sec > 0.0);
        assert_eq!(
            entries[0].committed,
            entries[0].measurement.elements_per_iter.unwrap()
        );
    }
}
