//! Telemetry invariance contract: attaching the probe sink must be
//! *observationally pure*. Every pinned golden sweep — the three
//! Spec-family suites and the 18-job RISC-V matrix — is run with interval
//! metrics off and on (a runner carrying a [`MetricsConfig`]), at exactly
//! 1 and 8 runner threads, and the full `SimStats::to_kv()` serialisations
//! must be bit-identical.
//! The per-job metrics files themselves must also be byte-identical across
//! thread counts (rows are keyed on committed instructions, not host
//! scheduling). A differential-fuzz pass with both telemetry backends
//! attached closes the loop: probed cores still drain generated programs to
//! the exact oracle state.
//!
//! `golden_stats.rs` separately pins the unprobed output against the
//! snapshots in `tests/golden/`, so together the two tests prove
//! probe-on == probe-off == golden.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use dkip::riscv::GenConfig;
use dkip::sim::fuzz::{check_config, check_source, FuzzOptions};
use dkip::sim::runner::{results_to_kv, JobResult};
use dkip::sim::suites;
use dkip::sim::SweepRunner;
use dkip_model::MetricsConfig;

/// Interval chosen so even the 4k-instruction golden budgets produce
/// several rows per job.
const INTERVAL: u64 = 500;

fn metrics_dir(suite: &str, threads: usize) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join("telemetry_invariance")
        .join(format!("{suite}-{threads}t"))
}

fn run_suite(name: &str, threads: usize, metrics: Option<&Path>) -> Vec<JobResult> {
    let mut runner = SweepRunner::new(threads);
    if let Some(dir) = metrics {
        // Start from an empty directory so stale files from an earlier run
        // can never satisfy (or break) the comparison.
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).expect("create metrics dir");
        runner = runner.with_metrics(MetricsConfig {
            path: format!("{}/m.csv", dir.display()),
            interval: INTERVAL,
        });
    }
    let jobs = suites::golden_suites()
        .into_iter()
        .find(|(suite_name, _)| *suite_name == name)
        .map(|(_, jobs)| jobs)
        .expect("known suite name");
    runner.run(&jobs)
}

/// Reads every metrics file of a run directory into `name -> contents`.
fn read_metrics(dir: &Path) -> BTreeMap<String, String> {
    std::fs::read_dir(dir)
        .expect("metrics dir exists")
        .map(|entry| {
            let entry = entry.expect("readable dir entry");
            let name = entry.file_name().to_string_lossy().into_owned();
            let contents = std::fs::read_to_string(entry.path()).expect("readable metrics file");
            (name, contents)
        })
        .collect()
}

fn check_suite(name: &str) {
    let mut per_thread_files: Vec<BTreeMap<String, String>> = Vec::new();
    for threads in [1, 8] {
        let off = run_suite(name, threads, None);
        let dir = metrics_dir(name, threads);
        let on = run_suite(name, threads, Some(&dir));
        assert_eq!(
            results_to_kv(&off),
            results_to_kv(&on),
            "suite {name} at {threads} threads: attaching the metrics probe must be \
             bit-identical to running unprobed"
        );
        let files = read_metrics(&dir);
        assert_eq!(
            files.len(),
            on.len(),
            "suite {name} at {threads} threads: one metrics file per job"
        );
        assert!(
            files.values().all(|text| text.lines().count() >= 2),
            "suite {name} at {threads} threads: every metrics file has a header and rows"
        );
        per_thread_files.push(files);
    }
    assert_eq!(
        per_thread_files[0], per_thread_files[1],
        "suite {name}: metrics files must be byte-identical across thread counts"
    );
}

#[test]
fn spec_baseline_suite_is_bit_identical_with_telemetry() {
    check_suite("baseline.golden");
}

#[test]
fn spec_kilo_suite_is_bit_identical_with_telemetry() {
    check_suite("kilo.golden");
}

#[test]
fn spec_dkip_suite_is_bit_identical_with_telemetry() {
    check_suite("dkip.golden");
}

#[test]
fn riscv_18_job_matrix_is_bit_identical_with_telemetry() {
    check_suite("riscv.golden");
}

#[test]
fn fuzzed_programs_agree_with_the_oracle_under_both_backends() {
    // One generated-program differential pass per seed with the in-memory
    // metrics + trace sink attached: the oracle comparison inside
    // `check_config` proves a probed core still drains the exact program,
    // and the agreement must match the unprobed run's.
    let probed = FuzzOptions {
        probed: true,
        sampled: false,
        envelope: false,
        ..FuzzOptions::default()
    };
    let plain = FuzzOptions {
        probed: false,
        ..probed.clone()
    };
    for seed in 0..4 {
        let cfg = GenConfig::new(seed);
        let with =
            check_config(&cfg, &probed).unwrap_or_else(|m| panic!("seed {seed} probed: {m}"));
        let without =
            check_config(&cfg, &plain).unwrap_or_else(|m| panic!("seed {seed} unprobed: {m}"));
        assert_eq!(
            with, without,
            "seed {seed}: probing must not change agreement"
        );
    }
    // And one fixed long-loop program that spans many metrics intervals.
    let src = "li t0, 2000\nloop:\n  addi t0, t0, -1\n  bnez t0, loop\necall";
    check_source(src, &probed).expect("probed loop program agrees");
}
