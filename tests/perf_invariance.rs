//! Perf-invariance contract: the hot-path optimizations (arena/scoreboard
//! issue queues, pooled consumer tables, fast deterministic hashing, the
//! slot-indexed LSQ) must be *observationally pure*. This test regenerates
//! every pinned golden sweep — the three Spec-family snapshots and the
//! 18-job RISC-V matrix — at exactly 1 and 8 runner threads and requires
//! `SimStats::to_kv()` to be bit-identical to the checked-in snapshots.
//!
//! It deliberately duplicates part of `golden_stats.rs` (which compares the
//! serial run against a 4-thread pool): here the 1- and 8-thread counts are
//! pinned too, so a thread-sensitivity bug needs to survive three pool
//! sizes to hide.

use std::path::PathBuf;

use dkip::sim::golden;
use dkip::sim::runner::results_to_kv;
use dkip::sim::suites;
use dkip::sim::SweepRunner;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(name)
}

/// Runs one pinned suite at a fixed thread count and diffs it against its
/// snapshot.
fn check_suite_at(threads: usize, name: &str) {
    let jobs = suites::golden_suites()
        .into_iter()
        .find(|(suite_name, _)| *suite_name == name)
        .map(|(_, jobs)| jobs)
        .expect("known suite name");
    let serialised = results_to_kv(&SweepRunner::new(threads).run(&jobs));
    if let Err(err) = golden::check(&golden_path(name), &serialised) {
        panic!("suite {name} at {threads} threads: {err}");
    }
}

#[test]
fn spec_baseline_snapshot_is_bit_identical_at_1_and_8_threads() {
    check_suite_at(1, "baseline.golden");
    check_suite_at(8, "baseline.golden");
}

#[test]
fn spec_kilo_snapshot_is_bit_identical_at_1_and_8_threads() {
    check_suite_at(1, "kilo.golden");
    check_suite_at(8, "kilo.golden");
}

#[test]
fn spec_dkip_snapshot_is_bit_identical_at_1_and_8_threads() {
    check_suite_at(1, "dkip.golden");
    check_suite_at(8, "dkip.golden");
}

#[test]
fn riscv_18_job_matrix_is_bit_identical_at_1_and_8_threads() {
    let jobs = suites::golden_riscv_jobs();
    assert_eq!(jobs.len(), 18, "the full 6-kernel x 3-family matrix");
    check_suite_at(1, "riscv.golden");
    check_suite_at(8, "riscv.golden");
}

/// Repeated runs of one job within a process must also agree with each
/// other — catches accidental global state (e.g. pooled buffers leaking
/// state between machines).
#[test]
fn repeated_runs_are_self_consistent() {
    for (_, jobs) in suites::golden_suites() {
        let first = results_to_kv(&SweepRunner::serial().run(&jobs[..1]));
        let second = results_to_kv(&SweepRunner::serial().run(&jobs[..1]));
        assert_eq!(first, second);
    }
}
