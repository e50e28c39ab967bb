//! Chaos-engineering contract tests: deterministic fault injection
//! (`dkip::sim::chaos`) against the runner and store hardening.
//!
//! The invariants under test, shared with `make chaos-check`:
//!
//! * a panicking or failing job becomes a recorded `JobFailure`, never a
//!   sweep abort,
//! * store faults degrade caching, never correctness — any result that is
//!   produced at all is byte-identical to a fault-free run, and no
//!   partial cache entry is ever left behind,
//! * disarming heals: a fault-free re-run over the same store converges
//!   to a fully green, fully warm, byte-identical sweep.
//!
//! Every test serialises on one lock: the chaos registry is process-wide,
//! so an armed fault in one test must not leak into another running
//! concurrently. Runners are serial so fault-consultation order (and
//! therefore `firstK` behaviour) is deterministic.

use std::path::PathBuf;
use std::sync::Mutex;

use dkip::sim::chaos;
use dkip::sim::runner::results_to_kv;
use dkip::sim::store::ResultStore;
use dkip::sim::{suites, Job, SweepRunner};

/// Serialises every test in this binary: chaos arming is process-global.
static CHAOS_LOCK: Mutex<()> = Mutex::new(());

/// Disarms on drop, so a failing assertion cannot leave faults armed for
/// the next test.
struct Armed;

impl Armed {
    fn arm(spec: &str) -> Armed {
        chaos::arm(spec).expect("valid fault spec");
        Armed
    }
}

impl Drop for Armed {
    fn drop(&mut self) {
        chaos::disarm();
    }
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dkip-chaos-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn kilo_jobs(budget: u64) -> Vec<Job> {
    suites::golden_suite_jobs("kilo", Some(budget)).expect("kilo suite exists")
}

/// Recursively counts files whose name contains `needle` under `dir`.
fn files_containing(dir: &PathBuf, needle: &str) -> usize {
    let mut count = 0;
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            count += files_containing(&path, needle);
        } else if path
            .file_name()
            .is_some_and(|n| n.to_str().is_some_and(|n| n.contains(needle)))
        {
            count += 1;
        }
    }
    count
}

#[test]
fn injected_job_panics_are_isolated_and_reported() {
    let _guard = CHAOS_LOCK.lock().unwrap();
    let jobs = kilo_jobs(1_000);
    let reference = results_to_kv(&SweepRunner::serial().run(&jobs));
    let report = {
        let _armed = Armed::arm("job.panic:first1:0");
        SweepRunner::serial().run_report(&jobs)
    };
    assert_eq!(report.failures.len(), 1, "exactly the first job fails");
    assert_eq!(report.results.len(), jobs.len() - 1);
    let failure = &report.failures[0];
    assert_eq!(failure.index, 0);
    assert_eq!(failure.label, jobs[0].label);
    assert!(
        failure.message.contains(chaos::CHAOS_TAG),
        "failure carries the injected panic payload: {}",
        failure.message
    );
    assert!(!report.is_complete());
    // Disarmed, the same sweep heals completely.
    let healed = SweepRunner::serial().run_report(&jobs);
    assert!(healed.is_complete());
    assert_eq!(results_to_kv(&healed.results), reference);
}

#[test]
fn metrics_write_faults_become_job_failures_not_aborts() {
    let _guard = CHAOS_LOCK.lock().unwrap();
    let dir = scratch("metrics");
    std::fs::create_dir_all(&dir).unwrap();
    let metrics_path = dir.join("metrics.csv");
    let mut job = kilo_jobs(1_000).remove(0);
    job.metrics = Some(dkip::model::MetricsConfig {
        path: metrics_path.to_str().unwrap().to_owned(),
        interval: 200,
    });
    let report = {
        let _armed = Armed::arm("metrics.write:1:0");
        SweepRunner::serial().run_report(std::slice::from_ref(&job))
    };
    assert_eq!(report.failures.len(), 1);
    assert!(
        report.failures[0].message.contains("cannot write"),
        "metrics-write failures are recorded, not fatal: {}",
        report.failures[0].message
    );
    // Disarmed, the probed job succeeds and writes its file.
    let healed = SweepRunner::serial().run_report(std::slice::from_ref(&job));
    assert!(healed.is_complete());
    assert_eq!(files_containing(&dir, "metrics"), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn transient_store_write_faults_retry_and_recover() {
    let _guard = CHAOS_LOCK.lock().unwrap();
    let job = kilo_jobs(800).remove(0);
    let store = ResultStore::open(scratch("transient")).unwrap();
    {
        // Two injected failures, three write attempts: the insert rides
        // out the transient and the entry lands on disk.
        let _armed = Armed::arm("store.write:first2:0");
        let report = SweepRunner::serial()
            .with_store(store.clone())
            .run_report(std::slice::from_ref(&job));
        assert!(report.is_complete());
        assert_eq!(report.misses, 1);
    }
    assert_eq!(store.write_errors(), 0, "the retry absorbed the transient");
    assert!(!store.degraded());
    let warm = SweepRunner::serial()
        .with_store(store.clone())
        .run_report(std::slice::from_ref(&job));
    assert_eq!(warm.hits, 1, "the retried write produced a servable entry");
    let _ = std::fs::remove_dir_all(store.root());
}

#[test]
fn exhausted_store_writes_degrade_to_uncached_but_stay_correct() {
    let _guard = CHAOS_LOCK.lock().unwrap();
    let jobs = kilo_jobs(1_200);
    let reference = results_to_kv(&SweepRunner::serial().run(&jobs));
    let dir = scratch("degrade");
    let store = ResultStore::open(&dir).unwrap();
    let report = {
        let _armed = Armed::arm("store.write:1:11");
        SweepRunner::serial()
            .with_store(store.clone())
            .run_report(&jobs)
    };
    assert!(report.is_complete(), "write faults never fail jobs");
    assert_eq!(
        results_to_kv(&report.results),
        reference,
        "uncached results are byte-identical to a fault-free run"
    );
    assert_eq!(store.write_errors(), 1, "one exhausted write trips degrade");
    assert!(store.degraded());
    assert_eq!(files_containing(&dir, ".entry"), 0, "no entries written");
    assert_eq!(files_containing(&dir, ".tmp"), 0, "no torn temp files");
    // A fresh open over the same directory (faults disarmed) writes again.
    let healed_store = ResultStore::open(&dir).unwrap();
    let cold = SweepRunner::serial()
        .with_store(healed_store.clone())
        .run_report(&jobs);
    assert_eq!(cold.misses, jobs.len() as u64);
    let warm = SweepRunner::serial()
        .with_store(healed_store)
        .run_report(&jobs);
    assert_eq!(warm.hits, jobs.len() as u64, "the heal run is fully warm");
    assert_eq!(results_to_kv(&warm.results), reference);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_read_faults_force_byte_identical_recomputes() {
    let _guard = CHAOS_LOCK.lock().unwrap();
    let jobs = kilo_jobs(900);
    let store = ResultStore::open(scratch("readfault")).unwrap();
    let cold = SweepRunner::serial()
        .with_store(store.clone())
        .run_report(&jobs);
    let reference = results_to_kv(&cold.results);
    let faulted = {
        let _armed = Armed::arm("store.read:1:13");
        SweepRunner::serial()
            .with_store(store.clone())
            .run_report(&jobs)
    };
    assert_eq!(faulted.hits, 0, "every lookup was injected to fail");
    assert_eq!(faulted.misses, jobs.len() as u64);
    assert_eq!(
        results_to_kv(&faulted.results),
        reference,
        "recomputes under read faults match the cached results exactly"
    );
    // Disarmed, the (rewritten) entries serve hits again.
    let warm = SweepRunner::serial()
        .with_store(store.clone())
        .run_report(&jobs);
    assert_eq!(warm.hits, jobs.len() as u64);
    assert_eq!(results_to_kv(&warm.results), reference);
    let _ = std::fs::remove_dir_all(store.root());
}

#[test]
fn chaos_campaign_heals_to_a_fully_green_warm_sweep() {
    let _guard = CHAOS_LOCK.lock().unwrap();
    let jobs = kilo_jobs(1_100);
    let reference = results_to_kv(&SweepRunner::serial().run(&jobs));
    let store = ResultStore::open(scratch("heal")).unwrap();
    let campaign = {
        let _armed = Armed::arm("job.panic:first2:0");
        SweepRunner::serial()
            .with_store(store.clone())
            .run_report(&jobs)
    };
    assert_eq!(campaign.failures.len(), 2, "the first two jobs died");
    assert_eq!(campaign.results.len(), jobs.len() - 2);
    // Heal: disarmed re-run over the same store hits the survivors,
    // computes only the casualties, and matches the reference exactly.
    let healed = SweepRunner::serial()
        .with_store(store.clone())
        .run_report(&jobs);
    assert!(healed.is_complete());
    assert_eq!(
        (healed.hits, healed.misses),
        (jobs.len() as u64 - 2, 2),
        "only the failed jobs recompute during the heal"
    );
    assert_eq!(results_to_kv(&healed.results), reference);
    let warm = SweepRunner::serial()
        .with_store(store.clone())
        .run_report(&jobs);
    assert_eq!(
        warm.hits,
        jobs.len() as u64,
        "second heal pass is fully warm"
    );
    let _ = std::fs::remove_dir_all(store.root());
}

#[test]
fn run_panics_with_a_failure_summary_when_jobs_fail() {
    let _guard = CHAOS_LOCK.lock().unwrap();
    let jobs = kilo_jobs(800);
    let payload = {
        let _armed = Armed::arm("job.panic:1:0");
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            SweepRunner::serial().run(&jobs)
        }))
        .expect_err("run() must refuse a partial sweep")
    };
    let message = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(
        message.contains("sweep jobs failed"),
        "a failed figure sweep dies with a counted summary, got: {message}"
    );
}

#[test]
fn fault_specs_are_validated_through_the_public_api() {
    let _guard = CHAOS_LOCK.lock().unwrap();
    assert!(chaos::arm("job.panic:1:0").is_ok());
    chaos::disarm();
    assert!(chaos::arm("job.reboot:1:0").is_err(), "unknown point");
    assert!(chaos::arm("job.panic:2:0").is_err(), "rate out of range");
    assert!(chaos::arm("job.panic:1").is_err(), "missing seed");
    assert!(!chaos::armed(), "a rejected spec must not arm anything");
}
