//! Result-store contract tests: key stability, hit==recompute
//! bit-identity, corruption recovery, write degradation and
//! interrupted-sweep resume. (Salt invalidation is pinned by the
//! `dkip_sim::store` unit tests.)
//!
//! The committed fixture `tests/golden/cache_keys.golden` pins the
//! *unsalted* config-key digest ([`dkip::model::key_digest`] over
//! [`Job::key_text`]) of every golden-suite job. Anything that changes the
//! hash inputs — a renamed field, a reordered key line, a formatting tweak
//! — fails this test loudly, which is the intent: a silent key change
//! invalidates every cache in the world (annoying) or, far worse, could
//! let two different configurations collide. Accept an *intended* change
//! with `DKIP_BLESS=1 cargo test --test store` and bump
//! `dkip_sim::store::RESULTS_EPOCH` in the same commit.

use std::path::PathBuf;
use std::sync::Mutex;

use dkip::model::key_digest;
use dkip::sim::chaos;
use dkip::sim::runner::results_to_kv;
use dkip::sim::store::ResultStore;
use dkip::sim::{golden, suites, SweepRunner};

/// Serialises the store tests: one of them arms the process-wide
/// `store.write` fault point, which must not fire in another test's sweep.
static STORE_LOCK: Mutex<()> = Mutex::new(());

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dkip-store-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(name)
}

/// The committed key↔config fixture: one line per golden-suite job. The
/// digest is over the unsalted key text, so it is stable across crate
/// version bumps (the store adds the version salt on top).
#[test]
fn cache_key_fixture_pins_the_hash_inputs() {
    let mut doc = String::new();
    for (suite_name, jobs) in suites::golden_suites() {
        for (idx, job) in jobs.iter().enumerate() {
            doc.push_str(&format!(
                "{}  {suite_name} job {idx}: {}\n",
                key_digest(&job.key_text()),
                job.label,
            ));
        }
    }
    if let Err(err) = golden::check(&golden_path("cache_keys.golden"), &doc) {
        panic!(
            "cache-key derivation changed — if intended, bless this fixture AND bump \
             dkip_sim::store::RESULTS_EPOCH\n{err}"
        );
    }
}

/// Cold populate, then warm re-runs at 1 and 8 threads: zero recomputes,
/// byte-identical to the uncached reference at every thread count.
#[test]
fn warm_runs_recompute_nothing_and_match_bit_for_bit() {
    let _guard = STORE_LOCK.lock().unwrap();
    let jobs = suites::golden_suite_jobs("kilo", Some(1_500)).unwrap();
    let reference = results_to_kv(&SweepRunner::new(2).run(&jobs));
    let store = ResultStore::open(scratch("warm")).unwrap();
    let cold = SweepRunner::new(2)
        .with_store(store.clone())
        .run_report(&jobs);
    assert_eq!((cold.hits, cold.misses), (0, jobs.len() as u64));
    assert_eq!(results_to_kv(&cold.results), reference);
    for threads in [1, 8] {
        let warm = SweepRunner::new(threads)
            .with_store(store.clone())
            .run_report(&jobs);
        assert_eq!(
            (warm.hits, warm.misses),
            (jobs.len() as u64, 0),
            "warm run at {threads} threads must not simulate"
        );
        assert_eq!(
            results_to_kv(&warm.results),
            reference,
            "cache hits must be byte-identical to a recompute at {threads} threads"
        );
    }
    let _ = std::fs::remove_dir_all(store.root());
}

/// An interrupted sweep (only part of the job list completed) resumes as
/// cache hits for the finished jobs and recomputes exactly the rest.
#[test]
fn interrupted_sweeps_resume_from_the_store() {
    let _guard = STORE_LOCK.lock().unwrap();
    let jobs = suites::golden_suite_jobs("kilo", Some(1_200)).unwrap();
    assert_eq!(jobs.len(), 3);
    let reference = results_to_kv(&SweepRunner::serial().run(&jobs));
    let store = ResultStore::open(scratch("resume")).unwrap();
    // "Interruption": the first run only gets through two of the three jobs.
    let partial = SweepRunner::serial()
        .with_store(store.clone())
        .run_report(&jobs[..2]);
    assert_eq!(partial.misses, 2);
    // The restarted full sweep hits the two finished jobs, computes the one
    // that was lost, and its output matches an uninterrupted run exactly.
    let resumed = SweepRunner::serial()
        .with_store(store.clone())
        .run_report(&jobs);
    assert_eq!((resumed.hits, resumed.misses), (2, 1));
    assert_eq!(results_to_kv(&resumed.results), reference);
    let _ = std::fs::remove_dir_all(store.root());
}

/// A store whose writes all fail (injected `ENOSPC`, the moral equivalent
/// of a cache directory turned read-only mid-sweep) degrades to uncached
/// operation: results stay byte-identical to the uncached reference, no
/// partial entry is ever left behind to be served later, and the store
/// heals on the next fault-free open.
#[test]
fn enospc_writes_degrade_to_uncached_and_never_leave_partial_entries() {
    let _guard = STORE_LOCK.lock().unwrap();
    let jobs = suites::golden_suite_jobs("kilo", Some(1_300)).unwrap();
    let reference = results_to_kv(&SweepRunner::serial().run(&jobs));
    let dir = scratch("enospc");
    let store = ResultStore::open(&dir).unwrap();
    chaos::arm("store.write:1:3").expect("valid fault spec");
    let faulted = SweepRunner::serial()
        .with_store(store.clone())
        .run_report(&jobs);
    chaos::disarm();
    assert!(
        faulted.failures.is_empty(),
        "write failures degrade caching, they never fail jobs"
    );
    assert_eq!(faulted.misses, jobs.len() as u64);
    assert_eq!(
        results_to_kv(&faulted.results),
        reference,
        "degraded-to-uncached results are byte-identical to the reference"
    );
    assert_eq!(
        store.write_errors(),
        1,
        "degrade trips on the first exhausted write"
    );
    assert!(store.degraded());
    // Nothing partial on disk: a fresh open sees a completely cold store.
    let entries: Vec<PathBuf> = walk_files(&dir);
    assert!(
        entries.iter().all(|p| {
            let name = p.file_name().unwrap().to_string_lossy();
            !name.ends_with(".entry") && !name.contains(".tmp")
        }),
        "no entry or temp files may survive a failed write: {entries:?}"
    );
    let reopened = ResultStore::open(&dir).unwrap();
    let cold = SweepRunner::serial()
        .with_store(reopened.clone())
        .run_report(&jobs);
    assert_eq!(
        (cold.hits, cold.misses),
        (0, jobs.len() as u64),
        "a partial entry must never be served as a hit"
    );
    assert_eq!(results_to_kv(&cold.results), reference);
    // The healed store is fully warm now.
    let warm = SweepRunner::serial().with_store(reopened).run_report(&jobs);
    assert_eq!((warm.hits, warm.misses), (jobs.len() as u64, 0));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every regular file under `dir`, recursively.
fn walk_files(dir: &PathBuf) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return files;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            files.extend(walk_files(&path));
        } else {
            files.push(path);
        }
    }
    files
}

/// A truncated entry is recovered from: logged, treated as a miss,
/// recomputed, rewritten — and the output never changes.
#[test]
fn corrupted_entries_recover_by_recomputing() {
    let _guard = STORE_LOCK.lock().unwrap();
    let jobs = suites::golden_suite_jobs("kilo", Some(1_000)).unwrap();
    let store = ResultStore::open(scratch("recover")).unwrap();
    let cold = SweepRunner::serial()
        .with_store(store.clone())
        .run_report(&jobs);
    let reference = results_to_kv(&cold.results);
    // Truncate the first job's entry mid-document.
    let key = store.key_for_text(&jobs[0].key_text());
    let entry = store.root().join(&key[..2]).join(format!("{key}.entry"));
    let full = std::fs::read_to_string(&entry).expect("entry exists after the cold run");
    std::fs::write(&entry, &full.as_bytes()[..full.len() / 3]).unwrap();
    let recovered = SweepRunner::serial()
        .with_store(store.clone())
        .run_report(&jobs);
    assert_eq!(
        (recovered.hits, recovered.misses),
        (jobs.len() as u64 - 1, 1),
        "the corrupt entry must be a miss, everything else a hit"
    );
    assert_eq!(results_to_kv(&recovered.results), reference);
    // The rewrite restored the entry: everything hits now.
    let healed = SweepRunner::serial()
        .with_store(store.clone())
        .run_report(&jobs);
    assert_eq!((healed.hits, healed.misses), (jobs.len() as u64, 0));
    assert_eq!(
        std::fs::read_to_string(&entry).unwrap(),
        full,
        "the rewritten entry is byte-identical to the original"
    );
    let _ = std::fs::remove_dir_all(store.root());
}
