//! Sampled-vs-exact differential accuracy suite.
//!
//! Exact simulation is the golden reference; sampled mode
//! (`dkip::sim::run_sampled`) is an *estimator*. This suite pins the
//! estimator's quality on all four golden-suite machine matrices: for each
//! suite the whole-run IPC of every job is computed exactly and sampled,
//! and the relative error must stay inside
//!
//! * a **3% band on the suite-mean IPC** (the figure-level quantity the
//!   paper's plots are built from), and
//! * a **10% band on every individual job** (no single workload may be
//!   grossly misestimated even when errors cancel across the suite).
//!
//! The runs are longer than the 4 000-instruction golden budgets: a
//! sampling period is thousands of instructions, so the synthetic suites
//! run their golden machine/memory/workload matrix at a 100 000-instruction
//! budget and the RISC-V matrix runs scaled-up kernel sizes (~70k–200k
//! dynamic instructions) to completion. Sampling rates are per-suite: the
//! D-KIP's latency tolerance needs a denser rate (smaller gaps) than the
//! other families because draining between periods forfeits more of its
//! overlap.
//!
//! Everything here is deterministic — both modes are single-seeded and
//! thread-count invariant — so the bands are exact regression pins, not
//! statistical hopes.

use dkip::model::SampleConfig;
use dkip::riscv::{Kernel, KernelRun};
use dkip::sim::runner::Job;
use dkip::sim::{suites, Machine, SweepRunner};

/// Maximum relative error of the suite-mean IPC.
const SUITE_MEAN_BAND: f64 = 0.03;
/// Maximum relative error of any single job's IPC.
const PER_JOB_BAND: f64 = 0.10;

/// Budget for the synthetic (endless-workload) suites. Long enough for
/// several sampling periods per job, short enough for a test.
const SYNTHETIC_BUDGET: u64 = 100_000;

/// Runs `jobs` exactly and under `rate`, then asserts both error bands.
fn check_suite(name: &str, jobs: &[Job], rate: &str) {
    let sample = SampleConfig::parse(rate).expect("valid sampling rate");
    let runner = SweepRunner::host();
    let exact = runner.run(jobs);
    let sampled_jobs: Vec<Job> = jobs
        .iter()
        .map(|job| job.clone().with_sample(sample))
        .collect();
    let sampled = runner.run(&sampled_jobs);

    let mut mean_exact = 0.0;
    let mut mean_sampled = 0.0;
    for (e, s) in exact.iter().zip(&sampled) {
        let exact_ipc = e.stats.ipc();
        let sampled_ipc = s.stats.ipc();
        assert!(exact_ipc > 0.0, "{}: exact IPC must be positive", e.label);
        let err = (sampled_ipc - exact_ipc).abs() / exact_ipc;
        assert!(
            err <= PER_JOB_BAND,
            "{name}/{}: sampled IPC {sampled_ipc:.4} vs exact {exact_ipc:.4} \
             ({:.2}% error exceeds the {:.0}% per-job band at rate {rate})",
            e.label,
            err * 100.0,
            PER_JOB_BAND * 100.0,
        );
        mean_exact += exact_ipc;
        mean_sampled += sampled_ipc;
    }
    mean_exact /= exact.len() as f64;
    mean_sampled /= sampled.len() as f64;
    let mean_err = (mean_sampled - mean_exact).abs() / mean_exact;
    assert!(
        mean_err <= SUITE_MEAN_BAND,
        "{name}: sampled suite-mean IPC {mean_sampled:.4} vs exact {mean_exact:.4} \
         ({:.2}% error exceeds the {:.0}% suite-mean band at rate {rate})",
        mean_err * 100.0,
        SUITE_MEAN_BAND * 100.0,
    );
}

/// The golden suite's machine/memory/workload matrix re-budgeted for
/// sampling (the 4 000-instruction golden budget is shorter than a single
/// sampling period).
fn rebudget(jobs: Vec<Job>) -> Vec<Job> {
    jobs.into_iter()
        .map(|mut job| {
            job.budget = SYNTHETIC_BUDGET;
            job
        })
        .collect()
}

/// The golden RISC-V matrix (every kernel on every family) with scaled-up
/// kernel sizes, so each job's full dynamic execution spans many sampling
/// periods. Runs to completion like the golden suite.
fn scaled_riscv_jobs() -> Vec<Job> {
    let runs = [
        KernelRun::new(Kernel::Matmul, 16),
        KernelRun::new(Kernel::ListWalk, 4096),
        KernelRun::new(Kernel::Sieve, 8000),
        KernelRun::new(Kernel::FibRec, 19),
        KernelRun::new(Kernel::Memcpy, 8192),
        KernelRun::new(Kernel::BoxBlur, 28),
    ];
    let golden = suites::golden_riscv_jobs();
    let mut machines: Vec<Machine> = Vec::new();
    for job in &golden {
        if !machines.contains(&job.machine) {
            machines.push(job.machine.clone());
        }
    }
    assert_eq!(machines.len(), 3, "one machine per core family");
    let mem = golden[0].mem.clone();
    let mut jobs = Vec::new();
    for machine in &machines {
        for run in runs {
            jobs.push(Job::new(
                format!("{}/{}", machine.family(), run.name()),
                machine.clone(),
                mem.clone(),
                run,
                1_000_000,
            ));
        }
    }
    jobs
}

#[test]
fn baseline_suite_sampled_ipc_matches_exact() {
    check_suite(
        "baseline",
        &rebudget(suites::golden_baseline_jobs()),
        "20000:4000:4000",
    );
}

#[test]
fn kilo_suite_sampled_ipc_matches_exact() {
    check_suite(
        "kilo",
        &rebudget(suites::golden_kilo_jobs()),
        "20000:4000:4000",
    );
}

#[test]
fn dkip_suite_sampled_ipc_matches_exact() {
    check_suite(
        "dkip",
        &rebudget(suites::golden_dkip_jobs()),
        "12000:3000:3000",
    );
}

#[test]
fn riscv_suite_sampled_ipc_matches_exact() {
    check_suite("riscv", &scaled_riscv_jobs(), "20000:4000:4000");
}
