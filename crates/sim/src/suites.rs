//! The pinned golden-suite job lists.
//!
//! `tests/golden_stats.rs` and `tests/perf_invariance.rs` both regenerate
//! these exact sweeps — the former to diff them against the snapshots in
//! `tests/golden/`, the latter to prove hot-path optimizations are
//! observationally pure at 1 and 8 runner threads. Defining the job lists
//! here (instead of inline in each test) guarantees the two tests can never
//! drift apart, and gives `dkip-sim sweep` access to the same matrices.
//!
//! Changing anything here changes what the snapshots pin — regenerate them
//! with `make bless` and review the diff.

use crate::experiments::{riscv_kernel_runs, riscv_machines, RISCV_BUDGET};
use crate::runner::{Job, Machine};
use dkip_model::config::{BaselineConfig, DkipConfig, KiloConfig, MemoryHierarchyConfig};
use dkip_trace::Benchmark;

/// Instruction budget shared by the synthetic golden jobs.
pub const GOLDEN_BUDGET: u64 = 4_000;

/// The baseline-family golden sweep (`tests/golden/baseline.golden`): the
/// small and large R10000-style cores over representative benchmarks, one
/// perfect-L1 point, and the unbounded characterisation core (which
/// exercises the issue-latency histogram serialisation).
#[must_use]
pub fn golden_baseline_jobs() -> Vec<Job> {
    let mem = MemoryHierarchyConfig::mem_400();
    vec![
        Job::new(
            "r10-64/gcc",
            Machine::Baseline(BaselineConfig::r10_64()),
            mem.clone(),
            Benchmark::Gcc,
            GOLDEN_BUDGET,
        ),
        Job::new(
            "r10-64/mcf",
            Machine::Baseline(BaselineConfig::r10_64()),
            mem.clone(),
            Benchmark::Mcf,
            GOLDEN_BUDGET,
        ),
        Job::new(
            "r10-256/swim",
            Machine::Baseline(BaselineConfig::r10_256()),
            mem.clone(),
            Benchmark::Swim,
            GOLDEN_BUDGET,
        ),
        Job::new(
            "r10-64/l1-2/crafty",
            Machine::Baseline(BaselineConfig::r10_64()),
            MemoryHierarchyConfig::l1_2(),
            Benchmark::Crafty,
            GOLDEN_BUDGET,
        ),
        Job::new(
            "unbounded/mesa",
            Machine::Baseline(BaselineConfig::unbounded()),
            mem,
            Benchmark::Mesa,
            2_000,
        ),
    ]
}

/// The KILO-family golden sweep (`tests/golden/kilo.golden`).
#[must_use]
pub fn golden_kilo_jobs() -> Vec<Job> {
    let mem = MemoryHierarchyConfig::mem_400();
    vec![
        Job::new(
            "kilo-1024/gcc",
            Machine::Kilo(KiloConfig::kilo_1024()),
            mem.clone(),
            Benchmark::Gcc,
            GOLDEN_BUDGET,
        ),
        Job::new(
            "kilo-1024/mcf",
            Machine::Kilo(KiloConfig::kilo_1024()),
            mem.clone(),
            Benchmark::Mcf,
            GOLDEN_BUDGET,
        ),
        Job::new(
            "kilo-1024/swim",
            Machine::Kilo(KiloConfig::kilo_1024()),
            mem,
            Benchmark::Swim,
            GOLDEN_BUDGET,
        ),
    ]
}

/// The D-KIP-family golden sweep (`tests/golden/dkip.golden`).
#[must_use]
pub fn golden_dkip_jobs() -> Vec<Job> {
    let mem = MemoryHierarchyConfig::mem_400();
    let small_l2 = MemoryHierarchyConfig::mem_400().with_l2_kb(64);
    vec![
        Job::new(
            "dkip-2048/gcc",
            Machine::Dkip(DkipConfig::paper_default()),
            mem.clone(),
            Benchmark::Gcc,
            GOLDEN_BUDGET,
        ),
        Job::new(
            "dkip-2048/mcf",
            Machine::Dkip(DkipConfig::paper_default()),
            mem.clone(),
            Benchmark::Mcf,
            GOLDEN_BUDGET,
        ),
        Job::new(
            "dkip-2048/swim",
            Machine::Dkip(DkipConfig::paper_default()),
            mem.clone(),
            Benchmark::Swim,
            GOLDEN_BUDGET,
        ),
        Job::new(
            "dkip-512/applu",
            Machine::Dkip(DkipConfig::paper_default().with_llib_capacity(512)),
            mem,
            Benchmark::Applu,
            GOLDEN_BUDGET,
        ),
        Job::new(
            "dkip-2048/64kb-l2/equake",
            Machine::Dkip(DkipConfig::paper_default()),
            small_l2,
            Benchmark::Equake,
            GOLDEN_BUDGET,
        ),
    ]
}

/// The RISC-V golden sweep (`tests/golden/riscv.golden`): every shipped
/// RV64IM kernel run to completion on all three core families over the
/// paper-default memory hierarchy — the exact matrix of `dkip-sim fig riscv`
/// (6 kernels × 3 families = 18 jobs).
#[must_use]
pub fn golden_riscv_jobs() -> Vec<Job> {
    let mem = MemoryHierarchyConfig::paper_default();
    let mut jobs = Vec::new();
    for (tag, machine) in riscv_machines() {
        for run in riscv_kernel_runs() {
            jobs.push(Job::new(
                format!("{}/{}", tag.to_lowercase(), run.name()),
                machine.clone(),
                mem.clone(),
                run,
                RISCV_BUDGET,
            ));
        }
    }
    jobs
}

/// Every golden sweep, keyed by its snapshot file name under
/// `tests/golden/`.
#[must_use]
pub fn golden_suites() -> Vec<(&'static str, Vec<Job>)> {
    vec![
        ("baseline.golden", golden_baseline_jobs()),
        ("kilo.golden", golden_kilo_jobs()),
        ("dkip.golden", golden_dkip_jobs()),
        ("riscv.golden", golden_riscv_jobs()),
    ]
}

/// Resolves a sweep name as used by `dkip-sim sweep`: one of the golden
/// suites (`baseline`, `kilo`, `dkip`, `riscv`) or `all` (every suite
/// concatenated in snapshot order). An optional `budget` overrides every
/// job's instruction budget, so a sweep can scale the same matrix up or
/// down without a new job list.
///
/// # Errors
///
/// Returns a human-readable message naming the unknown suite.
pub fn golden_suite_jobs(name: &str, budget: Option<u64>) -> Result<Vec<Job>, String> {
    let mut jobs = match name {
        "baseline" => golden_baseline_jobs(),
        "kilo" => golden_kilo_jobs(),
        "dkip" => golden_dkip_jobs(),
        "riscv" => golden_riscv_jobs(),
        "all" => golden_suites()
            .into_iter()
            .flat_map(|(_, jobs)| jobs)
            .collect(),
        _ => {
            return Err(format!(
                "unknown suite {name:?}: expected baseline, kilo, dkip, riscv or all"
            ))
        }
    };
    if let Some(budget) = budget {
        for job in &mut jobs {
            job.budget = budget;
        }
    }
    Ok(jobs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn riscv_suite_is_the_full_18_job_matrix() {
        let jobs = golden_riscv_jobs();
        assert_eq!(jobs.len(), 18, "6 kernels x 3 families");
        for family in ["baseline", "kilo", "dkip"] {
            assert_eq!(
                jobs.iter().filter(|j| j.machine.family() == family).count(),
                6
            );
        }
        assert!(jobs.iter().all(|j| j.workload.is_finite()));
    }

    #[test]
    fn suites_cover_all_four_snapshots() {
        let suites = golden_suites();
        let names: Vec<&str> = suites.iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            [
                "baseline.golden",
                "kilo.golden",
                "dkip.golden",
                "riscv.golden"
            ]
        );
        assert!(suites.iter().all(|(_, jobs)| !jobs.is_empty()));
    }

    #[test]
    fn suite_names_resolve_and_budgets_override() {
        assert_eq!(golden_suite_jobs("kilo", None).unwrap().len(), 3);
        let all = golden_suite_jobs("all", None).unwrap();
        assert_eq!(all.len(), 5 + 3 + 5 + 18);
        let scaled = golden_suite_jobs("baseline", Some(1_000)).unwrap();
        assert!(scaled.iter().all(|j| j.budget == 1_000));
        assert!(golden_suite_jobs("bogus", None)
            .unwrap_err()
            .contains("bogus"));
    }

    #[test]
    fn spec_suites_pin_every_family_name() {
        assert!(golden_baseline_jobs()
            .iter()
            .all(|j| j.machine.family() == "baseline"));
        assert!(golden_kilo_jobs()
            .iter()
            .all(|j| j.machine.family() == "kilo"));
        assert!(golden_dkip_jobs()
            .iter()
            .all(|j| j.machine.family() == "dkip"));
    }
}
