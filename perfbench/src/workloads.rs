//! The three figure-regeneration workloads and their untraced sweep.
//!
//! Every job is built with explicit `.exact()` / `.with_sample()` and
//! `.unprobed()`, and every sweep names its thread count and store, so no
//! ambient `DKIP_*` knob or library default can change what is measured.

use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

use dkip_model::config::{BaselineConfig, DkipConfig, KiloConfig, MemoryHierarchyConfig};
use dkip_model::SampleConfig;
use dkip_riscv::{Kernel, KernelRun, Reg};
use dkip_sim::{
    run_sampled, Job, JobResult, Machine, ResultStore, SweepRunner, Workload, WorkloadStream,
};
use dkip_trace::Benchmark;

use crate::{heap, report};

/// Sweep workers. Two matches the 2-CPU hosts the benchmark is sized for;
/// it is fixed rather than read from the host so runs compare across hosts.
pub const THREADS: usize = 2;

/// Instructions per exact Fig. 9 job: past the cold-start transient of the
/// default 10k figure budget, small enough for several sweeps per run.
pub const EXACT_BUDGET: u64 = 300_000;

/// Instructions covered per sampled Fig. 9 job: ten sampling periods.
pub const SAMPLED_BUDGET: u64 = 1_000_000;

/// The steady-state sampling rate that reproduces the exact Fig. 9 table
/// within 1% per cell.
pub const SAMPLE_RATE: SampleConfig = SampleConfig {
    period: 100_000,
    warmup: 10_000,
    window: 10_000,
};

/// RV64IM kernels with data from stack-only (L1-resident) to 768 KB (past
/// the 512 KB L2); about 10M dynamic instructions in total.
pub const RISCV_RUNS: [(Kernel, u64); 6] = [
    (Kernel::Matmul, 48),
    (Kernel::ListWalk, 49_152),
    (Kernel::Sieve, 200_000),
    (Kernel::FibRec, 22),
    (Kernel::Memcpy, 32_768),
    (Kernel::BoxBlur, 96),
];

/// Which workload a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Fig09Exact,
    Fig09Sampled,
    RiscvSampled,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Fig09Exact, Kind::Fig09Sampled, Kind::RiscvSampled];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Fig09Exact => "fig09-exact",
            Kind::Fig09Sampled => "fig09-sampled",
            Kind::RiscvSampled => "riscv-sampled",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Whether each sweep writes its results into a fresh, empty store.
    pub fn uses_store(self) -> bool {
        self == Kind::Fig09Sampled
    }

    /// The job list, in figure order (machine-major, like the figure
    /// binaries), with trace seeds drawn from the workload seed.
    pub fn jobs(self, seed: u64) -> Vec<Job> {
        let mem = MemoryHierarchyConfig::paper_default();
        let job = |machine: &Machine, workload: Workload, budget: u64| {
            let label = format!("{} {}", machine.name(), workload.name());
            Job::new(label, machine.clone(), mem.clone(), workload, budget)
                .with_seed(trace_seed(seed, workload))
                .unprobed()
        };
        let mut jobs = Vec::new();
        match self {
            Kind::Fig09Exact | Kind::Fig09Sampled => {
                for machine in fig09_machines() {
                    for bench in Benchmark::all() {
                        jobs.push(if self == Kind::Fig09Exact {
                            job(&machine, bench.into(), EXACT_BUDGET).exact()
                        } else {
                            job(&machine, bench.into(), SAMPLED_BUDGET).with_sample(SAMPLE_RATE)
                        });
                    }
                }
            }
            Kind::RiscvSampled => {
                for machine in riscv_machines() {
                    for run in riscv_runs() {
                        // Kernels run to completion: the budget never binds.
                        jobs.push(job(&machine, run.into(), u64::MAX).with_sample(SAMPLE_RATE));
                    }
                }
            }
        }
        jobs
    }
}

/// The trace seed of every job on `workload`: the workload seed mixed with
/// the workload's name. One trace seed shared by all benchmarks moves the
/// host cost of the whole suite together (by about 8% between seeds, which
/// no number of benchmarks averages away); a seed per benchmark lets the
/// suite average it. Every machine still sees the same trace of a benchmark.
pub fn trace_seed(seed: u64, workload: Workload) -> u64 {
    dkip_model::fnv1a_128(format!("{seed}/{}", workload.name()).as_bytes()) as u64
}

/// The four Fig. 9 configurations.
fn fig09_machines() -> [Machine; 4] {
    [
        Machine::Baseline(BaselineConfig::r10_64()),
        Machine::Baseline(BaselineConfig::r10_256()),
        Machine::Kilo(KiloConfig::kilo_1024()),
        Machine::Dkip(DkipConfig::paper_default()),
    ]
}

/// The RISC-V figure's configurations: one per core family.
fn riscv_machines() -> [Machine; 3] {
    [
        Machine::Baseline(BaselineConfig::r10_64()),
        Machine::Kilo(KiloConfig::kilo_1024()),
        Machine::Dkip(DkipConfig::paper_default()),
    ]
}

pub fn riscv_runs() -> Vec<KernelRun> {
    RISCV_RUNS
        .iter()
        .map(|&(kernel, size)| KernelRun::new(kernel, size))
        .collect()
}

/// Everything a sweep needs before its first job is submitted.
pub struct Setup {
    pub jobs: Vec<Job>,
    pub store: Option<ResultStore>,
    /// Expected final `a0` per RISC-V kernel, from the Rust reference model.
    pub expected_a0: Vec<(KernelRun, u64)>,
}

/// Builds the job list, assembles the kernels and computes their reference
/// results, and creates the store (at `store_dir`, which must not exist).
pub fn setup(kind: Kind, seed: u64, store_dir: &Path) -> Result<Setup, String> {
    let jobs = kind.jobs(seed);
    let mut expected_a0 = Vec::new();
    if kind == Kind::RiscvSampled {
        for run in riscv_runs() {
            let program = run.kernel.program();
            if program.words.is_empty() {
                return Err(format!("{} assembled to nothing", run.name()));
            }
            expected_a0.push((run, run.expected_result()));
        }
    }
    let store = if kind.uses_store() {
        if store_dir.exists() {
            return Err(format!("store {} is not fresh", store_dir.display()));
        }
        let store = ResultStore::open(store_dir)
            .map_err(|e| format!("cannot create store {}: {e}", store_dir.display()))?;
        Some(store)
    } else {
        None
    };
    Ok(Setup {
        jobs,
        store,
        expected_a0,
    })
}

/// One untraced sweep: its results and host time.
pub struct Sweep {
    pub results: Vec<JobResult>,
    pub failed: u64,
    pub wall_s: f64,
    pub hits: u64,
    pub misses: u64,
    /// Each job's own peak heap, averaged over the sweep's jobs.
    pub job_heap_mb: f64,
}

/// Runs the jobs on a closed loop of [`THREADS`] workers, each claiming its
/// next job only when its previous one finishes.
pub fn sweep(setup: &Setup) -> Sweep {
    let runner = SweepRunner::new(THREADS).with_store_opt(setup.store.clone());
    // Each worker reports the peak heap of the job it just finished.
    let job_peaks = Mutex::new(Vec::with_capacity(setup.jobs.len()));
    let observe = |_: usize, _: &JobResult| {
        let peak = heap::take_thread_peak_mb();
        job_peaks.lock().expect("peak list poisoned").push(peak);
    };
    heap::take_thread_peak_mb();
    let start = Instant::now();
    let report = runner.run_report_observed(&setup.jobs, Some(&observe));
    let wall_s = start.elapsed().as_secs_f64();
    let job_peaks = job_peaks.into_inner().expect("peak list poisoned");
    let job_heap_mb = report::ratio(job_peaks.iter().sum(), job_peaks.len() as f64);
    for failure in &report.failures {
        eprintln!("job failure: {}", failure.render());
    }
    Sweep {
        failed: report.failures.len() as u64,
        results: report.results,
        wall_s,
        hits: report.hits,
        misses: report.misses,
        job_heap_mb,
    }
}

/// Instructions a sweep covered (detailed plus fast-forwarded).
pub fn covered(results: &[JobResult]) -> u64 {
    results.iter().map(|r| r.covered).sum()
}

/// Checks one sweep's outputs: every job produced a result, every
/// synthetic job covered its budget, every kernel ran, and a store-backed
/// sweep started cold. Returns the problems found.
pub fn check_sweep(kind: Kind, setup: &Setup, sweep: &Sweep) -> Vec<String> {
    let mut problems = Vec::new();
    if sweep.failed > 0 || sweep.results.len() != setup.jobs.len() {
        problems.push(format!(
            "{} of {} jobs failed",
            sweep.failed,
            setup.jobs.len()
        ));
    }
    for result in &sweep.results {
        let short = match result.workload {
            Workload::Spec(_) => result.covered < result.budget,
            Workload::Riscv(_) => result.covered == 0,
        };
        if short {
            problems.push(format!(
                "{} {} covered {} of budget {}",
                result.machine_name,
                result.workload.name(),
                result.covered,
                result.budget
            ));
        }
    }
    if kind.uses_store() && (sweep.hits != 0 || sweep.misses != setup.jobs.len() as u64) {
        problems.push(format!(
            "store was not cold: {} hits, {} misses",
            sweep.hits, sweep.misses
        ));
    }
    problems
}

/// The final `a0` of a kernel held after `run_sampled` drained it, and the
/// instructions the run covered.
fn sampled_kernel_a0(machine: &Machine, run: KernelRun) -> Result<(u64, u64), String> {
    let mut stream = Workload::Riscv(run).stream(0);
    let sampled = run_sampled(
        machine,
        &MemoryHierarchyConfig::paper_default(),
        &mut stream,
        u64::MAX,
        &SAMPLE_RATE,
    );
    final_a0(&stream, run).map(|a0| (a0, sampled.consumed()))
}

/// Reads `a0` from a RISC-V stream whose kernel must have halted.
pub fn final_a0(stream: &WorkloadStream, run: KernelRun) -> Result<u64, String> {
    match stream {
        WorkloadStream::Riscv(riscv) if riscv.emulator().halted() => {
            Ok(riscv.emulator().reg(Reg::A0))
        }
        _ => Err(format!("{} did not run to completion", run.name())),
    }
}

/// Checks every kernel's final `a0` against its reference, each kernel on
/// one core family (cycling through the three), and that the held run
/// covered exactly what the sweep's job for that pair covered.
pub fn check_kernels(setup: &Setup, results: &[JobResult]) -> Vec<String> {
    let mut problems = Vec::new();
    let machines = riscv_machines();
    for (idx, &(run, expected)) in setup.expected_a0.iter().enumerate() {
        let machine = &machines[idx % machines.len()];
        match sampled_kernel_a0(machine, run) {
            Err(e) => problems.push(e),
            Ok((a0, consumed)) => {
                if a0 != expected {
                    problems.push(format!(
                        "{}: final a0 {a0:#x}, reference {expected:#x}",
                        run.name()
                    ));
                }
                let swept = results.iter().find(|r| {
                    r.machine_name == machine.name() && r.workload == Workload::Riscv(run)
                });
                if swept.map(|r| r.covered) != Some(consumed) {
                    problems.push(format!(
                        "{} on {}: held run covered {consumed}, sweep {:?}",
                        run.name(),
                        machine.name(),
                        swept.map(|r| r.covered)
                    ));
                }
            }
        }
    }
    problems
}

/// A per-run scratch directory inside the working directory, removed by
/// [`Scratch::drop`].
pub struct Scratch {
    pub dir: PathBuf,
}

impl Scratch {
    /// Parent of every run's scratch directory (listed in `.gitignore`).
    pub const ROOT: &'static str = ".perfbench-tmp";

    pub fn create() -> Result<Scratch, String> {
        let dir = Path::new(Self::ROOT).join(std::process::id().to_string());
        if dir.exists() {
            std::fs::remove_dir_all(&dir)
                .map_err(|e| format!("cannot clear {}: {e}", dir.display()))?;
        }
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(Scratch { dir })
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
        // Succeeds only once no other run is using the parent.
        let _ = std::fs::remove_dir(Self::ROOT);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobs_ignore_ambient_defaults() {
        for kind in Kind::ALL {
            for job in kind.jobs(7) {
                assert!(job.metrics.is_none());
                assert_eq!(job.seed, trace_seed(7, job.workload));
                assert_eq!(job.sample.is_some(), kind != Kind::Fig09Exact);
            }
        }
        assert_ne!(
            trace_seed(7, Benchmark::Gcc.into()),
            trace_seed(8, Benchmark::Gcc.into())
        );
    }

    #[test]
    fn kinds_round_trip_their_names() {
        for kind in Kind::ALL {
            assert_eq!(Kind::parse(kind.name()), Some(kind));
        }
        assert_eq!(Kind::parse("fig09"), None);
    }

    #[test]
    fn kernels_span_l1_resident_to_past_l2() {
        let mem = MemoryHierarchyConfig::paper_default();
        let bytes: Vec<u64> = RISCV_RUNS
            .iter()
            .map(|&(kernel, size)| kernel.data_bytes(size).unwrap())
            .collect();
        assert!(bytes.iter().any(|&b| b <= mem.l1_size.unwrap() as u64));
        assert!(bytes.iter().any(|&b| b > mem.l2_size.unwrap() as u64));
    }
}
