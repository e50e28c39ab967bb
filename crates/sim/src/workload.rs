//! The workload abstraction: what a simulation job actually runs.
//!
//! Historically every job named a synthetic SPEC-like [`Benchmark`] from
//! `dkip-trace`. Since the `dkip-riscv` frontend landed, a job can instead
//! run a real RV64IM kernel ([`KernelRun`]) execution-driven. Both sources
//! satisfy the same `Iterator<Item = MicroOp>` contract, so
//! [`Workload::stream`] is the single point every core family consumes a
//! workload through (see [`crate::runner::Machine::simulate`]).
//!
//! `From` conversions keep call sites terse: anywhere a [`crate::Job`] is
//! built, a bare `Benchmark`, [`Kernel`] or [`KernelRun`] coerces into a
//! `Workload`.

use dkip_model::MicroOp;
use dkip_riscv::{Kernel, KernelRun, RiscvStream};
use dkip_trace::{Benchmark, TraceGenerator};

/// A simulation workload: a synthetic statistical benchmark or an
/// execution-driven RISC-V kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// A synthetic SPEC CPU2000-like workload from `dkip-trace`.
    Spec(Benchmark),
    /// An RV64IM kernel executed by the `dkip-riscv` emulator.
    Riscv(KernelRun),
}

impl Workload {
    /// The stable display name used in labels and golden-snapshot headers:
    /// the SPEC name (`gcc`, `swim`, …) or `riscv:<kernel>/<size>`.
    #[must_use]
    pub fn name(&self) -> String {
        match self {
            Workload::Spec(benchmark) => benchmark.name().to_owned(),
            Workload::Riscv(run) => format!("riscv:{}", run.name()),
        }
    }

    /// Whether the workload is a finite execution-driven stream (it ends on
    /// its own) rather than an endless synthetic generator.
    #[must_use]
    pub fn is_finite(&self) -> bool {
        matches!(self, Workload::Riscv(_))
    }

    /// Parses a display name back into a workload — the inverse of
    /// [`Workload::name`]: a SPEC name (`gcc`), `riscv:<kernel>` (the
    /// kernel's default size) or `riscv:<kernel>/<size>`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the unknown benchmark,
    /// kernel or malformed size.
    pub fn parse(name: &str) -> Result<Workload, String> {
        if let Some(spec) = name.strip_prefix("riscv:") {
            let (kernel_name, size) = match spec.split_once('/') {
                None => (spec, None),
                Some((kernel_name, size)) => {
                    let parsed = size
                        .parse::<u64>()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or_else(|| format!("invalid kernel size {size:?} in {name:?}"))?;
                    (kernel_name, Some(parsed))
                }
            };
            let kernel = Kernel::ALL
                .into_iter()
                .find(|k| k.name() == kernel_name)
                .ok_or_else(|| {
                    format!(
                        "unknown kernel {kernel_name:?}: expected one of {}",
                        Kernel::ALL.map(Kernel::name).join(", ")
                    )
                })?;
            Ok(Workload::Riscv(match size {
                None => kernel.default_run(),
                Some(size) => KernelRun::new(kernel, size),
            }))
        } else {
            Benchmark::all()
                .into_iter()
                .find(|b| b.name() == name)
                .map(Workload::Spec)
                .ok_or_else(|| {
                    format!("unknown workload {name:?}: expected a SPEC name or riscv:<kernel>[/<size>]")
                })
        }
    }

    /// Opens the dynamic correct-path [`MicroOp`] stream.
    ///
    /// The `seed` steers the synthetic trace generators; execution-driven
    /// RISC-V kernels are architecturally deterministic and ignore it.
    #[must_use]
    pub fn stream(&self, seed: u64) -> WorkloadStream {
        match self {
            Workload::Spec(benchmark) => {
                WorkloadStream::Spec(TraceGenerator::new(*benchmark, seed))
            }
            Workload::Riscv(run) => WorkloadStream::Riscv(RiscvStream::new(run)),
        }
    }
}

impl From<Benchmark> for Workload {
    fn from(benchmark: Benchmark) -> Self {
        Workload::Spec(benchmark)
    }
}

impl From<KernelRun> for Workload {
    fn from(run: KernelRun) -> Self {
        Workload::Riscv(run)
    }
}

impl From<Kernel> for Workload {
    fn from(kernel: Kernel) -> Self {
        Workload::Riscv(kernel.default_run())
    }
}

/// An open [`MicroOp`] stream for one workload (see [`Workload::stream`]).
///
/// The stream is `Clone`: pairing a core checkpoint
/// ([`dkip_ooo::CoreSnapshot`] / [`dkip_core::DkipSnapshot`]) with a clone
/// of the stream it was consuming checkpoints the complete simulation
/// state, since a core snapshot deliberately excludes its input iterator.
#[derive(Debug, Clone)]
pub enum WorkloadStream {
    /// Stream from a synthetic trace generator (endless).
    Spec(TraceGenerator),
    /// Stream from the RISC-V emulator (ends when the kernel halts).
    Riscv(RiscvStream),
}

impl Iterator for WorkloadStream {
    type Item = MicroOp;

    fn next(&mut self) -> Option<MicroOp> {
        match self {
            WorkloadStream::Spec(generator) => generator.next(),
            WorkloadStream::Riscv(stream) => stream.next(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_distinguish_the_sources() {
        assert_eq!(Workload::from(Benchmark::Gcc).name(), "gcc");
        assert_eq!(Workload::from(Kernel::Matmul).name(), "riscv:matmul/8");
        assert_eq!(
            Workload::from(KernelRun::new(Kernel::Sieve, 64)).name(),
            "riscv:sieve/64"
        );
    }

    #[test]
    fn parse_inverts_name() {
        for workload in [
            Workload::from(Benchmark::Gcc),
            Workload::from(Kernel::Matmul),
            Workload::from(KernelRun::new(Kernel::Sieve, 64)),
        ] {
            assert_eq!(Workload::parse(&workload.name()), Ok(workload));
        }
        assert_eq!(
            Workload::parse("riscv:matmul"),
            Ok(Workload::from(Kernel::Matmul)),
            "a bare kernel name takes its default size"
        );
        assert!(Workload::parse("gccc").unwrap_err().contains("gccc"));
        assert!(Workload::parse("riscv:qsort")
            .unwrap_err()
            .contains("qsort"));
        assert!(Workload::parse("riscv:matmul/0").is_err());
        assert!(Workload::parse("riscv:matmul/big").is_err());
    }

    #[test]
    fn spec_streams_honour_the_seed() {
        let a: Vec<_> = Workload::from(Benchmark::Mcf).stream(1).take(200).collect();
        let b: Vec<_> = Workload::from(Benchmark::Mcf).stream(1).take(200).collect();
        let c: Vec<_> = Workload::from(Benchmark::Mcf).stream(2).take(200).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn riscv_streams_are_finite_and_seed_independent() {
        let workload = Workload::from(Kernel::FibRec);
        assert!(workload.is_finite());
        assert!(!Workload::from(Benchmark::Gcc).is_finite());
        let a: Vec<_> = workload.stream(1).collect();
        let b: Vec<_> = workload.stream(99).collect();
        assert_eq!(a, b, "kernel execution ignores the seed");
        assert!(a.len() > 1_000);
    }
}
