//! The shipped RV64IM kernels and their launch configurations.
//!
//! Each [`Kernel`] embeds one assembly source from `kernels/` and knows how
//! to wire its input registers for a given problem size. A
//! [`KernelRun`] (kernel × size) is the unit the simulator treats as a
//! workload; [`KernelRun::emulator`] yields a ready-to-run [`Emulator`].
//!
//! Every kernel follows the same conventions: inputs arrive in `a0` (data
//! base address), `a1` (problem size) and optionally `a2`; the kernel
//! initialises its own data in-program (memory starts zeroed), leaves a
//! checksum/result in `a0` and halts with `ecall`. [`Kernel::reference`]
//! computes the expected `a0` in Rust, so tests can pin the emulator's
//! final architectural state against an independent model.

use crate::asm::{assemble, Program};
use crate::emu::{Emulator, CODE_BASE, DATA_BASE};
use crate::isa::Reg;

/// Stride used by the list-walk kernel when linking nodes.
const LISTWALK_STRIDE: u64 = 7;

/// The shipped kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// Dense int64 matrix multiply (size = matrix dimension).
    Matmul,
    /// Pointer-chasing linked-list walk (size = node count; 4×size steps).
    ListWalk,
    /// Sieve of Eratosthenes (size = limit N).
    Sieve,
    /// Recursive Fibonacci (size = n).
    FibRec,
    /// Streaming init + copy + checksum (size = doubleword count).
    Memcpy,
    /// 3×3 box blur over an n×n grid (size = n).
    BoxBlur,
}

impl Kernel {
    /// All shipped kernels, in display order.
    pub const ALL: [Kernel; 6] = [
        Kernel::Matmul,
        Kernel::ListWalk,
        Kernel::Sieve,
        Kernel::FibRec,
        Kernel::Memcpy,
        Kernel::BoxBlur,
    ];

    /// The kernel's short name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Matmul => "matmul",
            Kernel::ListWalk => "listwalk",
            Kernel::Sieve => "sieve",
            Kernel::FibRec => "fibrec",
            Kernel::Memcpy => "memcpy",
            Kernel::BoxBlur => "boxblur",
        }
    }

    /// The embedded assembly source.
    #[must_use]
    pub fn source(self) -> &'static str {
        match self {
            Kernel::Matmul => include_str!("../kernels/matmul.asm"),
            Kernel::ListWalk => include_str!("../kernels/listwalk.asm"),
            Kernel::Sieve => include_str!("../kernels/sieve.asm"),
            Kernel::FibRec => include_str!("../kernels/fibrec.asm"),
            Kernel::Memcpy => include_str!("../kernels/memcpy.asm"),
            Kernel::BoxBlur => include_str!("../kernels/boxblur.asm"),
        }
    }

    /// The default problem size used by the RISC-V figure and goldens:
    /// large enough for a few thousand to a few tens of thousands of dynamic
    /// instructions, small enough that a full three-family sweep stays fast.
    #[must_use]
    pub fn default_size(self) -> u64 {
        match self {
            Kernel::Matmul => 8,
            Kernel::ListWalk => 512,
            Kernel::Sieve => 1000,
            Kernel::FibRec => 14,
            Kernel::Memcpy => 1024,
            Kernel::BoxBlur => 12,
        }
    }

    /// A [`KernelRun`] at the default size.
    #[must_use]
    pub fn default_run(self) -> KernelRun {
        KernelRun::new(self, self.default_size())
    }

    /// Bytes of data memory (from [`DATA_BASE`]) a run of `size` touches;
    /// `None` if the footprint overflows `u64`.
    #[must_use]
    pub fn data_bytes(self, size: u64) -> Option<u64> {
        match self {
            // a, b and c matrices of size² doublewords each.
            Kernel::Matmul => size.checked_mul(size)?.checked_mul(24),
            // 16-byte nodes.
            Kernel::ListWalk => size.checked_mul(16),
            // One flag byte per candidate.
            Kernel::Sieve => Some(size),
            // Stack only (grows down from the top of memory).
            Kernel::FibRec => Some(0),
            // Source and destination arrays of size doublewords.
            Kernel::Memcpy => size.checked_mul(16),
            // Input and output grids of size² doublewords.
            Kernel::BoxBlur => size.checked_mul(size)?.checked_mul(16),
        }
    }

    /// Assembles the kernel source at [`CODE_BASE`].
    ///
    /// # Panics
    ///
    /// Panics if the embedded source fails to assemble (a build-time bug,
    /// caught by the `all_kernels_assemble` test).
    #[must_use]
    pub fn program(self) -> Program {
        match assemble(self.source(), CODE_BASE) {
            Ok(program) => program,
            Err(err) => panic!("kernel {} does not assemble: {err}", self.name()),
        }
    }

    /// The expected final `a0` for a run of `size`, computed by an
    /// independent Rust model of each kernel.
    #[must_use]
    pub fn reference(self, size: u64) -> u64 {
        match self {
            Kernel::Matmul => {
                let dim = size;
                let a = |i: u64, k: u64| i * dim + k;
                let b = |k: u64, j: u64| ((k * dim + j) & 7) + 1;
                let mut sum = 0u64;
                for i in 0..dim {
                    for j in 0..dim {
                        let mut acc = 0u64;
                        for k in 0..dim {
                            acc = acc.wrapping_add(a(i, k).wrapping_mul(b(k, j)));
                        }
                        sum = sum.wrapping_add(acc);
                    }
                }
                sum
            }
            Kernel::ListWalk => {
                let (n, steps) = (size, 4 * size);
                let mut node = 0u64;
                let mut sum = 0u64;
                for _ in 0..steps {
                    sum = sum.wrapping_add(node);
                    node = (node + LISTWALK_STRIDE) % n;
                }
                sum
            }
            Kernel::Sieve => {
                let n = size as usize;
                let mut composite = vec![false; n.max(2)];
                let mut p = 2;
                while p * p < n {
                    if !composite[p] {
                        let mut m = p * p;
                        while m < n {
                            composite[m] = true;
                            m += p;
                        }
                    }
                    p += 1;
                }
                (2..n).filter(|&i| !composite[i]).count() as u64
            }
            Kernel::FibRec => {
                let (mut a, mut b) = (0u64, 1u64);
                for _ in 0..size {
                    (a, b) = (b, a.wrapping_add(b));
                }
                a
            }
            Kernel::Memcpy => (0..size).map(|i| 3 * i + 1).sum(),
            Kernel::BoxBlur => {
                let n = size as i64;
                let input = |x: i64, y: i64| (7 * x + 13 * y) & 63;
                let mut sum = 0u64;
                for y in 1..n - 1 {
                    for x in 1..n - 1 {
                        let mut acc = 0i64;
                        for dy in -1..=1 {
                            for dx in -1..=1 {
                                acc += input(x + dx, y + dy);
                            }
                        }
                        sum = sum.wrapping_add((acc / 9) as u64);
                    }
                }
                sum
            }
        }
    }
}

/// A kernel together with its problem size: one execution-driven workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KernelRun {
    /// The kernel.
    pub kernel: Kernel,
    /// The problem size (see [`Kernel`] for each kernel's interpretation).
    pub size: u64,
}

impl KernelRun {
    /// Creates a run of `kernel` at `size`.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero or the kernel's data footprint does not
    /// fit the emulator memory (leaving 64 KiB of stack headroom) — an
    /// upfront check so an oversized sweep job fails at construction
    /// rather than deep inside a worker thread.
    #[must_use]
    pub fn new(kernel: Kernel, size: u64) -> Self {
        assert!(size > 0, "kernel size must be positive");
        const STACK_HEADROOM: u64 = 64 * 1024;
        let budget = crate::emu::MEM_SIZE - DATA_BASE - STACK_HEADROOM;
        let bytes = kernel.data_bytes(size);
        assert!(
            bytes.is_some_and(|b| b <= budget),
            "{}/{size} needs {bytes:?} data bytes but only {budget} fit the emulator memory",
            kernel.name()
        );
        KernelRun { kernel, size }
    }

    /// The display name, `<kernel>/<size>`.
    #[must_use]
    pub fn name(&self) -> String {
        format!("{}/{}", self.kernel.name(), self.size)
    }

    /// Builds a ready-to-run emulator: program assembled at
    /// [`CODE_BASE`], `a0` = [`DATA_BASE`], `a1` = size, and for the list
    /// walk `a2` = 4×size steps.
    #[must_use]
    pub fn emulator(&self) -> Emulator {
        let program = self.kernel.program();
        let mut emu = Emulator::new(&program);
        emu.set_reg(Reg::A0, DATA_BASE);
        emu.set_reg(Reg::A1, self.size);
        if self.kernel == Kernel::ListWalk {
            emu.set_reg(Reg::A2, 4 * self.size);
        }
        emu
    }

    /// The expected final `a0` (the kernel's checksum/result).
    #[must_use]
    pub fn expected_result(&self) -> u64 {
        self.kernel.reference(self.size)
    }
}

impl From<Kernel> for KernelRun {
    fn from(kernel: Kernel) -> Self {
        kernel.default_run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_kernels_assemble() {
        for kernel in Kernel::ALL {
            let program = kernel.program();
            assert!(!program.is_empty(), "{} is empty", kernel.name());
        }
    }

    #[test]
    fn every_kernel_matches_its_reference_model() {
        for kernel in Kernel::ALL {
            let run = kernel.default_run();
            let mut emu = run.emulator();
            emu.run_to_halt();
            assert!(
                emu.ran_to_completion(),
                "{} did not halt cleanly",
                run.name()
            );
            assert_eq!(
                emu.reg(Reg::A0),
                run.expected_result(),
                "{} produced the wrong checksum",
                run.name()
            );
        }
    }

    #[test]
    fn kernels_match_the_reference_at_non_default_sizes() {
        for (kernel, size) in [
            (Kernel::Matmul, 5),
            (Kernel::ListWalk, 33),
            (Kernel::Sieve, 100),
            (Kernel::FibRec, 9),
            (Kernel::Memcpy, 17),
            (Kernel::BoxBlur, 5),
        ] {
            let run = KernelRun::new(kernel, size);
            let mut emu = run.emulator();
            emu.run_to_halt();
            assert_eq!(emu.reg(Reg::A0), run.expected_result(), "{}", run.name());
        }
    }

    #[test]
    fn known_small_results() {
        assert_eq!(Kernel::FibRec.reference(10), 55);
        assert_eq!(Kernel::Sieve.reference(30), 10, "primes below 30");
        assert_eq!(Kernel::Memcpy.reference(4), 1 + 4 + 7 + 10);
    }

    #[test]
    fn dynamic_lengths_are_modest() {
        for kernel in Kernel::ALL {
            let mut emu = kernel.default_run().emulator();
            let retired = emu.run_to_halt();
            assert!(
                (1_000..200_000).contains(&retired),
                "{}: {retired} dynamic instructions",
                kernel.name()
            );
        }
    }

    #[test]
    fn run_names_include_the_size() {
        assert_eq!(Kernel::Matmul.default_run().name(), "matmul/8");
        assert_eq!(KernelRun::new(Kernel::Sieve, 50).name(), "sieve/50");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_sized_runs_are_rejected() {
        let _ = KernelRun::new(Kernel::Matmul, 0);
    }

    #[test]
    #[should_panic(expected = "emulator memory")]
    fn oversized_runs_are_rejected_at_construction() {
        // 3 matrices × 300² × 8 bytes ≈ 2.2 MB > the 1 MiB flat memory.
        let _ = KernelRun::new(Kernel::Matmul, 300);
    }

    #[test]
    fn footprints_of_default_runs_fit_comfortably() {
        for kernel in Kernel::ALL {
            let bytes = kernel
                .data_bytes(kernel.default_size())
                .expect("no overflow");
            assert!(
                bytes < crate::emu::MEM_SIZE / 2,
                "{}: {bytes} bytes",
                kernel.name()
            );
        }
    }
}
