//! Sampled simulation: functionally warmed fast-forward + detailed windows.
//!
//! Exact mode simulates every instruction of a job's budget in detail. For
//! long workloads that is the dominant cost of regenerating the paper's
//! figures, even though IPC converges long before the budget is spent.
//! This module implements the classic systematic-sampling alternative
//! (SMARTS-style): the workload *stream* is functionally fast-forwarded
//! between evenly spaced detailed windows, and whole-run IPC is estimated
//! from the windows alone.
//!
//! One sampling *period* ([`dkip_model::SampleConfig`]) looks like:
//!
//! ```text
//! |--- warmup ---|--- window ---|---------- fast-forward ----------|
//!  detailed, not   detailed and   functional only: ops execute
//!  measured        measured       architecturally and warm the caches
//!                                 and predictor, no timing is modelled
//! ```
//!
//! * One live core — the engine [`Machine::build`] returns, so every family
//!   samples through the same [`dkip_ooo::Engine`] calls — runs every
//!   period. Between periods it is drained: the instructions still in
//!   flight when the window ends commit against an exhausted stream, so
//!   the post-gap ops (whose sequence numbers jump past the skipped span)
//!   enter an empty pipeline. Warm long-lived state —
//!   caches, branch predictor, statistics — carries across the gaps, while
//!   no stale in-flight pipeline state can leak into the measurement (the
//!   skipped instructions were never simulated in detail). A drained core
//!   holds no more bookkeeping than its windows bound: wakeup lists are
//!   indexed by ROB position and reclaimed as the window wraps, so nothing
//!   grows with the number of periods and no period clones the core.
//! * The warmup instructions re-prime the pipeline and refresh the warm
//!   state before measurement starts; they are simulated in detail but
//!   excluded from the estimate.
//! * The fast-forward portion performs SMARTS-style *functional warming*:
//!   every skipped op is drawn through the ordinary stream iterator (so
//!   the stream position stays bit-identical to detailed consumption and a
//!   sampled run commits the exact same architectural state as an exact
//!   run — the differential-fuzz oracle asserts this) and handed to the
//!   drained core's `warm_op` (one `Engine::fast_forward` call per gap),
//!   which installs memory lines in the cache hierarchy and trains the
//!   branch predictor without modelling timing.
//!   Without this, miss-dominated workloads measure their windows against
//!   fictitious cache contents and the estimate degrades catastrophically.
//!
//! The estimate itself is the ratio estimator over the per-window
//! populations, with the ratio estimator's own normal-approximation 95%
//! confidence interval ([`dkip_model::SampleEstimator`]). Exact mode
//! remains the golden reference: `tests/sampled_accuracy.rs` pins the
//! sampled estimate to a small relative-error band against exact IPC on
//! every golden suite.

use dkip_model::config::MemoryHierarchyConfig;
use dkip_model::{IpcEstimate, MicroOp, SampleConfig, SampleEstimator, SimStats, WindowSample};

use crate::runner::Machine;
use crate::workload::WorkloadStream;

/// The outcome of one sampled simulation ([`run_sampled`]).
#[derive(Debug, Clone)]
pub struct SampledRun {
    /// The sampling rate that was used.
    pub sample: SampleConfig,
    /// The whole-run IPC estimate with its 95% confidence interval.
    pub estimate: IpcEstimate,
    /// Instructions committed in detail (warmup + measured windows).
    pub detailed_committed: u64,
    /// Instructions functionally fast-forwarded between windows.
    pub fast_forwarded: u64,
    /// Instructions the stream advanced by in total: every op drawn by a
    /// detailed core (committed or still in flight when its period ended)
    /// plus the fast-forwarded gaps.
    pub stream_consumed: u64,
}

impl SampledRun {
    /// Total instructions the run covered (the final stream position).
    #[must_use]
    pub fn consumed(&self) -> u64 {
        self.stream_consumed
    }

    /// Fraction of the covered instructions that went through a detailed
    /// core rather than the functional fast-forward path.
    #[must_use]
    pub fn detailed_fraction(&self) -> f64 {
        if self.stream_consumed == 0 {
            return 0.0;
        }
        (self.stream_consumed - self.fast_forwarded) as f64 / self.stream_consumed as f64
    }

    /// Collapses the estimate into a [`SimStats`] record so sampled jobs
    /// flow through the same reporting paths as exact ones.
    ///
    /// Only the measured-window aggregates are meaningful: `committed` and
    /// `cycles` are the window totals, so [`SimStats::ipc`] reproduces the
    /// ratio estimate exactly; every other counter is zero because the
    /// fast-forwarded gaps were never simulated in detail.
    #[must_use]
    pub fn to_stats(&self) -> SimStats {
        let mut stats = SimStats::new();
        stats.committed = self.estimate.committed;
        stats.cycles = self.estimate.cycles;
        stats
    }
}

/// Counts the micro-ops a detailed core actually draws from the stream.
///
/// A core prefetches past its commit bound, so at the end of a detailed
/// portion the stream has advanced further than the committed count — by
/// the in-flight instructions the dropped core still held. Coverage
/// accounting must follow the *stream* position, not the commit count, or
/// a finite workload would appear to end short.
struct CountedStream<'a> {
    inner: &'a mut WorkloadStream,
    taken: u64,
}

impl Iterator for CountedStream<'_> {
    type Item = MicroOp;

    fn next(&mut self) -> Option<MicroOp> {
        let op = self.inner.next();
        if op.is_some() {
            self.taken += 1;
        }
        op
    }
}

/// Runs `machine` on `stream` under systematic sampling and returns the
/// IPC estimate (see the module docs for the period anatomy).
///
/// The run covers up to `budget` instructions of the stream — the same
/// span an exact job with that budget would simulate — and ends early only
/// when a finite stream is exhausted. The stream is left positioned at the
/// end of the covered span, so a caller holding a
/// [`dkip_riscv::RiscvStream`] can drain and inspect the final emulator
/// state afterwards.
///
/// # Panics
///
/// Panics if the memory configuration or the sampling rate is invalid.
#[must_use]
pub fn run_sampled(
    machine: &Machine,
    mem_cfg: &MemoryHierarchyConfig,
    stream: &mut WorkloadStream,
    budget: u64,
    sample: &SampleConfig,
) -> SampledRun {
    sample.validate().expect("invalid sampling rate");
    let mut core = machine.build(mem_cfg);
    let mut estimator = SampleEstimator::new();
    let mut counted = CountedStream {
        inner: stream,
        taken: 0,
    };
    // Committed instructions of the core so far: the cores' run() bound is
    // cumulative, so each segment's target is expressed on top of this.
    let mut committed_base = 0u64;
    let mut fast_forwarded = 0u64;
    loop {
        let consumed = counted.taken + fast_forwarded;
        if consumed >= budget {
            break;
        }
        // Detailed portion: the drained core (warm caches, predictor and
        // statistics; empty pipeline) runs the warmup, then the measured
        // window, on the live stream.
        let warm_committed = if sample.warmup > 0 {
            core.run(&mut counted, committed_base + sample.warmup)
                .committed
                - committed_base
        } else {
            0
        };
        let warm_cycle = core.cycle();
        let detailed_target = sample.warmup + sample.window;
        let stats = core.run(&mut counted, committed_base + detailed_target);
        let window_committed = stats.committed - committed_base - warm_committed;
        let window_cycles = core.cycle() - warm_cycle;
        if window_committed > 0 {
            estimator.add_window(WindowSample {
                start_instr: consumed + warm_committed,
                committed: window_committed,
                cycles: window_cycles,
            });
        }
        let exhausted = stats.committed - committed_base < detailed_target;
        // Drain the in-flight tail by running against an exhausted stream,
        // so the next window's post-gap ops (whose sequence numbers jump
        // past the skipped span) enter an empty pipeline.
        committed_base = core.run(&mut std::iter::empty(), u64::MAX).committed;
        if exhausted {
            break; // finite stream ended inside the detailed portion
        }
        let consumed = counted.taken + fast_forwarded;
        if consumed >= budget {
            break;
        }
        // Fast-forward portion: advance the stream to the next period,
        // functionally warming the drained core's caches and predictor
        // with every skipped op; the next window runs on the warmed core.
        let want = sample.skip().min(budget - consumed);
        let skipped = core.fast_forward(counted.inner, want);
        fast_forwarded += skipped;
        if skipped < want {
            break; // finite stream exhausted inside the gap
        }
    }
    SampledRun {
        sample: *sample,
        estimate: estimator.estimate(),
        detailed_committed: committed_base,
        fast_forwarded,
        stream_consumed: counted.taken + fast_forwarded,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;
    use dkip_model::config::{BaselineConfig, DkipConfig, KiloConfig};
    use dkip_riscv::Kernel;
    use dkip_trace::Benchmark;

    fn machines() -> Vec<Machine> {
        vec![
            Machine::Baseline(BaselineConfig::r10_64()),
            Machine::Kilo(KiloConfig::kilo_1024()),
            Machine::Dkip(DkipConfig::paper_default()),
        ]
    }

    #[test]
    fn sampling_covers_the_budget_on_endless_workloads() {
        let mem = MemoryHierarchyConfig::mem_400();
        let sample = SampleConfig::default_rate();
        for machine in machines() {
            let mut stream = Workload::from(Benchmark::Gcc).stream(1);
            let run = run_sampled(&machine, &mem, &mut stream, 50_000, &sample);
            // Coverage overshoots the budget by at most the last period's
            // in-flight instructions (the stream advances past the commit
            // bound while the pipeline is still full).
            assert!(
                (50_000..65_000).contains(&run.consumed()),
                "{}: consumed {}",
                machine.name(),
                run.consumed()
            );
            assert_eq!(run.estimate.windows, 5, "{}", machine.name());
            assert!(run.estimate.ipc > 0.0 && run.estimate.ipc < 8.0);
            assert!(run.detailed_fraction() < 0.40, "{}", machine.name());
            assert!(run.fast_forwarded > run.detailed_committed);
        }
    }

    #[test]
    fn sampling_stops_when_a_finite_kernel_halts() {
        let mem = MemoryHierarchyConfig::mem_400();
        let sample = SampleConfig::default_rate();
        let exact_len = Workload::from(Kernel::FibRec).stream(1).count() as u64;
        let machine = Machine::Dkip(DkipConfig::paper_default());
        let mut stream = Workload::from(Kernel::FibRec).stream(1);
        let run = run_sampled(&machine, &mem, &mut stream, u64::MAX, &sample);
        assert_eq!(run.consumed(), exact_len);
        assert!(stream.next().is_none(), "stream fully drained");
        assert!(run.estimate.windows >= 1);
    }

    #[test]
    fn sampled_runs_are_deterministic() {
        let mem = MemoryHierarchyConfig::mem_400();
        let sample = SampleConfig::parse("5000:500:500").unwrap();
        let machine = Machine::Dkip(DkipConfig::paper_default());
        let mut a = Workload::from(Benchmark::Swim).stream(1);
        let mut b = Workload::from(Benchmark::Swim).stream(1);
        let ra = run_sampled(&machine, &mem, &mut a, 30_000, &sample);
        let rb = run_sampled(&machine, &mem, &mut b, 30_000, &sample);
        assert_eq!(ra.estimate.ipc.to_bits(), rb.estimate.ipc.to_bits());
        assert_eq!(ra.estimate.ci95.to_bits(), rb.estimate.ci95.to_bits());
        assert_eq!(ra.detailed_committed, rb.detailed_committed);
        assert_eq!(ra.fast_forwarded, rb.fast_forwarded);
    }

    #[test]
    fn to_stats_reproduces_the_ratio_estimate() {
        let mem = MemoryHierarchyConfig::mem_400();
        let sample = SampleConfig::default_rate();
        let machine = Machine::Baseline(BaselineConfig::r10_64());
        let mut stream = Workload::from(Benchmark::Mcf).stream(1);
        let run = run_sampled(&machine, &mem, &mut stream, 40_000, &sample);
        let stats = run.to_stats();
        assert_eq!(stats.committed, run.estimate.committed);
        assert_eq!(stats.cycles, run.estimate.cycles);
        assert!((stats.ipc() - run.estimate.ipc).abs() < 1e-12);
    }

    #[test]
    fn whole_period_windows_degenerate_to_exact_simulation() {
        // window == period with no warmup and no gap: every instruction is
        // simulated in detail, by one core drained between periods.
        let mem = MemoryHierarchyConfig::mem_400();
        let sample = SampleConfig::parse("10000:0:10000").unwrap();
        let machine = Machine::Baseline(BaselineConfig::r10_64());
        let mut stream = Workload::from(Benchmark::Gcc).stream(1);
        let run = run_sampled(&machine, &mem, &mut stream, 10_000, &sample);
        assert_eq!(run.fast_forwarded, 0);
        assert!(run.detailed_committed >= 10_000);
        let exact = machine.simulate(&mem, &Workload::from(Benchmark::Gcc), 10_000, 1);
        assert_eq!(run.estimate.committed, exact.committed);
        assert_eq!(run.estimate.cycles, exact.cycles);
    }
}
