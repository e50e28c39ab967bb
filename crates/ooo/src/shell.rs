//! The engine shell shared by every core family: one front end and one
//! event-clock driver loop.
//!
//! The D-KIP's Cache Processor is a small conventional out-of-order core
//! with the same fetch, branch-prediction and mispredict-refill front end as
//! the R10000 baseline; what the paper decouples is the back end. This
//! module is that split:
//!
//! * [`FrontEnd`] owns the branch predictor, the fetch queue and the
//!   mispredict-refill state. It provides the fetch stage, the dispatch
//!   gate, predict-at-dispatch, mispredict resolution and the branch half of
//!   functional warming.
//! * [`Engine`] is what a core family implements: its back-end `tick`, its
//!   own pending events, its drain condition, its metrics frame and final
//!   statistics, and the memory half of functional warming. The provided
//!   [`Engine::run_probed`] is the one driver loop every family runs under:
//!   it owns the safety cycle cap, the metrics cadence, the drain check and
//!   the event-driven clock that skips quiesced cycles.
//!
//! A `Box<dyn Engine>` dispatches dynamically once per `run_probed` call;
//! inside the loop each family's own copy calls its `tick` statically.

use crate::rob::RobEntry;
use dkip_bpred::{BranchPredictor, PredictorKind};
use dkip_model::telemetry::{MetricsFrame, Telemetry};
use dkip_model::{MicroOp, SimStats, WarmOp};
use std::collections::VecDeque;

/// Fetch, branch prediction and mispredict refill: the part of a core that
/// is the same in every family.
///
/// The reproduction is trace driven, so a mispredicted branch never injects
/// wrong-path instructions. Instead fetch stalls from the moment the branch
/// dispatches until it resolves and the refill penalty has been paid, and
/// instructions younger than the branch may not dispatch in that time.
#[derive(Debug, Clone)]
pub struct FrontEnd {
    predictor: Box<dyn BranchPredictor>,
    /// Instructions fetched per cycle.
    fetch_width: usize,
    /// Fetched but not yet dispatched instructions.
    fetch_queue: VecDeque<MicroOp>,
    /// Dispatched, mispredicted, not-yet-resolved conditional branches
    /// (front = oldest). Fetch and younger dispatch stall behind the front.
    unresolved_mispredicts: VecDeque<u64>,
    /// Cycle at which fetch may resume after the refill penalty.
    fetch_resume_at: u64,
    /// Instructions with a sequence number greater than this may not
    /// dispatch while the refill penalty is being paid.
    refill_boundary: u64,
    /// Whether the trace iterator has returned `None` (finite traces such as
    /// the execution-driven RISC-V kernels end; the synthetic generators
    /// never do).
    trace_done: bool,
    /// Force one tick per simulated cycle instead of letting the driver
    /// fast-forward over quiesced stretches ([`Engine::set_single_step`]).
    single_step: bool,
}

impl FrontEnd {
    /// An empty front end fetching up to `fetch_width` instructions a cycle
    /// and predicting with a fresh `predictor`.
    #[must_use]
    pub fn new(predictor: PredictorKind, fetch_width: usize) -> Self {
        FrontEnd {
            predictor: predictor.build(),
            fetch_width,
            fetch_queue: VecDeque::new(),
            unresolved_mispredicts: VecDeque::new(),
            fetch_resume_at: 0,
            refill_boundary: u64::MAX,
            trace_done: false,
            single_step: false,
        }
    }

    /// The fetch stage: pulls up to a fetch width of instructions from
    /// `trace` into a queue of three fetch widths, unless a mispredict is
    /// unresolved or the refill penalty is still being paid (a stall cycle).
    /// Returns whether anything was fetched.
    #[inline]
    pub fn fetch(
        &mut self,
        trace: &mut dyn Iterator<Item = MicroOp>,
        cycle: u64,
        stats: &mut SimStats,
        mut probe: Option<&mut Telemetry>,
    ) -> bool {
        if !self.unresolved_mispredicts.is_empty() || cycle < self.fetch_resume_at {
            stats.mispredict_stall_cycles += 1;
            return false;
        }
        let mut fetched = false;
        let limit = self.fetch_width * 3;
        for _ in 0..self.fetch_width {
            if self.fetch_queue.len() >= limit {
                break;
            }
            let Some(op) = trace.next() else {
                self.trace_done = true;
                break;
            };
            stats.fetched += 1;
            if let Some(t) = probe.as_deref_mut() {
                t.trace_fetch(&op, cycle);
            }
            self.fetch_queue.push_back(op);
            fetched = true;
        }
        fetched
    }

    /// The dispatch gate: the oldest fetched instruction if it may dispatch
    /// at `cycle`. Instructions younger than an unresolved mispredicted
    /// branch are (conceptually) wrong-path refetches: they only enter the
    /// pipeline once the branch has resolved and the refill penalty has
    /// been paid.
    #[must_use]
    #[inline]
    pub fn next_to_dispatch(&self, cycle: u64) -> Option<&MicroOp> {
        let op = self.fetch_queue.front()?;
        let behind_mispredict = self
            .unresolved_mispredicts
            .front()
            .is_some_and(|&branch| op.seq > branch);
        let refilling = cycle < self.fetch_resume_at && op.seq > self.refill_boundary;
        (!behind_mispredict && !refilling).then_some(op)
    }

    /// Removes the instruction [`FrontEnd::next_to_dispatch`] returned, once
    /// the back end has accepted it.
    ///
    /// # Panics
    ///
    /// Panics if the fetch queue is empty.
    #[inline]
    pub fn take_next(&mut self) -> MicroOp {
        self.fetch_queue.pop_front().expect("checked non-empty")
    }

    /// Predicts a conditional branch as it dispatches, recording the
    /// prediction in its ROB entry; a mispredicted branch stalls fetch until
    /// it resolves ([`FrontEnd::resolve`]).
    #[inline]
    pub fn predict(&mut self, entry: &mut RobEntry) {
        if !entry.op.is_conditional_branch() {
            return;
        }
        let predicted = self.predictor.predict(entry.op.pc);
        entry.predicted_taken = predicted;
        entry.mispredicted = predicted != entry.op.branch.expect("conditional branch").taken;
        if entry.mispredicted {
            self.unresolved_mispredicts.push_back(entry.op.seq);
        }
    }

    /// Resolves `op` when it completes: a conditional branch trains the
    /// predictor and is counted. If it is the oldest unresolved mispredict,
    /// fetch resumes `penalty` cycles after `cycle` and the method returns
    /// `true`; younger instructions refill behind it.
    #[inline]
    pub fn resolve(
        &mut self,
        op: &MicroOp,
        predicted_taken: bool,
        mispredicted: bool,
        cycle: u64,
        penalty: u64,
        stats: &mut SimStats,
    ) -> bool {
        if !op.is_conditional_branch() {
            return false;
        }
        let taken = op.branch.expect("conditional branch").taken;
        stats.cond_branches += 1;
        self.predictor.update(op.pc, taken, predicted_taken);
        if !mispredicted {
            return false;
        }
        stats.branch_mispredicts += 1;
        if self.unresolved_mispredicts.front() != Some(&op.seq) {
            return false;
        }
        self.unresolved_mispredicts.pop_front();
        self.fetch_resume_at = cycle + penalty;
        self.refill_boundary = op.seq;
        true
    }

    /// Trains the predictor with a conditional branch that is not simulated
    /// in detail, as the in-order predict/update pair the pipeline itself
    /// would apply ([`BranchPredictor::train`]).
    #[inline]
    pub fn warm_branch(&mut self, pc: u64, taken: bool) {
        self.predictor.train(pc, taken);
    }

    /// The end of the refill penalty, if it lies after `cycle`.
    #[must_use]
    #[inline]
    pub fn refill_event(&self, cycle: u64) -> Option<u64> {
        Some(self.fetch_resume_at).filter(|&at| at > cycle)
    }

    /// Whether the trace has ended and every fetched instruction dispatched.
    #[must_use]
    #[inline]
    pub fn drained(&self) -> bool {
        self.trace_done && self.fetch_queue.is_empty()
    }
}

/// A cycle-level core family under the shared shell.
///
/// Implementors provide the state accessors and the family hooks; the
/// driver loop ([`Engine::run_probed`]), the merged event horizon
/// ([`Engine::next_event`]) and functional warming ([`Engine::warm`])
/// are provided once for every family.
pub trait Engine {
    /// The shared front end.
    fn front_end(&self) -> &FrontEnd;

    /// The shared front end, mutably.
    fn front_end_mut(&mut self) -> &mut FrontEnd;

    /// The current cycle.
    fn cycle(&self) -> u64;

    /// The statistics accumulated so far.
    fn stats(&self) -> &SimStats;

    /// The clock and the statistics, for the driver to advance.
    fn clock_mut(&mut self) -> (&mut u64, &mut SimStats);

    /// Advances the whole machine by one cycle, bumping the cycle and
    /// `ticks_executed`, and reports whether any work happened in any stage.
    /// A `false` return means the machine state is unchanged apart from
    /// time-gated conditions, so every following cycle until
    /// [`Engine::next_event`] would be identical.
    ///
    /// The telemetry sink observes exactly the work the progress flag
    /// reports: any stage that can make progress must feed both.
    fn tick(
        &mut self,
        trace: &mut dyn Iterator<Item = MicroOp>,
        probe: Option<&mut Telemetry>,
    ) -> bool;

    /// The earliest cycle after the current one at which the back end's
    /// state changes without new work arriving (the front end's refill is
    /// merged in by [`Engine::next_event`]).
    fn back_end_event(&mut self) -> Option<u64>;

    /// Whether nothing is left in flight past the front end.
    fn drained(&self) -> bool;

    /// The interval-metrics snapshot of the current machine state.
    fn metrics_frame(&self) -> MetricsFrame;

    /// Copies the family's end-of-run counters (caches, buffer peaks, …)
    /// into the statistics; called by the driver before it returns them.
    fn finalize_stats(&mut self);

    /// Installs or promotes the line at `addr` in the cache hierarchy
    /// without modelling timing.
    fn warm_memory(&mut self, addr: u64, is_store: bool);

    /// [`Engine::run_probed`] without a telemetry sink.
    fn run(&mut self, trace: &mut dyn Iterator<Item = MicroOp>, max_instrs: u64) -> SimStats {
        self.run_probed(trace, max_instrs, None)
    }

    /// Runs until `max_instrs` instructions have committed in total, the
    /// trace ends and the whole machine drains (finite execution-driven
    /// streams run to completion), or a safety cycle bound is reached.
    /// Returns the accumulated statistics.
    ///
    /// Unless single-stepping is forced ([`Engine::set_single_step`]),
    /// quiesced stretches — a tick that reports no progress — are
    /// fast-forwarded to the earliest [`Engine::next_event`], with the
    /// per-cycle stall counters bumped by the skipped delta so every
    /// statistic stays bit-identical to single-stepping.
    ///
    /// The telemetry sink is a run parameter, not core state, so snapshots
    /// are unaffected; with `None` each probe site costs one predictable
    /// branch and no allocation, and the simulation is bit-identical either
    /// way. A sink observes every pipeline stage and records an
    /// interval-metrics row whenever the committed counter crosses a
    /// boundary.
    fn run_probed(
        &mut self,
        trace: &mut dyn Iterator<Item = MicroOp>,
        max_instrs: u64,
        mut probe: Option<&mut Telemetry>,
    ) -> SimStats {
        let cycle_cap = self
            .cycle()
            .saturating_add(max_instrs.saturating_mul(2000).max(1_000_000));
        // Each run() call may bring a fresh trace, so exhaustion must not
        // latch across calls (it re-latches on the first empty fetch).
        self.front_end_mut().trace_done = false;
        while self.stats().committed < max_instrs && self.cycle() < cycle_cap {
            let stalls_before = self.stats().stall_counter_snapshot();
            let progress = self.tick(trace, probe.as_deref_mut());
            if let Some(t) = probe.as_deref_mut() {
                if t.metrics_due(self.stats().committed) {
                    t.record_metrics(&self.metrics_frame());
                }
            }
            if self.front_end().drained() && self.drained() {
                break;
            }
            if !progress && !self.front_end().single_step {
                skip_quiesced_cycles(self, cycle_cap, stalls_before);
            }
        }
        let (cycle, stats) = self.clock_mut();
        stats.cycles = *cycle;
        self.finalize_stats();
        self.stats().clone()
    }

    /// The earliest future cycle (strictly after the current one) at which
    /// the machine's state can change without new work arriving: a back-end
    /// event or the end of the front-end refill penalty. `None` means no
    /// event is pending and the machine can never wake on its own.
    fn next_event(&mut self) -> Option<u64> {
        let refill = self.front_end().refill_event(self.cycle());
        self.back_end_event().into_iter().chain(refill).min()
    }

    /// Functionally warms the long-lived microarchitectural state with a
    /// batch of instructions that are *not* being simulated in detail:
    /// memory accesses install/promote their line in the cache hierarchy
    /// and conditional branches train the direction predictor. The
    /// pipeline, clock and committed counters are untouched.
    ///
    /// This is the sampled-simulation mode's fast-forward: the stream
    /// producers emit the batch without building micro-ops, and a
    /// `Box<dyn Engine>` dispatches once per batch, not once per op.
    fn warm(&mut self, batch: &[WarmOp]) {
        for &op in batch {
            match op {
                WarmOp::Mem { addr, is_store } => self.warm_memory(addr, is_store),
                WarmOp::Branch { pc, taken } => self.front_end_mut().warm_branch(pc, taken),
            }
        }
    }

    /// [`Engine::warm`] with the one instruction `op`.
    fn warm_op(&mut self, op: &MicroOp) {
        self.warm(WarmOp::of(op).as_slice());
    }

    /// Forces (or releases) single-stepped simulation: one tick per
    /// simulated cycle, no quiesced-cycle skipping. Statistics are
    /// identical either way; only host time differs. Engines start with
    /// skipping on.
    fn set_single_step(&mut self, single_step: bool) {
        self.front_end_mut().single_step = single_step;
    }
}

/// Fast-forwards over a quiesced stretch: advances the clock to just before
/// the next event (or past `cycle_cap` when no event is pending, matching a
/// single-stepped spin to the cap) and replays the per-cycle stall bumps
/// the skipped ticks would have performed.
fn skip_quiesced_cycles<E: Engine + ?Sized>(
    engine: &mut E,
    cycle_cap: u64,
    stalls_before: [u64; 4],
) {
    let past_cap = cycle_cap.saturating_add(1);
    let target = engine.next_event().unwrap_or(past_cap).min(past_cap) - 1;
    let (cycle, stats) = engine.clock_mut();
    if target <= *cycle {
        return;
    }
    let skipped = target - *cycle;
    *cycle = target;
    stats.cycles_skipped += skipped;
    stats.replay_stall_cycles(stalls_before, skipped);
}

#[cfg(test)]
mod tests {
    use super::*;
    use dkip_model::{BranchInfo, OpClass, RegClass};

    /// A back end that never makes progress and never schedules an event:
    /// every tick bumps two stall counters, as a machine wedged on a full
    /// buffer would.
    #[derive(Debug)]
    struct Wedged {
        front: FrontEnd,
        cycle: u64,
        stats: SimStats,
    }

    impl Engine for Wedged {
        fn front_end(&self) -> &FrontEnd {
            &self.front
        }
        fn front_end_mut(&mut self) -> &mut FrontEnd {
            &mut self.front
        }
        fn cycle(&self) -> u64 {
            self.cycle
        }
        fn stats(&self) -> &SimStats {
            &self.stats
        }
        fn clock_mut(&mut self) -> (&mut u64, &mut SimStats) {
            (&mut self.cycle, &mut self.stats)
        }
        fn tick(
            &mut self,
            trace: &mut dyn Iterator<Item = MicroOp>,
            probe: Option<&mut Telemetry>,
        ) -> bool {
            self.cycle += 1;
            self.stats.ticks_executed += 1;
            self.stats.rob_full_stall_cycles += 1;
            self.stats.analyze_stall_cycles += 1;
            self.front.fetch(trace, self.cycle, &mut self.stats, probe)
        }
        fn back_end_event(&mut self) -> Option<u64> {
            None
        }
        fn drained(&self) -> bool {
            false
        }
        fn metrics_frame(&self) -> MetricsFrame {
            MetricsFrame::default()
        }
        fn finalize_stats(&mut self) {}
        fn warm_memory(&mut self, _addr: u64, _is_store: bool) {}
    }

    fn run_wedged(single_step: bool) -> SimStats {
        let mut engine = Wedged {
            front: FrontEnd::new(PredictorKind::NotTaken, 4),
            cycle: 0,
            stats: SimStats::new(),
        };
        engine.set_single_step(single_step);
        engine.run(&mut std::iter::empty(), 10)
    }

    #[test]
    fn a_wedged_engine_stops_at_the_cycle_cap_in_both_clock_modes() {
        let stepped = run_wedged(true);
        let skipped = run_wedged(false);
        // 10 instructions give the 1M-cycle floor of the safety cap.
        assert_eq!(stepped.cycles, 1_000_000);
        assert_eq!(stepped.to_kv(), skipped.to_kv());
        assert_eq!(skipped.rob_full_stall_cycles, 1_000_000);
        assert_eq!(skipped.analyze_stall_cycles, 1_000_000);
        assert_eq!(stepped.ticks_executed, stepped.cycles);
        assert_eq!(skipped.ticks_executed, 1);
        assert_eq!(
            skipped.ticks_executed + skipped.cycles_skipped,
            skipped.cycles
        );
    }

    fn op(seq: u64) -> MicroOp {
        MicroOp::new(seq, 0x1000 + 4 * seq, OpClass::IntAlu)
    }

    /// A taken conditional branch, which a not-taken predictor mispredicts.
    fn taken_branch(seq: u64) -> MicroOp {
        MicroOp::new(seq, 0x1000 + 4 * seq, OpClass::Branch)
            .with_branch(BranchInfo::conditional(true, 0x2000))
    }

    /// A front end holding ops `0..n` (op `branch` a taken conditional
    /// branch), with everything up to and including the branch dispatched
    /// and predicted.
    fn front_with_mispredict(n: u64, branch: u64) -> (FrontEnd, Vec<RobEntry>) {
        let mut front = FrontEnd::new(PredictorKind::NotTaken, 8);
        let mut trace = (0..n).map(|seq| {
            if seq == branch {
                taken_branch(seq)
            } else {
                op(seq)
            }
        });
        assert!(front.fetch(&mut trace, 1, &mut SimStats::new(), None));
        let mut dispatched = Vec::new();
        while front.next_to_dispatch(1).is_some() {
            let mut entry = RobEntry::new(front.take_next(), 1, RegClass::Int);
            front.predict(&mut entry);
            dispatched.push(entry);
        }
        (front, dispatched)
    }

    #[test]
    fn nothing_dispatches_past_the_oldest_unresolved_mispredict() {
        let (front, dispatched) = front_with_mispredict(6, 2);
        assert_eq!(dispatched.len(), 3, "ops 0..=2 dispatch, op 3 waits");
        assert!(dispatched[2].mispredicted);
        assert!(front.next_to_dispatch(1_000).is_none());
        let mut stats = SimStats::new();
        let mut trace = (6..10).map(op);
        assert!(!front.clone().fetch(&mut trace, 2, &mut stats, None));
        assert_eq!(stats.mispredict_stall_cycles, 1, "fetch stalls too");
    }

    #[test]
    fn younger_ops_wait_for_the_refill_after_resolution() {
        let (mut front, dispatched) = front_with_mispredict(6, 2);
        let branch = &dispatched[2];
        let mut stats = SimStats::new();
        assert!(front.resolve(&branch.op, branch.predicted_taken, true, 10, 5, &mut stats));
        assert_eq!((stats.cond_branches, stats.branch_mispredicts), (1, 1));
        assert_eq!(front.refill_event(10), Some(15));
        assert!(front.next_to_dispatch(14).is_none(), "refill not paid yet");
        assert_eq!(front.next_to_dispatch(15).map(|op| op.seq), Some(3));
        assert_eq!(front.refill_event(15), None);
    }

    #[test]
    fn resolving_a_younger_mispredict_does_not_release_fetch() {
        let mut front = FrontEnd::new(PredictorKind::NotTaken, 8);
        let mut entries: Vec<RobEntry> = [taken_branch(0), taken_branch(1)]
            .into_iter()
            .map(|op| RobEntry::new(op, 1, RegClass::Int))
            .collect();
        for entry in &mut entries {
            front.predict(entry);
            assert!(entry.mispredicted);
        }
        let mut stats = SimStats::new();
        let younger = &entries[1];
        assert!(!front.resolve(
            &younger.op,
            younger.predicted_taken,
            true,
            10,
            5,
            &mut stats
        ));
        assert_eq!(stats.branch_mispredicts, 1, "still counted");
        assert_eq!(front.refill_event(0), None, "no refill scheduled");
        assert!(!front.fetch(&mut (2..4).map(op), 11, &mut stats, None));
        let oldest = &entries[0];
        assert!(front.resolve(&oldest.op, oldest.predicted_taken, true, 12, 5, &mut stats));
        assert_eq!(front.refill_event(12), Some(17));
    }

    #[test]
    fn an_extra_recovery_penalty_delays_the_refill() {
        let (mut front, dispatched) = front_with_mispredict(4, 1);
        let branch = &dispatched[1];
        let (penalty, recovery) = (5, 20);
        let mut stats = SimStats::new();
        assert!(front.resolve(
            &branch.op,
            branch.predicted_taken,
            true,
            10,
            penalty + recovery,
            &mut stats,
        ));
        assert!(front.next_to_dispatch(10 + penalty).is_none());
        assert!(!front.fetch(&mut (4..6).map(op), 10 + penalty, &mut stats, None));
        assert_eq!(front.next_to_dispatch(35).map(|op| op.seq), Some(2));
    }
}
