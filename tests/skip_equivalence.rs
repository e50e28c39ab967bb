//! Event-driven-clock equivalence contract: skipping quiesced cycles must be
//! *observationally pure*. Every job of every pinned golden sweep — the
//! three Spec-family suites and the 18-job RISC-V matrix — is run once
//! through the sweep runner, whose engines skip quiesced cycles, and once
//! on an engine from the same `Machine::build` with
//! `Engine::set_single_step(true)`. The full `SimStats::to_kv()`
//! serialisations must be bit-identical. The runner's results must also
//! have skipped at least one cycle somewhere in each suite, so this test
//! cannot silently pass because the skip path stopped engaging.
//!
//! `golden_stats.rs` separately pins the runner's output against the
//! snapshots in `tests/golden/`, and `perf_invariance.rs` pins it at 1 and
//! 8 threads, so together the tests prove skip-on == skip-off == golden.

use dkip::sim::suites;
use dkip::sim::SweepRunner;
use dkip_model::SimStats;

fn check_suite(name: &str) {
    let jobs = suites::golden_suites()
        .into_iter()
        .find(|(suite_name, _)| *suite_name == name)
        .map(|(_, jobs)| jobs)
        .expect("known suite name");
    let skipping = SweepRunner::new(2).run(&jobs);
    let stepped: Vec<SimStats> = jobs
        .iter()
        .map(|job| {
            let mut engine = job.machine.build(&job.mem);
            engine.set_single_step(true);
            engine.run(&mut job.workload.stream(job.seed), job.budget)
        })
        .collect();
    for ((job, a), b) in jobs.iter().zip(&skipping).zip(&stepped) {
        assert_eq!(
            a.stats.to_kv(),
            b.to_kv(),
            "{}: event-driven clock must be bit-identical to single-stepping",
            job.label
        );
        assert_eq!(
            a.stats.ticks_executed + a.stats.cycles_skipped,
            a.stats.cycles,
            "{}: ticked + skipped must cover every simulated cycle",
            job.label
        );
        assert_eq!(
            (b.ticks_executed, b.cycles_skipped),
            (b.cycles, 0),
            "{}: single-stepping ticks every cycle",
            job.label
        );
    }
    let skipped_total: u64 = skipping.iter().map(|r| r.stats.cycles_skipped).sum();
    assert!(
        skipped_total > 0,
        "suite {name}: the event-driven clock never engaged"
    );
}

#[test]
fn spec_baseline_suite_is_bit_identical_across_clock_modes() {
    check_suite("baseline.golden");
}

#[test]
fn spec_kilo_suite_is_bit_identical_across_clock_modes() {
    check_suite("kilo.golden");
}

#[test]
fn spec_dkip_suite_is_bit_identical_across_clock_modes() {
    check_suite("dkip.golden");
}

#[test]
fn riscv_18_job_matrix_is_bit_identical_across_clock_modes() {
    check_suite("riscv.golden");
}
