//! Criterion benches: one timed entry per paper artefact plus component
//! microbenchmarks.
//!
//! These benches measure *simulator* throughput while exercising exactly the
//! code paths each figure uses; the printed figures themselves are produced
//! by the `fig*` binaries in `src/bin`. Budgets are kept small so that
//! `cargo bench --workspace` completes in a few minutes.

use criterion::{criterion_group, criterion_main, Criterion};
use dkip_core::{run_dkip, DkipProcessor};
use dkip_kilo::run_kilo;
use dkip_mem::MemoryHierarchy;
use dkip_model::config::{BaselineConfig, DkipConfig, KiloConfig, MemoryHierarchyConfig};
use dkip_ooo::{run_baseline, Engine, OooCore};
use dkip_sim::experiments;
use dkip_trace::{Benchmark, Suite, TraceGenerator};
use std::hint::black_box;

const BUDGET: u64 = 3_000;

fn bench_components(c: &mut Criterion) {
    let mut group = c.benchmark_group("components");
    group.sample_size(20);
    group.bench_function("trace_generation_swim_10k", |b| {
        b.iter(|| {
            let gen = TraceGenerator::new(Benchmark::Swim, 1);
            black_box(gen.take(10_000).count())
        });
    });
    group.bench_function("cache_hierarchy_100k_accesses", |b| {
        b.iter(|| {
            let mut mem = MemoryHierarchy::new(MemoryHierarchyConfig::mem_400()).unwrap();
            let mut sum = 0u64;
            for i in 0..100_000u64 {
                sum += mem.access(i.wrapping_mul(97) % (1 << 22), false, i).latency;
            }
            black_box(sum)
        });
    });
    group.finish();
}

fn bench_cores(c: &mut Criterion) {
    let mem = MemoryHierarchyConfig::mem_400();
    let mut group = c.benchmark_group("cores");
    group.sample_size(10);
    group.bench_function("r10_64_swim", |b| {
        b.iter(|| {
            black_box(run_baseline(
                &BaselineConfig::r10_64(),
                &mem,
                Benchmark::Swim,
                BUDGET,
                1,
            ))
        });
    });
    group.bench_function("kilo_1024_swim", |b| {
        b.iter(|| {
            black_box(run_kilo(
                &KiloConfig::kilo_1024(),
                &mem,
                Benchmark::Swim,
                BUDGET,
                1,
            ))
        });
    });
    group.bench_function("dkip_2048_swim", |b| {
        b.iter(|| {
            black_box(run_dkip(
                &DkipConfig::paper_default(),
                &mem,
                Benchmark::Swim,
                BUDGET,
                1,
            ))
        });
    });
    group.finish();
}

/// The event-driven clock on a memory-bound sweep: the same simulations with
/// quiesced-cycle skipping on vs forced single-stepping. The simulated
/// statistics are bit-identical (pinned by `tests/skip_equivalence.rs`);
/// only the host time differs, and this bench quantifies by how much.
fn bench_clock_skip(c: &mut Criterion) {
    let mem = MemoryHierarchyConfig::mem_1000();
    let mut group = c.benchmark_group("clock_skip");
    group.sample_size(10);
    for (mode, single_step) in [("skip_on", false), ("skip_off", true)] {
        let mem_cfg = mem.clone();
        group.bench_function(&format!("r10_64_swim_mem1000_{mode}"), move |b| {
            b.iter(|| {
                let hierarchy = MemoryHierarchy::new(mem_cfg.clone()).unwrap();
                let mut core = OooCore::from_baseline(&BaselineConfig::r10_64(), hierarchy);
                core.set_single_step(single_step);
                let mut trace = TraceGenerator::new(Benchmark::Swim, 1);
                black_box(core.run(&mut trace, BUDGET))
            });
        });
        let mem_cfg = mem.clone();
        group.bench_function(&format!("dkip_2048_gcc_mem1000_{mode}"), move |b| {
            b.iter(|| {
                let hierarchy = MemoryHierarchy::new(mem_cfg.clone()).unwrap();
                let mut proc = DkipProcessor::new(DkipConfig::paper_default(), hierarchy);
                proc.set_single_step(single_step);
                let mut trace = TraceGenerator::new(Benchmark::Gcc, 1);
                black_box(proc.run(&mut trace, BUDGET))
            });
        });
    }
    group.finish();
}

fn bench_figures(c: &mut Criterion) {
    let reps_int: Vec<Benchmark> = Benchmark::representative()
        .into_iter()
        .filter(|b| b.suite() == Suite::Int)
        .collect();
    let reps_fp: Vec<Benchmark> = Benchmark::representative()
        .into_iter()
        .filter(|b| b.suite() == Suite::Fp)
        .collect();
    let runner = dkip_sim::SweepRunner::host();
    let mut group = c.benchmark_group("figures");
    group.sample_size(10);
    group.bench_function("table1", |b| b.iter(|| black_box(experiments::table1())));
    group.bench_function("fig01_window_specint", |b| {
        b.iter(|| {
            black_box(experiments::figure_window_scaling(
                Suite::Int,
                &reps_int,
                &[32, 256],
                BUDGET,
                &runner,
            ))
        });
    });
    group.bench_function("fig02_window_specfp", |b| {
        b.iter(|| {
            black_box(experiments::figure_window_scaling(
                Suite::Fp,
                &reps_fp,
                &[32, 256],
                BUDGET,
                &runner,
            ))
        });
    });
    group.bench_function("fig03_issue_histogram", |b| {
        b.iter(|| {
            black_box(experiments::figure3_issue_histogram(
                &reps_fp, BUDGET, &runner,
            ))
        });
    });
    group.bench_function("fig09_comparison", |b| {
        b.iter(|| {
            black_box(experiments::figure9_comparison(
                &reps_int, &reps_fp, BUDGET, &runner,
            ))
        });
    });
    group.bench_function("fig10_scheduler_sweep", |b| {
        b.iter(|| {
            black_box(experiments::figure10_scheduler_sweep(
                &reps_fp, 1_500, &runner,
            ))
        });
    });
    group.bench_function("fig11_cache_sweep_specint", |b| {
        b.iter(|| {
            black_box(experiments::figure_cache_sweep(
                Suite::Int,
                &reps_int,
                &[64, 512, 4096],
                1_500,
                &runner,
            ))
        });
    });
    group.bench_function("fig12_cache_sweep_specfp", |b| {
        b.iter(|| {
            black_box(experiments::figure_cache_sweep(
                Suite::Fp,
                &reps_fp,
                &[64, 512, 4096],
                1_500,
                &runner,
            ))
        });
    });
    group.bench_function("fig13_llib_occupancy_specint", |b| {
        b.iter(|| {
            black_box(experiments::figure_llib_occupancy(
                Suite::Int,
                &reps_int,
                BUDGET,
                &runner,
            ))
        });
    });
    group.bench_function("fig14_llib_occupancy_specfp", |b| {
        b.iter(|| {
            black_box(experiments::figure_llib_occupancy(
                Suite::Fp,
                &reps_fp,
                BUDGET,
                &runner,
            ))
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_components,
    bench_cores,
    bench_clock_skip,
    bench_figures
);
criterion_main!(benches);
