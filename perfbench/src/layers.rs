//! The traced run: attributes host time to the simulator's layers.
//!
//! Everything is timed from outside, around calls into each crate's public
//! functions; nothing inside the simulator is instrumented. Spans are kept
//! in memory as per-job records and reduced to metrics at the end.
//!
//! * Exact jobs run serially twice, once plain and once with the
//!   [`WorkloadStream`] wrapped in [`Timed`]. The stream's self time is the
//!   time spent inside `next()`; core self time is the job's time minus it.
//!   The two runs must produce identical statistics, and their time ratio
//!   is the tracing overhead.
//! * `run_sampled` takes the concrete stream type, so a sampled job cannot
//!   be wrapped: its stream time is measured by replaying, on a fresh
//!   stream, exactly the ops the job drew. Per-family core costs on sampled
//!   workloads come from exact runs of the same jobs capped at
//!   [`CORE_PROBE_BUDGET`].
//! * Standalone probes time the remaining entry points on the workload's
//!   own inputs (same seeds, op streams and configurations). A layer that
//!   is not on a workload's path is probed on a fixed control input so
//!   every metric exists on every workload; its `*.stream_share` is then 0.

use std::hint::black_box;
use std::time::Instant;

use dkip_bpred::PredictorKind;
use dkip_core::DkipProcessor;
use dkip_kilo::build_kilo_core;
use dkip_mem::MemoryHierarchy;
use dkip_model::config::{BaselineConfig, MemoryHierarchyConfig};
use dkip_model::{MicroOp, SimStats};
use dkip_ooo::OooCore;
use dkip_riscv::{Kernel, KernelRun, RiscvStream};
use dkip_sim::runner::results_to_kv;
use dkip_sim::{run_sampled, Job, JobResult, Machine, ResultStore, SampledRun, SweepRunner};
use dkip_sim::{Workload, WorkloadStream};
use dkip_trace::{Benchmark, TraceGenerator};

use crate::report::{median, ratio, stats_digest, Metric};
use crate::workloads::{self, Kind, Setup, SAMPLE_RATE, THREADS};

/// Budget of the exact per-family core probe on sampled workloads.
pub const CORE_PROBE_BUDGET: u64 = 100_000;

/// Ops drawn from each input for the generator, memory and predictor
/// probes.
const PROBE_OPS: usize = 200_000;

/// Instructions a core runs before its checkpoint round trip is timed.
const CLONE_WARMUP: u64 = 50_000;

/// Timed checkpoint round trips per family.
const CLONE_REPS: usize = 20;

/// Warm passes through the filled probe store.
const WARM_PASSES: usize = 5;

/// Synthetic inputs for the generator probe on workloads that have none.
const CONTROL_BENCHMARKS: [Benchmark; 2] = [Benchmark::Gcc, Benchmark::Swim];

/// RISC-V input for the emulator probe on workloads that have none: the
/// emulator calibration kernel.
const CONTROL_KERNEL: (Kernel, u64) = (Kernel::Matmul, 32);

/// A stream adapter that accumulates the host time spent inside `next()`.
pub struct Timed<'a, I> {
    inner: &'a mut I,
    pub ns: u64,
    pub ops: u64,
}

impl<'a, I> Timed<'a, I> {
    pub fn new(inner: &'a mut I) -> Self {
        Timed {
            inner,
            ns: 0,
            ops: 0,
        }
    }
}

impl<I: Iterator<Item = MicroOp>> Iterator for Timed<'_, I> {
    type Item = MicroOp;

    fn next(&mut self) -> Option<MicroOp> {
        let start = Instant::now();
        let op = self.inner.next();
        self.ns += start.elapsed().as_nanos() as u64;
        self.ops += u64::from(op.is_some());
        op
    }
}

/// Host time of one exact job run plain and traced.
struct ExactSpan {
    family: &'static str,
    machine: String,
    synthetic: bool,
    plain_ns: f64,
    traced_ns: f64,
    stream_ns: f64,
    stats: SimStats,
}

impl ExactSpan {
    fn core_ns(&self) -> f64 {
        (self.traced_ns - self.stream_ns).max(0.0)
    }
}

/// Host time of one sampled job and of replaying the ops it drew.
struct SampledSpan {
    synthetic: bool,
    wall_ns: f64,
    stream_ns: f64,
    run: SampledRun,
}

fn elapsed_ns(start: Instant) -> f64 {
    start.elapsed().as_nanos() as f64
}

/// Runs one exact job plain and with the timed stream, in the given order,
/// and checks that both produce the same statistics.
fn exact_span(job: &Job, budget: u64, traced_first: bool) -> Result<ExactSpan, String> {
    let plain = || {
        let start = Instant::now();
        let stats = job
            .machine
            .simulate(&job.mem, &job.workload, budget, job.seed);
        (stats, elapsed_ns(start))
    };
    let traced = || {
        let mut stream = job.workload.stream(job.seed);
        let mut timed = Timed::new(&mut stream);
        let start = Instant::now();
        let stats = job.machine.simulate_stream(&job.mem, &mut timed, budget);
        (stats, elapsed_ns(start), timed.ns as f64)
    };
    let ((plain_stats, plain_ns), (stats, traced_ns, stream_ns)) = if traced_first {
        let t = traced();
        (plain(), t)
    } else {
        let p = plain();
        (p, traced())
    };
    if plain_stats.to_kv() != stats.to_kv() {
        return Err(format!(
            "{}: traced statistics differ from plain",
            job.label
        ));
    }
    Ok(ExactSpan {
        family: job.machine.family(),
        machine: job.machine.name().to_owned(),
        synthetic: !job.workload.is_finite(),
        plain_ns,
        traced_ns,
        stream_ns,
        stats,
    })
}

/// Runs one sampled job, checks a kernel's final `a0`, then replays the
/// ops the job drew on a fresh stream to time the stream alone.
fn sampled_span(job: &Job) -> Result<SampledSpan, String> {
    let sample = job.sample.expect("sampled job");
    let mut stream = job.workload.stream(job.seed);
    let start = Instant::now();
    let run = run_sampled(&job.machine, &job.mem, &mut stream, job.budget, &sample);
    let wall_ns = elapsed_ns(start);
    if let Workload::Riscv(kernel_run) = job.workload {
        let a0 = workloads::final_a0(&stream, kernel_run)?;
        if a0 != kernel_run.expected_result() {
            return Err(format!("{}: final a0 {a0:#x} is wrong", job.label));
        }
    }
    let mut replay = job.workload.stream(job.seed);
    let start = Instant::now();
    for _ in 0..run.consumed() {
        black_box(replay.next());
    }
    let stream_ns = elapsed_ns(start);
    Ok(SampledSpan {
        synthetic: !job.workload.is_finite(),
        wall_ns,
        stream_ns,
        run,
    })
}

/// The [`JobResult`] the runner would have produced for `job`.
fn job_result(job: &Job, stats: SimStats, covered: u64) -> JobResult {
    JobResult {
        label: job.label.clone(),
        machine_name: job.machine.name().to_owned(),
        family: job.machine.family(),
        mem_name: job.mem.name.clone(),
        workload: job.workload,
        seed: job.seed,
        budget: job.budget,
        sample: job.sample,
        stats,
        covered,
        wall: std::time::Duration::ZERO,
    }
}

/// Everything the traced run measured, plus what its checks found.
pub struct Traced {
    pub metrics: Vec<Metric>,
    /// Digest of the whole untraced sweep (comparable with `--trace 0`).
    pub untraced_digest: String,
    /// Digests of the traced subset, from the untraced sweep and from the
    /// last traced round.
    pub untraced_subset_digest: String,
    pub traced_digest: String,
    pub rounds: usize,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

/// The jobs the traced rounds run: on the Fig. 9 workloads, every machine on
/// one cache-resident and one memory-bound benchmark of each suite
/// (`Benchmark::representative`); every job of the kernel workload.
pub fn traced_subset(jobs: &[Job]) -> Vec<usize> {
    let representative = Benchmark::representative();
    (0..jobs.len())
        .filter(|&idx| match jobs[idx].workload {
            Workload::Spec(bench) => representative.contains(&bench),
            Workload::Riscv(_) => true,
        })
        .collect()
}

/// Runs the traced measurement of `kind`: one untraced sweep, then serial
/// rounds over [`traced_subset`] for about `seconds` in all (at least one
/// round), then the standalone probes.
pub fn traced_run(kind: Kind, setup: &Setup, scratch: &std::path::Path, seconds: f64) -> Traced {
    let start = Instant::now();
    let mut problems = Vec::new();

    // The untraced sweep, exactly as the end-to-end run performs it.
    let sweep = workloads::sweep(setup);
    problems.extend(workloads::check_sweep(kind, setup, &sweep));
    let untraced_digest = stats_digest(&sweep.results);
    let mut attempted = setup.jobs.len() as u64;

    let subset = traced_subset(&setup.jobs);
    let jobs: Vec<Job> = subset.iter().map(|&idx| setup.jobs[idx].clone()).collect();
    let untraced_subset_digest = if sweep.results.len() == setup.jobs.len() {
        let results: Vec<JobResult> = subset
            .iter()
            .map(|&idx| sweep.results[idx].clone())
            .collect();
        stats_digest(&results)
    } else {
        String::from("incomplete")
    };

    let mut exact = Vec::new();
    let mut sampled = Vec::new();
    let mut traced_digest = String::new();
    let mut round = 0usize;
    let mut round_s = 0.0;
    // A round is started only if it is expected to end by `seconds`.
    while round == 0 || start.elapsed().as_secs_f64() + round_s < seconds {
        let round_start = Instant::now();
        let mut results = Vec::with_capacity(jobs.len());
        for (idx, job) in jobs.iter().enumerate() {
            let traced_first = (round + idx).is_multiple_of(2);
            attempted += 1;
            let outcome = match job.sample {
                None => exact_span(job, job.budget, traced_first).map(|span| {
                    results.push(job_result(job, span.stats.clone(), span.stats.committed));
                    exact.push(span);
                }),
                Some(_) => sampled_span(job).and_then(|span| {
                    results.push(job_result(job, span.run.to_stats(), span.run.consumed()));
                    sampled.push(span);
                    exact_span(job, job.budget.min(CORE_PROBE_BUDGET), traced_first)
                        .map(|span| exact.push(span))
                }),
            };
            if let Err(e) = outcome {
                problems.push(e);
            }
        }
        let digest = stats_digest(&results);
        if digest != untraced_subset_digest {
            problems.push(format!(
                "round {round}: traced digest {digest} differs from untraced {untraced_subset_digest}"
            ));
        }
        traced_digest = digest;
        round += 1;
        round_s = round_start.elapsed().as_secs_f64();
    }

    let mut metrics = Vec::new();
    metrics.extend(stream_metrics(&jobs, &exact, &sampled));
    metrics.extend(core_metrics(&exact));
    metrics.extend(memory_and_predictor_metrics(&jobs));
    match sampled_metrics(&jobs, &exact, &sampled) {
        Ok(m) => metrics.extend(m),
        Err(e) => problems.push(e),
    }
    metrics.extend(runner_metrics(&sweep.results, sweep.wall_s));
    match store_metrics(&setup.jobs, &sweep.results, &scratch.join("probe-store")) {
        Ok(m) => metrics.extend(m),
        Err(e) => problems.push(e),
    }
    let plain: f64 = exact.iter().map(|s| s.plain_ns).sum();
    let traced: f64 = exact.iter().map(|s| s.traced_ns).sum();
    metrics.push(Metric::new(
        "tracing.overhead_frac",
        ratio(traced, plain) - 1.0,
        "frac",
    ));
    metrics.push(Metric::new(
        "failed_frac",
        ratio(sweep.failed as f64, setup.jobs.len() as f64),
        "frac",
    ));
    Traced {
        metrics,
        untraced_digest,
        untraced_subset_digest,
        traced_digest,
        rounds: round,
        attempted,
        failed: sweep.failed,
        problems,
    }
}

/// Stream-production layer: in-situ shares plus standalone generator and
/// emulator probes.
fn stream_metrics(jobs: &[Job], exact: &[ExactSpan], sampled: &[SampledSpan]) -> Vec<Metric> {
    // On sampled workloads the share is that of the jobs as the sweep runs
    // them; on the exact workload, that of the traced exact runs.
    let share = |synthetic: bool| {
        if sampled.is_empty() {
            let spans = exact.iter().filter(|s| s.synthetic == synthetic);
            let (stream, total) =
                spans.fold((0.0, 0.0), |(a, b), s| (a + s.stream_ns, b + s.traced_ns));
            ratio(stream, total)
        } else {
            let spans = sampled.iter().filter(|s| s.synthetic == synthetic);
            let (stream, total) =
                spans.fold((0.0, 0.0), |(a, b), s| (a + s.stream_ns, b + s.wall_ns));
            ratio(stream, total)
        }
    };

    let mut benches: Vec<(Benchmark, u64)> = Vec::new();
    let mut kernels: Vec<KernelRun> = Vec::new();
    for job in jobs {
        match job.workload {
            Workload::Spec(b) if !benches.contains(&(b, job.seed)) => benches.push((b, job.seed)),
            Workload::Riscv(r) if !kernels.contains(&r) => kernels.push(r),
            _ => {}
        }
    }
    let seed = jobs.first().map_or(1, |j| j.seed);
    if benches.is_empty() {
        benches = CONTROL_BENCHMARKS.iter().map(|&b| (b, seed)).collect();
    }
    if kernels.is_empty() {
        kernels.push(KernelRun::new(CONTROL_KERNEL.0, CONTROL_KERNEL.1));
    }

    let (mut gen_ns, mut ff_ns, mut gen_ops) = (0.0, 0.0, 0.0);
    for &(bench, seed) in &benches {
        let mut generator = TraceGenerator::new(bench, seed);
        let start = Instant::now();
        for _ in 0..PROBE_OPS {
            black_box(generator.next());
        }
        gen_ns += elapsed_ns(start);
        let mut generator = TraceGenerator::new(bench, seed);
        let start = Instant::now();
        black_box(generator.fast_forward(PROBE_OPS as u64));
        ff_ns += elapsed_ns(start);
        gen_ops += PROBE_OPS as f64;
    }

    let (mut emu_ns, mut emu_instrs, mut stream_ns, mut stream_ops) = (0.0, 0.0, 0.0, 0.0);
    for run in &kernels {
        let mut emu = run.emulator();
        let start = Instant::now();
        while let Some(retired) = emu.step() {
            black_box(retired);
        }
        emu_ns += elapsed_ns(start);
        emu_instrs += emu.retired() as f64;
        let mut stream = RiscvStream::new(run);
        let start = Instant::now();
        let ops = (&mut stream).map(black_box).count();
        stream_ns += elapsed_ns(start);
        stream_ops += ops as f64;
    }

    vec![
        Metric::new("trace.gen_ns_per_op", ratio(gen_ns, gen_ops), "ns"),
        Metric::new("trace.ff_ns_per_op", ratio(ff_ns, gen_ops), "ns"),
        Metric::new("trace.stream_share", share(true), "frac"),
        Metric::new("riscv.emu_ns_per_instr", ratio(emu_ns, emu_instrs), "ns"),
        Metric::new("riscv.stream_ns_per_op", ratio(stream_ns, stream_ops), "ns"),
        Metric::new("riscv.stream_share", share(false), "frac"),
    ]
}

/// Σ core self time ÷ Σ `per` over the traced exact runs `pick` selects.
fn core_ns_per(
    exact: &[ExactSpan],
    pick: impl Fn(&ExactSpan) -> bool,
    per: impl Fn(&SimStats) -> u64,
) -> f64 {
    let (core, count) = exact
        .iter()
        .filter(|s| pick(s))
        .fold((0.0, 0.0), |(c, n), s| {
            (c + s.core_ns(), n + per(&s.stats) as f64)
        });
    ratio(core, count)
}

/// Core self time per family, from the traced exact runs.
fn core_metrics(exact: &[ExactSpan]) -> Vec<Metric> {
    let mut metrics = Vec::new();
    for family in ["baseline", "kilo", "dkip"] {
        let of_family = |s: &ExactSpan| s.family == family;
        let (skipped, cycles) = exact
            .iter()
            .filter(|s| of_family(s))
            .fold((0.0, 0.0), |(k, c), s| {
                (k + s.stats.cycles_skipped as f64, c + s.stats.cycles as f64)
            });
        metrics.extend([
            Metric::new(
                format!("{family}.ns_per_instr"),
                core_ns_per(exact, of_family, |st| st.committed),
                "ns",
            ),
            Metric::new(
                format!("{family}.ns_per_tick"),
                core_ns_per(exact, of_family, |st| st.ticks_executed),
                "ns",
            ),
            Metric::new(
                format!("{family}.skipped_frac"),
                ratio(skipped, cycles),
                "frac",
            ),
        ]);
    }
    // Every workload runs R10-64 and D-KIP-2048 on the same inputs and seed,
    // so the two see identical traces.
    let small = BaselineConfig::r10_64().name;
    let dkip = core_ns_per(exact, |s| s.family == "dkip", |st| st.committed);
    let base = core_ns_per(exact, |s| s.machine == small, |st| st.committed);
    metrics.push(Metric::new(
        "dkip.host_cost_ratio",
        ratio(dkip, base),
        "ratio",
    ));
    metrics
}

/// Memory hierarchy and branch predictor, replayed on the first
/// [`PROBE_OPS`] ops of every distinct input of the workload.
fn memory_and_predictor_metrics(jobs: &[Job]) -> Vec<Metric> {
    let mut inputs: Vec<(Workload, u64)> = Vec::new();
    for job in jobs {
        if !inputs.contains(&(job.workload, job.seed)) {
            inputs.push((job.workload, job.seed));
        }
    }
    let mem_cfg = jobs
        .first()
        .map_or_else(MemoryHierarchyConfig::paper_default, |j| j.mem.clone());
    let (mut access_ns, mut warm_ns, mut accesses) = (0.0, 0.0, 0.0);
    let (mut l1, mut l2, mut total) = (0.0, 0.0, 0.0);
    let (mut bp_ns, mut branches, mut mispredicts) = (0.0, 0.0, 0.0);
    for (workload, seed) in inputs {
        let ops: Vec<MicroOp> = workload.stream(seed).take(PROBE_OPS).collect();
        let addrs: Vec<(u64, bool)> = ops
            .iter()
            .filter_map(|op| op.mem_addr.map(|a| (a, op.is_store())))
            .collect();
        let outcomes: Vec<(u64, bool)> = ops
            .iter()
            .filter(|op| op.is_conditional_branch())
            .map(|op| (op.pc, op.branch.expect("conditional branch").taken))
            .collect();

        let mut mem = MemoryHierarchy::new(mem_cfg.clone()).expect("valid memory configuration");
        let start = Instant::now();
        for (now, &(addr, is_write)) in addrs.iter().enumerate() {
            black_box(mem.access(addr, is_write, now as u64));
        }
        access_ns += elapsed_ns(start);
        let stats = mem.stats();
        l1 += stats.l1_hits as f64;
        l2 += stats.l2_hits as f64;
        total += stats.total() as f64;

        let mut mem = MemoryHierarchy::new(mem_cfg.clone()).expect("valid memory configuration");
        let start = Instant::now();
        for &(addr, is_write) in &addrs {
            mem.warm_access(addr, is_write);
        }
        black_box(&mem);
        warm_ns += elapsed_ns(start);
        accesses += addrs.len() as f64;

        // The predictor every core family instantiates.
        let mut predictor = PredictorKind::Perceptron.build();
        let start = Instant::now();
        for &(pc, taken) in &outcomes {
            let predicted = predictor.predict(pc);
            predictor.update(pc, taken, predicted);
        }
        bp_ns += elapsed_ns(start);
        branches += outcomes.len() as f64;
        mispredicts += predictor.mispredictions() as f64;
    }
    vec![
        Metric::new("mem.access_ns", ratio(access_ns, accesses), "ns"),
        Metric::new("mem.warm_access_ns", ratio(warm_ns, accesses), "ns"),
        Metric::new("mem.l1_hit_frac", ratio(l1, total), "frac"),
        Metric::new("mem.l2_hit_frac", ratio(l2, total), "frac"),
        Metric::new("bpred.ns_per_branch", ratio(bp_ns, branches), "ns"),
        Metric::new(
            "bpred.mispredict_rate",
            ratio(mispredicts, branches),
            "frac",
        ),
    ]
}

/// Checkpoint round trip and warming cost of a core of any family.
fn clone_and_warm<C>(
    mut core: C,
    stream: &mut WorkloadStream,
    run: fn(&mut C, &mut dyn Iterator<Item = MicroOp>, u64) -> SimStats,
    round_trip: fn(&C) -> C,
    warm: fn(&mut C, &MicroOp),
) -> (f64, f64) {
    run(&mut core, stream, CLONE_WARMUP);
    let mut clone_us = Vec::with_capacity(CLONE_REPS);
    for _ in 0..CLONE_REPS {
        let start = Instant::now();
        black_box(round_trip(black_box(&core)));
        clone_us.push(elapsed_ns(start) / 1e3);
    }
    let ops: Vec<MicroOp> = stream.take(PROBE_OPS).collect();
    let start = Instant::now();
    for op in &ops {
        warm(&mut core, op);
    }
    black_box(&core);
    (
        median(&clone_us),
        ratio(elapsed_ns(start), ops.len() as f64),
    )
}

/// The sampling layer: checkpoint clones, functional warming, the share of
/// detailed simulation and the speed-up over exact simulation.
fn sampled_metrics(
    jobs: &[Job],
    exact: &[ExactSpan],
    sampled: &[SampledSpan],
) -> Result<Vec<Metric>, String> {
    let first = jobs.first().ok_or("no jobs")?;
    let mem = &first.mem;
    let mut metrics = Vec::new();
    for family in ["baseline", "kilo", "dkip"] {
        let machine = &jobs
            .iter()
            .find(|j| j.machine.family() == family)
            .ok_or_else(|| format!("no {family} job"))?
            .machine;
        let mut stream = first.workload.stream(first.seed);
        let hierarchy = || MemoryHierarchy::new(mem.clone()).expect("valid memory configuration");
        let (clone_us, warm_ns) = match machine {
            Machine::Baseline(cfg) => clone_and_warm(
                OooCore::from_baseline(cfg, hierarchy()),
                &mut stream,
                OooCore::run,
                |c| c.snapshot().to_core(),
                OooCore::warm_op,
            ),
            Machine::Kilo(cfg) => clone_and_warm(
                build_kilo_core(cfg, hierarchy()),
                &mut stream,
                OooCore::run,
                |c| c.snapshot().to_core(),
                OooCore::warm_op,
            ),
            Machine::Dkip(cfg) => clone_and_warm(
                DkipProcessor::new(cfg.clone(), hierarchy()),
                &mut stream,
                DkipProcessor::run,
                |p| p.snapshot().to_processor(),
                DkipProcessor::warm_op,
            ),
        };
        metrics.push(Metric::new(
            format!("sampled.{family}.clone_us"),
            clone_us,
            "us",
        ));
        metrics.push(Metric::new(
            format!("sampled.{family}.warm_ns_per_op"),
            warm_ns,
            "ns",
        ));
    }

    // The speed-up job: the first D-KIP job, also run in the mode the
    // workload does not use. Round 0 recorded one span per job, in order.
    let idx = jobs
        .iter()
        .position(|j| j.machine.family() == "dkip")
        .ok_or("no D-KIP job")?;
    let job = &jobs[idx];
    let mut own_run = None;
    let (exact_ns, sampled_ns) = if job.sample.is_none() {
        let mut stream = job.workload.stream(job.seed);
        let start = Instant::now();
        let run = run_sampled(
            &job.machine,
            &job.mem,
            &mut stream,
            job.budget,
            &SAMPLE_RATE,
        );
        let sampled_ns = elapsed_ns(start);
        own_run = Some(run);
        (exact[idx].plain_ns, sampled_ns)
    } else {
        let start = Instant::now();
        black_box(
            job.machine
                .simulate(&job.mem, &job.workload, job.budget, job.seed),
        );
        (elapsed_ns(start), sampled[idx].wall_ns)
    };
    let runs: Vec<&SampledRun> = match &own_run {
        Some(run) => vec![run],
        None => sampled.iter().map(|s| &s.run).collect(),
    };
    let consumed: f64 = runs.iter().map(|r| r.consumed() as f64).sum();
    let detailed: f64 = runs
        .iter()
        .map(|r| (r.consumed() - r.fast_forwarded) as f64)
        .sum();
    let windows: Vec<f64> = runs.iter().map(|r| r.estimate.windows as f64).collect();
    let ci_rel: Vec<f64> = sampled
        .iter()
        .map(|s| ratio(s.run.estimate.ci95, s.run.estimate.ipc))
        .collect();
    metrics.push(Metric::new(
        "sampled.detailed_frac",
        ratio(detailed, consumed),
        "frac",
    ));
    metrics.push(Metric::new(
        "sampled.periods",
        ratio(windows.iter().sum(), windows.len() as f64),
        "count",
    ));
    metrics.push(Metric::new(
        "sampled.speedup",
        ratio(exact_ns, sampled_ns),
        "ratio",
    ));
    metrics.push(Metric::new(
        "ipc_ci95_rel",
        ratio(ci_rel.iter().sum(), ci_rel.len() as f64),
        "frac",
    ));
    Ok(metrics)
}

/// The sweep layer: how busy the workers were and how long jobs took.
fn runner_metrics(results: &[JobResult], wall_s: f64) -> Vec<Metric> {
    let job_s: Vec<f64> = results.iter().map(|r| r.wall.as_secs_f64()).collect();
    let busy: f64 = job_s.iter().sum();
    let summary = crate::report::Summary::of(&job_s);
    println!("# runner.job_s over n={} jobs", summary.map_or(0, |s| s.n));
    vec![
        Metric::new(
            "runner.busy_frac",
            ratio(busy, THREADS as f64 * wall_s),
            "frac",
        ),
        Metric::new("runner.job_s_p50", summary.map_or(0.0, |s| s.median), "s"),
        Metric::new("runner.job_s_max", summary.map_or(0.0, |s| s.max), "s"),
    ]
}

/// The result store and its key derivation, on the sweep's own results:
/// insert into a fresh store, look up, then serve warm passes from it.
fn store_metrics(
    jobs: &[Job],
    cold: &[JobResult],
    dir: &std::path::Path,
) -> Result<Vec<Metric>, String> {
    let store =
        ResultStore::open(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let (mut key_us, mut insert_us, mut lookup_us) = (Vec::new(), Vec::new(), Vec::new());
    for (job, result) in jobs.iter().zip(cold) {
        let start = Instant::now();
        let key = store.key_for_text(&job.key_text());
        key_us.push(elapsed_ns(start) / 1e3);
        let start = Instant::now();
        store
            .insert(&key, &result.stats, result.covered)
            .map_err(|e| format!("store insert failed: {e}"))?;
        insert_us.push(elapsed_ns(start) / 1e3);
    }
    for job in jobs {
        let key = store.key_for_text(&job.key_text());
        let start = Instant::now();
        let hit = black_box(store.lookup(&key));
        lookup_us.push(elapsed_ns(start) / 1e3);
        if hit.is_none() {
            return Err(format!("{}: stored result not found", job.label));
        }
    }
    let runner = SweepRunner::new(THREADS).with_store(store);
    let cold_kv = results_to_kv(cold);
    let mut warm_s = Vec::with_capacity(WARM_PASSES);
    let mut hits = 0;
    for _ in 0..WARM_PASSES {
        let start = Instant::now();
        let report = runner.run_report(jobs);
        warm_s.push(start.elapsed().as_secs_f64());
        hits = report.hits;
        let identical = results_to_kv(&report.results) == cold_kv;
        if report.hits != jobs.len() as u64 || !identical {
            return Err(format!(
                "warm pass: {} of {} hits, byte-identical: {identical}",
                report.hits,
                jobs.len(),
            ));
        }
    }
    Ok(vec![
        Metric::new("store.insert_us", median(&insert_us), "us"),
        Metric::new("store.lookup_us", median(&lookup_us), "us"),
        Metric::new("store.key_us", median(&key_us), "us"),
        Metric::new(
            "store.hit_ratio",
            ratio(hits as f64, jobs.len() as f64),
            "frac",
        ),
        Metric::new("store.warm_pass_s", median(&warm_s), "s"),
    ])
}
