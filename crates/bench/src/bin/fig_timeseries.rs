//! Intra-run telemetry dump: runs one (family, workload) pair with the
//! telemetry sink attached and writes an interval-metrics time series
//! (`metrics=PATH:INTERVAL`, CSV or JSON-lines by extension) and/or a
//! per-µop pipeline trace (`trace=PATH[:OPS]`, O3PipeView text loadable by
//! Konata). At least one backend must be requested — a probeless run would
//! silently produce nothing.
//!
//! Unlike the sweep binaries (whose `metrics=` fans out to per-job files),
//! the paths given here are used exactly as written: one run, one file.
//!
//! ```sh
//! cargo run -p dkip-bench --release --bin fig_timeseries -- \
//!     dkip riscv:matmul/8 metrics=runs/ts.csv:500 trace=runs/pipe.trace:20000
//! ```

use dkip_bench::TimeseriesArgs;
use dkip_model::config::{BaselineConfig, DkipConfig, KiloConfig, MemoryHierarchyConfig};
use dkip_model::Telemetry;
use dkip_sim::experiments::{RISCV_BUDGET, SEED};
use dkip_sim::Machine;

fn main() {
    let args = TimeseriesArgs::from_env();
    if args.metrics.is_none() && args.trace.is_none() {
        eprintln!("nothing to record: pass metrics=PATH:INTERVAL and/or trace=PATH[:OPS]");
        std::process::exit(2);
    }
    let machine = match args.family.as_str() {
        "baseline" => Machine::Baseline(BaselineConfig::r10_64()),
        "kilo" => Machine::Kilo(KiloConfig::kilo_1024()),
        _ => Machine::Dkip(DkipConfig::paper_default()),
    };
    let mem = MemoryHierarchyConfig::mem_400();
    let default_budget = if args.workload.is_finite() {
        RISCV_BUDGET
    } else {
        dkip_bench::DEFAULT_BUDGET
    };
    let budget = args.budget.unwrap_or(default_budget);

    let mut telemetry = Telemetry::from_configs(args.metrics.as_ref(), args.trace.as_ref());
    let mut stream = args.workload.stream(SEED);
    let stats = machine.simulate_stream_probed(&mem, &mut stream, budget, Some(&mut telemetry));
    if let Err(err) = telemetry.write_files() {
        eprintln!("cannot write telemetry output: {err}");
        std::process::exit(1);
    }

    // A finite workload that ran to completion inside the trace window must
    // have a trace block for every committed instruction — the per-µop
    // probe contract the telemetry-invariance suite relies on.
    if args.trace.is_some() && args.workload.is_finite() && !telemetry.trace_budget_exhausted() {
        assert_eq!(
            telemetry.trace_retired(),
            stats.committed,
            "trace blocks must match committed instructions"
        );
    }

    println!(
        "# fig_timeseries {} {} budget={budget}",
        machine.name(),
        args.workload.name()
    );
    println!(
        "committed={} cycles={} ipc={:.4}",
        stats.committed,
        stats.cycles,
        stats.ipc()
    );
    if let Some(metrics) = &args.metrics {
        println!(
            "metrics: {} rows every {} instructions -> {}",
            telemetry.metrics_rows(),
            metrics.interval,
            metrics.path
        );
    }
    if let Some(trace) = &args.trace {
        println!(
            "trace: {} of {} budgeted µops retired -> {}",
            telemetry.trace_retired(),
            trace.ops,
            trace.path
        );
    }
}
