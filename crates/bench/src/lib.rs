//! Simulator-throughput harness and component benchmarks of the D-KIP
//! reproduction.
//!
//! The paper's tables and figures are printed by `dkip-sim fig <name>` (see
//! the `dkip-sim` crate); this crate measures how fast the simulator runs:
//!
//! * [`throughput`] — the simulator-throughput harness behind the `perf`
//!   binary, which times every core family on Spec and RISC-V workloads and
//!   writes `BENCH_sim_throughput.json`;
//! * the `trace_check` binary validates the telemetry files that
//!   `dkip-sim timeseries` writes (see `make trace-smoke`);
//! * **Criterion benches** (`benches/`) — component microbenchmarks and one
//!   timed end-to-end simulation per core family.

#![warn(missing_docs)]

pub mod throughput;
