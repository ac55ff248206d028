//! `discfs_bench`: one benchmark for DisCFS — six workloads driven
//! through the real stack, every reply verified, end-to-end metrics
//! with tracing off and per-layer attribution from interposers and
//! probes that sit outside the measured code. See `BENCHMARK.md`.

pub mod alloc_count;
pub mod driver;
pub mod gen;
pub mod plan;
pub mod probes;
pub mod report;
pub mod run;
pub mod stats;
pub mod trace;
pub mod world;
