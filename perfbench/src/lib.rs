//! The repository's benchmark: four seeded workloads driving the public
//! queue types the way a user builds them, an untraced run that reports
//! the end-to-end metrics, and a traced run that reports per-layer
//! metrics from spans around each public call and from counter deltas.
//!
//! Run it through `perfbench/run.py` (which builds this package first):
//!
//! ```text
//! python3 perfbench/run.py --workload mixed --seed 1 --seconds 10 --trace 0
//! ```

pub mod alloc;
pub mod handoff;
pub mod metrics;
pub mod mixed;
pub mod oracle;
pub mod report;
pub mod sssp;
pub mod trace;
pub mod workloads;

pub use report::Report;
pub use workloads::{run, Opts, Size, Workload};
