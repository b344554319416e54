//! # vrr-workload: scenario generation and execution for experiments
//!
//! Experiments over the `vrr` protocols share three ingredients:
//!
//! * a [`Schedule`] of operations (random interleavings of writes and
//!   reads, deterministic per seed — [`generate`]);
//! * a [`FaultPlan`] assigning crashes and Byzantine behaviours within the
//!   `(t, b)` budget;
//! * a runner ([`SimCase`]) that executes the schedule against any
//!   [`vrr_core::RegisterProtocol`] in the deterministic simulator and
//!   produces a [`vrr_checker::OpHistory`] plus round-count statistics.
//!
//! ```
//! use vrr_core::{SafeProtocol, StorageConfig};
//! use vrr_workload::{FaultPlan, LatencyKind, ScheduleParams, SimCase};
//!
//! let cfg = StorageConfig::optimal(1, 1, 1);
//! let out = SimCase::new(&SafeProtocol, cfg)
//!     .schedule(ScheduleParams::sequential(3, 3, 1, 42))
//!     .faults(FaultPlan::none())
//!     .latency(LatencyKind::Unit)
//!     .run();
//! assert!(out.all_live());
//! assert!(vrr_checker::check_safety(&out.history).is_ok());
//! ```

#![warn(missing_docs)]

mod faults;
mod keys;
mod monitor;
mod runner;
mod schedule;
pub mod soak;
mod sweep;

pub use faults::FaultPlan;
pub use keys::ZipfianKeys;
pub use monitor::{run_monitored, safe_object_monotonicity, InvariantMonitor, MonitorViolation};
pub use runner::{regular_corruptor, safe_corruptor, Corruptor, LatencyKind, RunOutcome, SimCase};
pub use schedule::{generate, ClientPlan, PlannedOp, Schedule, ScheduleParams};
pub use sweep::{grid, SweepPoint};
