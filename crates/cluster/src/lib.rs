//! # pico-cluster — the full-system composition and experiment runner
//!
//! Assembles everything into runnable experiments: each node composes
//! the Linux model (`pico-linux`), the LWK pieces (`pico-mckernel`), the
//! HFI1 chip + unmodified driver (`pico-hfi1`), and — in the
//! `McKernelHfi` configuration — the PicoDriver fast path, callback
//! table, VA unification proof and LWK allocator (`picodriver`), all
//! driven by one deterministic event loop over `pico-fabric`.
//!
//! * [`config`] — the three OS configurations and every ablation knob;
//! * `node` — one node's kernel model: McKernel's syscall table routes
//!   every call (local, fast path or offloaded), one helper charges it,
//!   and the SDMA completion IRQs contend with offloads on the service
//!   cores;
//! * [`world`] — the simulator: rank clocks, PSM inboxes, fabric
//!   delivery and the event engine;
//! * [`experiments`] — the runners and text reports for Figure 4, the
//!   scaling figures 5–7, Table 1, and the Figure 8/9 syscall pies.

#![warn(missing_docs)]

pub mod config;
pub mod experiments;
mod node;
pub mod world;

pub use config::{paper_config, ClusterConfig, EngineMode, FabricMode, OsConfig};
pub use experiments::{
    comm_profile, fig4, format_breakdown, format_fig4, format_scaling, format_table1,
    pingpong_bandwidth, profile_rows, scaling, scaling_with, syscall_breakdown, Fig4Row,
    ScalingPoint, SyscallBreakdown, Table1Row,
};
pub use world::{app_spec, auto_shard_count, run_app, RunResult, World};
