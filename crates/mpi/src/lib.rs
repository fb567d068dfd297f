//! # pico-mpi — a mini-MPI over PSM
//!
//! Enough of MPI to run the paper's workloads and reproduce its
//! communication profiles:
//!
//! * [`types`] — the [`Op`] program language ranks execute, the
//!   [`MpiCall`] names the profiler reports (Table 1's rows), and the
//!   [`HostOp`] kernel-visible operations;
//! * [`coll`] — collective algorithms as pure per-round schedules
//!   (dissemination barrier/allreduce, binomial bcast, ring all-to-all,
//!   scan) with exhaustively tested pairing properties;
//! * [`engine`] — the per-rank [`MpiRank`] engine: executes programs
//!   over a PSM endpoint, blocks in waits (progress only happens inside
//!   MPI calls — no async progress thread, matching PSM reality), and
//!   accumulates `I_MPI_STATS`-style per-call time.

#![warn(missing_docs)]

pub mod coll;
mod completion;
pub mod engine;
pub mod types;

pub use engine::{BufTable, EngineConfig, MpiRank, ANY_SOURCE};
pub use types::{BufId, HostOp, MpiCall, Op, StepResult};
