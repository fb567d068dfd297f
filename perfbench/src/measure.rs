//! One checked simulator run: `World::new` and `World::run` timed
//! separately, the heap peak read from the counting allocator, and every
//! exact output the run must repeat bit for bit.

use crate::trace::Tracer;
use crate::workloads::RunSpec;
use pico_cluster::{RunResult, World};
use pico_sim::memalloc;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// The exact outputs of one run: the result digests and every per-layer
/// count. Two runs of one spec must agree on all of them, whatever the
/// repetition or (on the sharded engine) the worker count.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub ranks: u64,
    pub sim_wall_ns: u64,
    pub finish_digest: u64,
    pub arrival_digest: u64,
    pub arrival_digest_bulk: u64,
    pub queue_events: u64,
    pub soft_dispatches: u64,
    pub wheel_overflow: u64,
    pub fabric_messages: u64,
    pub fabric_bytes: u64,
    pub sinks: u64,
    pub sink_members: u64,
    pub sink_pauses: u64,
    pub pio_sends: u64,
    pub mpi_calls: u64,
    pub mpi_ns: u64,
    pub syscalls: u64,
    pub kernel_ns: u64,
    pub offloaded_calls: u64,
    pub offload_wait_ns: u64,
    pub tid_programs: u64,
    pub shard_state_bytes: u64,
    pub stat_bytes: u64,
}

impl Counts {
    fn of(r: &RunResult, ranks: u64) -> Counts {
        Counts {
            ranks,
            sim_wall_ns: r.wall_time.0,
            finish_digest: r.finish.digest(),
            arrival_digest: r.arrival_digest,
            arrival_digest_bulk: r.arrival_digest_bulk,
            queue_events: r.sim_events,
            soft_dispatches: r.soft_deliveries,
            wheel_overflow: r.wheel_profile.sched_overflow,
            fabric_messages: r.fabric_messages,
            fabric_bytes: r.fabric_bytes,
            sinks: r.fabric_sinks,
            sink_members: r.fabric_sink_members,
            sink_pauses: r.fabric_sink_pauses,
            pio_sends: r.pio_sends,
            mpi_calls: r.mpi_profile.sorted_desc().iter().map(|e| e.1).sum(),
            mpi_ns: r.mpi_time().0,
            syscalls: r.kernel_profile.sorted_desc().iter().map(|e| e.1).sum(),
            kernel_ns: r.kernel_time().0,
            offloaded_calls: r.offloaded_calls,
            offload_wait_ns: r.offload_queue_wait.0,
            tid_programs: r.tid_programs,
            shard_state_bytes: r.shard_state_bytes,
            stat_bytes: r.stat_bytes,
        }
    }

    /// Dispatches of either kind: queue events plus soft-schedule
    /// deliveries.
    pub fn dispatches(&self) -> u64 {
        self.queue_events + self.soft_dispatches
    }

    /// Field-wise sum over several runs.
    pub fn sum<'a>(all: impl IntoIterator<Item = &'a Counts>) -> Counts {
        let mut s = Counts::default();
        for c in all {
            s.ranks += c.ranks;
            s.sim_wall_ns += c.sim_wall_ns;
            s.finish_digest = s.finish_digest.wrapping_add(c.finish_digest);
            s.arrival_digest = s.arrival_digest.wrapping_add(c.arrival_digest);
            s.arrival_digest_bulk = s.arrival_digest_bulk.wrapping_add(c.arrival_digest_bulk);
            s.queue_events += c.queue_events;
            s.soft_dispatches += c.soft_dispatches;
            s.wheel_overflow += c.wheel_overflow;
            s.fabric_messages += c.fabric_messages;
            s.fabric_bytes += c.fabric_bytes;
            s.sinks += c.sinks;
            s.sink_members += c.sink_members;
            s.sink_pauses += c.sink_pauses;
            s.pio_sends += c.pio_sends;
            s.mpi_calls += c.mpi_calls;
            s.mpi_ns += c.mpi_ns;
            s.syscalls += c.syscalls;
            s.kernel_ns += c.kernel_ns;
            s.offloaded_calls += c.offloaded_calls;
            s.offload_wait_ns += c.offload_wait_ns;
            s.tid_programs += c.tid_programs;
            s.shard_state_bytes += c.shard_state_bytes;
            s.stat_bytes += c.stat_bytes;
        }
        s
    }

    /// Simulated rank-seconds: the denominator of the `sim_share` ratios.
    pub fn rank_wall_ns(&self) -> f64 {
        self.ranks as f64 * self.sim_wall_ns as f64
    }
}

/// Host measurements and exact outputs of one successful run.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    pub setup_s: f64,
    pub run_s: f64,
    pub peak_bytes: u64,
    pub counts: Counts,
}

fn panic_text(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".into())
}

/// `World::new` calls per run; the run's set-up time is their median
/// and the last world built is the one that runs.
pub const SETUP_SAMPLES: usize = 5;

/// Build and run `spec` once, timing `World::new` and `World::run` and
/// checking the result. A panic or a failed check is an `Err`.
pub fn run_once(spec: &RunSpec, tracer: &mut Tracer) -> Result<RunOutcome, String> {
    memalloc::reset_peak();
    let mut setups = Vec::with_capacity(SETUP_SAMPLES);
    let mut world = None;
    for _ in 0..SETUP_SAMPLES {
        // Drop the previous world first, so builds never overlap in memory.
        drop(world.take());
        tracer.enter("cluster.world_new");
        let t0 = Instant::now();
        let built = catch_unwind(AssertUnwindSafe(|| {
            World::new(spec.cfg.clone(), spec.app, spec.iters)
        }));
        setups.push(t0.elapsed().as_secs_f64());
        tracer.exit();
        world = Some(built.map_err(|p| format!("World::new panicked: {}", panic_text(p)))?);
    }
    let world = world.expect("at least one build");
    let setup_s = crate::median(&setups);
    tracer.enter("cluster.world_run");
    let t1 = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| world.run()));
    let run_s = t1.elapsed().as_secs_f64();
    tracer.exit();
    let peak_bytes = memalloc::peak_bytes();
    let r = result.map_err(|p| format!("World::run panicked: {}", panic_text(p)))?;
    check(spec, &r)?;
    Ok(RunOutcome {
        setup_s,
        run_s,
        peak_bytes,
        counts: Counts::of(&r, spec.nranks() as u64),
    })
}

/// The per-run correctness checks: every rank finished, nothing was
/// clamped, no payload failed its self-check, and the run used exactly
/// the pinned partition.
fn check(spec: &RunSpec, r: &RunResult) -> Result<(), String> {
    let mut errs = Vec::new();
    if r.ranks_done != spec.nranks() {
        errs.push(format!(
            "{} of {} ranks finished",
            r.ranks_done,
            spec.nranks()
        ));
    }
    if r.clamped_events != 0 {
        errs.push(format!("{} clamped events", r.clamped_events));
    }
    if r.payload_errors != 0 {
        errs.push(format!("{} payload errors", r.payload_errors));
    }
    let sharded = spec.cfg.engine.sharded();
    let (shards, threads) = if sharded {
        (spec.cfg.shards.unwrap_or(0), spec.cfg.threads.unwrap_or(0))
    } else {
        (1, 1)
    };
    if r.shards as usize != shards || r.threads as usize != threads {
        errs.push(format!(
            "ran on {} shards / {} threads, pinned {shards} / {threads}",
            r.shards, r.threads
        ));
    }
    if errs.is_empty() {
        Ok(())
    } else {
        Err(errs.join(", "))
    }
}
