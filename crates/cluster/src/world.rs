//! The full-system simulator: N nodes, each composing the Linux model,
//! the McKernel model, the HFI1 chip + driver, and (in the PicoDriver
//! configuration) the fast path — driven by one deterministic event loop.
//!
//! Time accounting rules:
//!
//! * a rank owns a local clock; compute segments advance it through the
//!   node's noise model;
//! * kernel-visible operations advance it by the *route-dependent* cost:
//!   local handling (Linux / fast path) or the full offload round trip
//!   including queueing at the node's few Linux service cores;
//! * SDMA completion IRQs are serviced by those same Linux cores, so IRQ
//!   load and offloaded syscalls contend — a second-order effect the
//!   paper's UMT collapse depends on;
//! * PSM has no progress thread: packets arriving while a rank computes
//!   wait in its inbox until the rank re-enters the MPI library.

use crate::config::{ClusterConfig, OsConfig};
use pico_apps::{App, AppSpec, JobShape};
use pico_fabric::{Fabric, SinkInjection, TrainMember, TransferSchedule};
use pico_hfi1::structs::LayoutSet;
use pico_hfi1::{Hfi1Driver, HfiChip, HfiChipConfig, HfiDriverCosts, SdmaSubmission};
use pico_ihk::{Delegator, ProxyRegistry, Sysno};
use pico_linux::{LinuxCosts, NoiseConfig, NoiseSource, Vfs};
use pico_mckernel::{BlockId, MckMmCosts, ScalableAllocator, SyscallTable};
use pico_mem::{
    AddressSpace, BuddyAllocator, Frames, MapPolicy, PhysAddr, SpaceTemplate, VirtAddr,
};
use pico_mpi::{BufTable, HostOp, MpiCall, MpiRank, StepResult};
use pico_psm::{Endpoint, PsmAction, PsmPacket};
use pico_sim::{
    transfer_time, EventQueue, FastMap, FinishSketch, Ns, Rng, Sketch, TimeByKey, WheelProfile,
    WindowSync,
};
use picodriver::{CallbackKind, CallbackRef, CallbackTable, HfiFastPath, UnifiedKernelSpace};
use std::sync::Arc;

const MMAP_BASE: VirtAddr = VirtAddr(0x7000_0000_0000);

/// Events of the cluster simulation.
enum Ev {
    /// Resume a rank (compute finished / retry progress).
    Wake(usize),
    /// Deliver a PSM packet to a rank.
    Packet {
        dst: usize,
        src: u32,
        packet: PsmPacket,
    },
    /// Sender-side SDMA completion (IRQ handled, callbacks run).
    SdmaSent {
        rank: usize,
        msg_id: u64,
        window: u32,
        va: u64,
    },
    /// A burst of packets that rode one fabric reservation: delivered
    /// member by member at their analytic arrivals (the event fires at
    /// the first one; members are in arrival order).
    PacketTrain { members: Vec<TrainPacket> },
    /// Sender-side SDMA completions batched from one action flush; the
    /// event fires at the last member's IRQ finish (the only completion
    /// an in-order pipelined sender can act on).
    SdmaSentBatch { members: Vec<SentMember> },
    /// Incast-mode reaper timer: close `sinks[slot]` (the destination
    /// node's merged flow) if *every* source link feeding it has idled
    /// past `flow_linger_ns`, else re-arm. One timer covers the whole
    /// N-to-1 incast. Touches no rank state (pure sink bookkeeping), so
    /// it is exempt from `node_pending` accounting and commutes with
    /// train continuations.
    SinkClose { slot: usize },
}

/// Where a train dispatch's members came from — decides where an
/// undeliverable remainder is handed back to.
#[derive(Clone, Copy)]
enum TrainSource {
    /// A soft `Ev::PacketTrain`: the remainder is re-emitted as a fresh
    /// train at its first arrival.
    Event,
    /// The pending members of `sinks[i]` (the destination node's merged
    /// incast flow): the remainder goes back into the sink (lazy
    /// resplit) and re-defers as its soft entry, so later appends keep
    /// extending it in place.
    Sink(usize),
}

/// One in-flight member of an [`Ev::PacketTrain`].
struct TrainPacket {
    arrival: Ns,
    /// Global emission sequence (from [`PendingMember::seq`]): the
    /// deterministic tiebreak when a sink merges equal arrivals from
    /// different source links.
    seq: u64,
    dst: usize,
    src: u32,
    packet: PsmPacket,
}

/// One member of an [`Ev::SdmaSentBatch`].
#[derive(Clone, Copy)]
struct SentMember {
    rank: usize,
    msg_id: u64,
    window: u32,
    va: u64,
}

/// A packet parked in the per-link train accumulator between its
/// emission (during an event dispatch) and the train flush that turns
/// the burst into one fabric reservation.
struct PendingMember {
    /// Global emission sequence: completion IRQs are serviced on the
    /// Linux cores in exactly the order the per-packet path would have
    /// submitted them, even when a flush spans several links.
    seq: u64,
    /// When the sender handed the packet to the NIC.
    at: Ns,
    dst: usize,
    src: u32,
    /// Wire bytes / wire requests (the fabric schedule inputs).
    bytes: u64,
    nreqs: u64,
    packet: PsmPacket,
    /// Sender-side completion IRQ to batch, for SDMA windows:
    /// `(rank, msg_id, window, va, completion_cpu)`.
    completion: Option<(usize, u64, u32, u64, Ns)>,
}

/// A deferred delivery on the *soft schedule*: flush products kept
/// outside the queue and merged against it by `(at, seq)` — the seq is
/// allocated from the queue's own counter, so executing the smaller key
/// first gives the same pop order as queueing them would, while the soft
/// side costs zero `sim_events`.
struct SoftItem {
    at: Ns,
    seq: u64,
    kind: SoftKind,
}

enum SoftKind {
    /// Deliver the pending members of `sinks[i]`.
    Sink(usize),
    /// Any other flush product (intra-node train, parked singleton,
    /// batched sender completions), dispatched exactly like the event.
    Ev(Ev),
}

/// The destination-rooted incast flow of one node (`sinks[dst_node]`):
/// the merge of every source link's bursts into a single soft schedule
/// over the node's downlink, kept open across dispatches. Successive
/// flushes from *any* source continue the shared downlink reservation
/// ([`Fabric::sink_commit`]) and merge into `members` by
/// `(arrival, seq)`; one soft entry, one `node_pending` mark, and one
/// [`Ev::SinkClose`] reaper cover every source link.
/// Slots are allocated once per node and never freed; `open` flips as
/// sinks close (linger, member cap, reaper) and successors reuse them.
#[derive(Default)]
struct SinkSlot {
    /// Whether an incast flow is currently open on this node.
    open: bool,
    /// Committed-but-undelivered members, sorted by `(arrival, seq)` —
    /// cross-source arrivals are *not* monotone in commit order (a
    /// slow-uplink member's arrival can be latency-dominated past a
    /// later member's downlink-dominated one), so appends merge.
    members: Vec<TrainPacket>,
    /// Whether a `SoftKind::Sink` entry for `members` is on the soft
    /// schedule (with a matching `node_pending` entry).
    pending: bool,
    /// Soft-entry key time while `pending` — needed to re-key the entry
    /// when a merge introduces an earlier first arrival.
    entry_at: Ns,
    /// Members accumulated by the open sink so far (the `sink_commit`
    /// continuation length across all sources; resets on close).
    len: u64,
    /// Last append or delivery on this sink, for linger decisions.
    last_activity: Ns,
    /// Whether an `Ev::SinkClose` reaper event is in the queue.
    reaper_armed: bool,
}

/// Open-addressed index over `pending_trains`, keyed `(src, dst)`:
/// replaces the former per-member linear bucket scan in
/// `enqueue_member`. Cleared per flush by bumping an epoch stamp (O(1),
/// no slot writes); the slot array is reused across flushes, so the
/// steady state allocates nothing.
struct LinkIndex {
    /// `(epoch_stamp, src, dst, bucket)`; a slot is live iff its stamp
    /// equals the current epoch.
    slots: Vec<(u64, u32, u32, u32)>,
    epoch: u64,
    live: usize,
}

impl LinkIndex {
    fn new() -> LinkIndex {
        LinkIndex {
            slots: vec![(0, 0, 0, 0); 64],
            epoch: 1,
            live: 0,
        }
    }

    /// splitmix64 finalizer over the packed link key.
    #[inline]
    fn hash(src: usize, dst: usize) -> u64 {
        let mut x = ((src as u64) << 32) | dst as u64;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// Bucket of `(src, dst)`, if indexed this epoch.
    #[inline]
    fn get(&self, src: usize, dst: usize) -> Option<usize> {
        let mask = self.slots.len() - 1;
        let mut i = Self::hash(src, dst) as usize & mask;
        loop {
            let (stamp, s, d, b) = self.slots[i];
            if stamp != self.epoch {
                return None;
            }
            if s == src as u32 && d == dst as u32 {
                return Some(b as usize);
            }
            i = (i + 1) & mask;
        }
    }

    /// Record `(src, dst) -> bucket` (the key must be absent).
    fn insert(&mut self, src: usize, dst: usize, bucket: usize) {
        if (self.live + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = Self::hash(src, dst) as usize & mask;
        while self.slots[i].0 == self.epoch {
            debug_assert!(self.slots[i].1 != src as u32 || self.slots[i].2 != dst as u32);
            i = (i + 1) & mask;
        }
        self.slots[i] = (self.epoch, src as u32, dst as u32, bucket as u32);
        self.live += 1;
    }

    /// Double the table, rehashing this epoch's live entries.
    fn grow(&mut self) {
        let doubled = self.slots.len() * 2;
        let old = std::mem::replace(&mut self.slots, vec![(0, 0, 0, 0); doubled]);
        let mask = self.slots.len() - 1;
        for (stamp, s, d, b) in old {
            if stamp == self.epoch {
                let mut i = Self::hash(s as usize, d as usize) as usize & mask;
                while self.slots[i].0 == self.epoch {
                    i = (i + 1) & mask;
                }
                self.slots[i] = (stamp, s, d, b);
            }
        }
    }

    /// O(1) clear: stale stamps die with the epoch bump.
    #[inline]
    fn clear(&mut self) {
        self.epoch += 1;
        self.live = 0;
    }
}

/// One node's kernel + device complex. Under the flyweight model
/// (`ClusterConfig::eager_node_model` off) exactly one template node per
/// OS configuration boots for real; every instance then shares the
/// template's immutable post-boot images — frame pool (`Frames::Shared`),
/// driver reset registers and layouts (inside [`Hfi1Driver`]), the ported
/// shadow (inside [`HfiFastPath`]), and the `Arc`ed unified kernel space
/// and callback table — while carrying only compact private hot state
/// (open files, TID store, per-core block pools).
struct Node {
    frames: Frames,
    vfs: Vfs,
    dev: pico_linux::DevId,
    chip: HfiChip,
    driver: Hfi1Driver,
    fast: Option<HfiFastPath>,
    delegator: Delegator,
    proxies: ProxyRegistry,
    // PicoDriver runtime pieces, exercised functionally per completion.
    // Immutable after boot (the callback table's invocations and the
    // unified space's queries are `&self`), so flyweight nodes share one
    // allocation per OS configuration.
    unified: Option<Arc<UnifiedKernelSpace>>,
    callbacks: Option<Arc<CallbackTable>>,
    cb_ref: Option<CallbackRef>,
    lwk_alloc: Option<ScalableAllocator>,
}

/// One MPI rank's state.
struct RankState {
    node: usize,
    local: u32,
    engine: MpiRank,
    ep: Endpoint,
    bufs: BufTable,
    space: AddressSpace,
    dev_handle: u64,
    ctxt: u32,
    clock: Ns,
    noise: NoiseSource,
    inbox: Vec<(u32, PsmPacket)>,
    scratch: Vec<(VirtAddr, u64)>,
    kprof: TimeByKey<Sysno>,
    /// In-flight SDMA completion metadata, keyed `(msg_id, window)`.
    /// Hot-path insert/remove per pipelined window — open-addressed
    /// splitmix64 map, not SipHash.
    meta: FastMap<(u64, u32), BlockId>,
    done: bool,
}

/// Aggregated results of one run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Wall-clock time of the slowest rank (the app's figure of merit).
    pub wall_time: Ns,
    /// Streaming sketch of every rank's finish time: exact
    /// min/max/sum/count plus log-bucket quantiles, constant memory at
    /// any job size. This is the result path; the exact vector below is
    /// opt-in.
    pub finish: FinishSketch,
    /// Per-rank finish times — populated only when
    /// [`ClusterConfig::record_per_rank`] is set (the equivalence tests
    /// that need exact vectors); empty otherwise so a 4096-node run
    /// carries no O(ranks) result state.
    pub rank_finish: Vec<Ns>,
    /// Streaming sketch of fabric delivery latencies (arrival −
    /// schedule time, ns) over every digested member — the
    /// constant-memory replacement for the `PICO_TRACE_ARRIVALS` row
    /// vector, which is now only materialized when that explicit trace
    /// sink is requested.
    pub arrival_latency: Sketch,
    /// Resident bytes of O(ranks) statistics state at collection —
    /// per-rank wake/train/dedup bookkeeping across all shards, the
    /// opt-in `rank_finish` vector, any arrival-trace rows, plus the
    /// (constant-size) sketches. The `simbench` memory gate holds this
    /// ≥4× below the per-rank-vector baseline at 1024 nodes.
    pub stat_bytes: u64,
    /// Process-wide peak allocation in bytes, read from
    /// [`pico_sim::memalloc`] at collection. Zero unless the binary
    /// installed the counting allocator (the bench binaries do; tests
    /// and figure binaries that don't measure memory don't).
    pub peak_alloc_bytes: u64,
    /// Resident bytes of node-indexed engine state at collection,
    /// summed across shards: fabric gate storage (the own node range)
    /// and the `node_pending` / sink-root vectors. O(total_nodes) for
    /// the whole run at any shard count — the `simbench` shard-state
    /// gate checks it is equal at 4 and 64 shards and ≥8× below the
    /// analytic O(shards × total_nodes) layout at 4096 nodes.
    pub shard_state_bytes: u64,
    /// Nodes whose fabric gate state was allocated, summed across
    /// shards. Equals total nodes (each shard allocates exactly its own
    /// range and panics on any remote gate) — the property tests'
    /// no-remote-allocation witness.
    pub shard_gate_nodes: u64,
    /// MPI per-call time summed over all ranks.
    pub mpi_profile: TimeByKey<MpiCall>,
    /// Kernel per-syscall time summed over all ranks (Figures 8/9).
    pub kernel_profile: TimeByKey<Sysno>,
    /// Total offloaded syscalls across nodes.
    pub offloaded_calls: u64,
    /// Total queueing delay at the Linux service cores.
    pub offload_queue_wait: Ns,
    /// Bytes moved through the fabric.
    pub fabric_bytes: u64,
    /// Messages through the fabric.
    pub fabric_messages: u64,
    /// Packet trains scheduled on the fabric (bursts of ≥ 2 packets
    /// that shared one link reservation).
    pub fabric_trains: u64,
    /// Packets that rode one of those trains.
    pub fabric_train_members: u64,
    /// Longest train scheduled.
    pub fabric_max_train: u64,
    /// Train deliveries that stopped at a member the dispatch could not
    /// consume and *re-committed* the remainder as a fresh scheduler
    /// item — a new train losing its accumulator, paying a fresh
    /// dispatch. Sink suffixes that stay in their slot are counted as
    /// [`fabric_sink_pauses`](Self::fabric_sink_pauses) instead.
    pub fabric_resplits: u64,
    /// Destination-rooted incast sinks opened ([`FabricMode::Incast`]
    /// only): the per-node merged flows. An N-to-1 incast opens 1.
    pub fabric_sinks: u64,
    /// Members merged through those sinks.
    pub fabric_sink_members: u64,
    /// Longest sink (members merged by one sink before it closed).
    pub fabric_max_sink: u64,
    /// Sink deliveries that stopped at a conflicting member and
    /// re-deferred the suffix *in place* as the sink's pending delivery
    /// (the lazy resplit). Zero queue events each — the cheap cousin of
    /// [`fabric_resplits`](Self::fabric_resplits).
    pub fabric_sink_pauses: u64,
    /// Deliveries executed on the zero-event soft schedule
    /// ([`FabricMode::Incast`] only): flush products that would
    /// otherwise each have cost a queue event.
    pub soft_deliveries: u64,
    /// Order-independent digest of every fabric delivery schedule
    /// (`hash(arrival, dst, src, bytes)` summed commutatively at
    /// schedule time, all modes): two runs whose per-member arrival
    /// times are bit-identical produce equal digests regardless of
    /// dispatch interleaving.
    pub arrival_digest: u64,
    /// [`RunResult::arrival_digest`] restricted to bulk messages (>= 1
    /// KiB on the wire) — the incast gate's equality witness. Control
    /// messages (barrier/rendezvous handshakes, a few dozen bytes) ride
    /// on rank run-ahead whose flush ordering `Incast` only
    /// approximates, so their arrivals may differ against the reference
    /// model; data-plane arrivals go through the fabric gates alone and
    /// match it bit-for-bit wherever delivery is FIFO-exact.
    pub arrival_digest_bulk: u64,
    /// Scheduling-placement counters and page-span histogram of the
    /// timing wheel (see [`WheelProfile`]): which tier every schedule
    /// landed in over the whole run.
    pub wheel_profile: WheelProfile,
    /// Backed-run payloads whose bytes failed the wrapping-increment
    /// self-check after delivery (must be zero; nonzero means the train
    /// or reassembly path corrupted a payload).
    pub payload_errors: u64,
    /// TID entries programmed on all chips.
    pub tid_programs: u64,
    /// PIO sends on all chips.
    pub pio_sends: u64,
    /// Ranks that reached `Finalize` (must equal the job size).
    pub ranks_done: u32,
    /// Payloads delivered to receives (backed runs only).
    pub delivered_payloads: u64,
    /// Events popped from the queue over the whole run (deterministic).
    pub sim_events: u64,
    /// Events silently clamped after past-scheduling (must be zero; a
    /// nonzero value means a model scheduled into the past in a release
    /// build).
    pub clamped_events: u64,
    /// Simulator throughput: events popped per wall-clock second. The
    /// only *nondeterministic* field — it measures the engine, not the
    /// simulated system, and is excluded from determinism comparisons.
    pub events_per_sec: f64,
    /// Worker threads the engine ran on (1 = single-queue or a
    /// one-thread sharded run). Recorded so benchmark artifacts never
    /// silently compare different parallelism.
    pub threads: u32,
    /// Shards the run was partitioned into (1 = single-queue).
    pub shards: u32,
}

impl RunResult {
    /// Total time spent in kernel space (the Fig. 8/9 denominator).
    pub fn kernel_time(&self) -> Ns {
        self.kernel_profile.grand_total()
    }
    /// Total MPI time.
    pub fn mpi_time(&self) -> Ns {
        self.mpi_profile.grand_total()
    }
}

/// Scalar configuration copied out of [`ClusterConfig`] once at build
/// time, so the per-event dispatch loop reads hot locals instead of
/// chasing the config struct.
#[derive(Clone, Copy)]
struct HotCfg {
    os: OsConfig,
    pio_base: Ns,
    pio_bw: f64,
    copy_bw: f64,
    /// Bursts coalesce into destination-rooted sinks and ride the soft
    /// schedule (`Incast`); off = the per-packet reference.
    incast: bool,
    /// Ranks per node: maps a (possibly remote) rank id to its node id
    /// without touching the rank vector — in sharded runs remote ranks
    /// live on another shard entirely.
    rpn: usize,
}

/// One `PICO_TRACE_ARRIVALS` record: `(commit time, dst rank, src
/// rank, wire bytes, arrival time)`.
type ArrivalTraceRow = (u64, usize, u32, u64, u64);

/// Capacity retained by pooled scratch vectors after a burst. A single
/// pathological burst (a 4096-node incast spike) can balloon a scratch
/// allocation to O(ranks); anything past this high-water mark is given
/// back when the vector returns to its pool instead of staying pinned
/// for the rest of the run.
const SCRATCH_KEEP: usize = 1024;

/// Shrink a drained scratch vector back toward [`SCRATCH_KEEP`] once
/// its capacity has grown well past it (hysteresis at 4× so steady
/// medium-sized bursts never thrash the allocator).
#[inline]
fn shrink_scratch<T>(v: &mut Vec<T>) {
    if v.capacity() > 4 * SCRATCH_KEEP {
        v.shrink_to(SCRATCH_KEEP);
    }
}

/// The simulator.
pub struct World {
    cfg: ClusterConfig,
    hot: HotCfg,
    lc: LinuxCosts,
    mmc: MckMmCosts,
    nodes: Vec<Node>,
    ranks: Vec<RankState>,
    fabric: Fabric,
    queue: EventQueue<Ev>,
    delivered_payloads: u64,
    /// Per-rank timestamp of the latest queued `Ev::Wake` (`Ns::MAX` =
    /// none): lets the loop coalesce same-timestamp wake storms into one
    /// dispatch instead of queueing duplicates.
    pending_wake: Vec<Ns>,
    /// Pooled scratch for draining PSM actions (no per-flush allocation).
    action_scratch: Vec<PsmAction>,
    /// Pooled scratch for draining parked inboxes.
    inbox_scratch: Vec<(u32, PsmPacket)>,
    /// Per-link train accumulator: packets emitted during the current
    /// event dispatch, keyed `(src_node, dst_node)`, flushed to the
    /// fabric once per dispatch. Empty whenever the loop is between
    /// dispatches (and always, under the per-packet reference).
    pending_trains: Vec<(usize, usize, Vec<PendingMember>)>,
    /// Recycled member vectors for the accumulator.
    member_pool: Vec<Vec<PendingMember>>,
    /// Pooled scratch for the fabric call and its returned schedules.
    fabric_member_scratch: Vec<TrainMember>,
    sched_scratch: Vec<TransferSchedule>,
    /// Pooled scratch for collecting batched SDMA completions across
    /// the trains of one flush: `(seq, src_node, irq_start, cpu, member)`.
    sent_scratch: Vec<(u64, usize, Ns, Ns, SentMember)>,
    /// Global packet-emission counter backing [`PendingMember::seq`].
    emit_seq: u64,
    /// Monotone id of the train dispatch in flight, with per-rank
    /// epoch marks: a rank greedily delivered-to this dispatch keeps
    /// taking members directly; a rank parked this dispatch keeps
    /// parking (one coalesced wake), captured at `train_park_clock`.
    train_epoch: u64,
    train_delivered: Vec<u64>,
    train_parked: Vec<u64>,
    train_park_clock: Vec<Ns>,
    /// Pooled scratch listing the ranks greedily engaged by the train
    /// dispatch in flight (for the end-of-dispatch wake sweep).
    engaged_scratch: Vec<usize>,
    /// Per-node multiset of pending event times (incast mode only).
    /// Every queued event runs ranks of exactly one node, so a train
    /// dispatch may run ahead of events that touch *other* nodes — their
    /// gates and inboxes are disjoint from the continuation's — but must
    /// yield to anything pending on the destination node itself. Soft
    /// schedule items are accounted here exactly like queued events.
    node_pending: Vec<std::collections::BTreeMap<Ns, u32>>,
    /// Soft schedule, sorted *descending* by `(at, seq)` so the next
    /// item pops O(1) off the tail (same trick as the wheel's `cur`).
    soft: Vec<SoftItem>,
    /// Destination-rooted incast sinks, one per node (`sinks[dst_node]`).
    sinks: Vec<SinkSlot>,
    /// Open-addressed `(src, dst) -> pending_trains bucket` index,
    /// cleared per flush (satellite of the incast PR: `enqueue_member`
    /// was a per-member linear scan).
    link_index: LinkIndex,
    /// Resplit counter behind [`RunResult::fabric_resplits`].
    resplits: u64,
    /// Sink counters behind the `fabric_sink*` results.
    sinks_opened: u64,
    sink_members_total: u64,
    max_sink_len: u64,
    sink_pauses: u64,
    /// Commutative arrival digest behind [`RunResult::arrival_digest`].
    arrival_digest: u64,
    /// Bulk-only digest behind [`RunResult::arrival_digest_bulk`].
    arrival_digest_bulk: u64,
    /// Debug aid: when `PICO_TRACE_ARRIVALS` names a file, every digest
    /// input is recorded and dumped there at collection — diff two
    /// runs' dumps (sorted) to localize an arrival divergence.
    arrival_trace: Option<(String, Vec<ArrivalTraceRow>)>,
    /// Constant-memory latency sketch fed by the same digest stream:
    /// shard-local, merged once at collection (order-invariant), so no
    /// worker ever serializes on a shared stats sink.
    arrival_sketch: Sketch,
    /// Soft-schedule dispatches (see [`RunResult::soft_deliveries`]).
    soft_deliveries: u64,
    /// Time of the dispatch in flight (== the popped item's timestamp;
    /// runs ahead of `queue.now()` during soft dispatches).
    sim_now: Ns,
    /// First global rank id owned by this world. `ranks[g - rank_base]`
    /// is rank `g`, and the per-rank *counter* vectors (`pending_wake`,
    /// `train_*`, `sent_seen`) are shard-local with the same `g -
    /// rank_base` indexing — a shard carries O(ranks/shards) stat
    /// state, not O(ranks). Zero in single-queue runs.
    rank_base: usize,
    /// First global node id owned by this world (see `rank_base`).
    /// `nodes`, `node_pending` and `sinks` cover exactly the own node
    /// range and are indexed `node - node_base` — a shard never touches
    /// another shard's pending marks or sink roots.
    node_base: usize,
    /// This shard's id (0 in single-queue runs).
    shard_id: u32,
    /// True inside a sharded run: inter-node sink bursts detour through
    /// `outbox` instead of committing to the destination sink inline.
    sharded: bool,
    /// Cross-shard sink bursts emitted this window, drained to the
    /// destination shards' inboxes at the window barrier.
    outbox: Vec<EdgeMsg>,
    /// Per-shard monotone emission counter ordering same-timestamp
    /// `EdgeMsg`s from one shard.
    emit_order: u64,
    /// Destination-side member sequence source: reassigned in global
    /// commit order so within-sink `(arrival, seq)` ties resolve exactly
    /// like the single-queue engine's emission order.
    commit_seq: u64,
    /// Per-rank epoch stamps deduplicating `SdmaSentBatch` members
    /// (replaces an O(m^2) rescan of the member prefix).
    sent_seen: Vec<u64>,
    sent_seen_epoch: u64,
    /// Streaming payload verification (replaces buffering every
    /// delivered payload per rank until collection).
    payloads_checked: u64,
    payload_errors: u64,
    /// Dispatch counter backing the runaway-loop guard in `pump`.
    dispatches: u64,
    /// Exclusive upper bound of the window being pumped (`Ns::MAX` in a
    /// single-queue run). Commits emitted inside the in-flight window land
    /// only at its barrier, so shard state is complete strictly *below*
    /// this time — greedy sink continuation must not read past it (see
    /// `continuation_clear`).
    window_horizon: Ns,
    /// Pooled scratch for the source half of a deferred sink burst.
    inj_scratch: Vec<SinkInjection>,
}

/// One member of a cross-shard sink burst: the source-side uplink
/// schedule (already committed on the emitting shard's fabric) plus
/// everything the destination shard needs to finish the delivery.
struct EdgeMember {
    inj: SinkInjection,
    dst: usize,
    src: u32,
    packet: PsmPacket,
}

/// A sink burst crossing the shard boundary. Destination shards sort
/// their inboxes by `(emit_at, src_shard, emit_order)` — a total order
/// identical on every thread count — before committing.
struct EdgeMsg {
    emit_at: Ns,
    src_shard: u32,
    emit_order: u64,
    dst_node: usize,
    members: Vec<EdgeMember>,
}

impl World {
    /// Build a world for `app` under `cfg`.
    ///
    /// Panics if `cfg` fails [`ClusterConfig::validate`].
    pub fn new(cfg: ClusterConfig, app: App, iters: u32) -> World {
        if let Err(e) = cfg.validate() {
            panic!("invalid cluster config: {e}");
        }
        let shape = cfg.shape;
        let spec = pico_apps::spec(app, shape);
        let root_rng = Rng::new(cfg.seed);

        // Boot the address space of one local rank: buffers + scratch
        // mmapped from the node's frame pool. The VA layout this produces
        // is node-invariant, and the physical layout is node-invariant up
        // to the node's `node_idx << 40` base — which is what lets the
        // flyweight model boot it once and instantiate shifted views.
        let boot_space = |frames: &mut Frames| -> (AddressSpace, BufTable) {
            let policy = match cfg.os {
                OsConfig::Linux => MapPolicy::Fragmented4k,
                _ if cfg.lwk_large_pages => MapPolicy::ContiguousLarge,
                _ => MapPolicy::Fragmented4k,
            };
            let pinned = cfg.os != OsConfig::Linux;
            let mut space = AddressSpace::new(policy, MMAP_BASE);
            let frames = frames.get_mut();
            let mut bufs = BufTable::default();
            for &bytes in &spec.buffer_bytes {
                let (va, _) = space
                    .mmap_anonymous(frames, bytes, pinned)
                    .expect("buffer allocation failed: raise mem_per_node");
                bufs.bufs.push(va.0);
            }
            let (sva, _) = space
                .mmap_anonymous(frames, spec.scratch_bytes.max(4096), pinned)
                .expect("scratch allocation failed");
            bufs.scratch = sva.0;
            (space, bufs)
        };

        let mut nodes = Vec::with_capacity(shape.nodes as usize);
        // Flyweight model: per-local-rank frozen space templates + buffer
        // tables from the template node's boot, stamped out everywhere.
        let mut space_tpl: Vec<(SpaceTemplate, BufTable)> = Vec::new();
        if cfg.eager_node_model {
            for n in 0..shape.nodes {
                nodes.push(Self::build_node(&cfg, n));
            }
        } else {
            // Template boot: one real node per OS configuration. Its
            // ranks' address spaces are booted for real against its frame
            // pool, then everything immutable-after-boot is frozen behind
            // `Arc` and every node instance (including node 0, for
            // uniform copy-on-write behavior) becomes a flyweight view.
            let mut template = Self::build_node(&cfg, 0);
            let mut spaces = Vec::with_capacity(shape.ranks_per_node as usize);
            for _ in 0..shape.ranks_per_node {
                spaces.push(boot_space(&mut template.frames));
            }
            let booted = std::mem::replace(
                &mut template.frames,
                Frames::Owned(BuddyAllocator::new(PhysAddr(0), 4096)),
            );
            let image = match booted {
                Frames::Owned(b) => Arc::new(b),
                Frames::Shared { .. } => unreachable!("template node boots eagerly"),
            };
            for (space, bufs) in spaces {
                space_tpl.push((space.freeze(), bufs));
            }
            for n in 0..shape.nodes {
                nodes.push(Self::clone_node(&cfg, &template, &image, n));
            }
        }
        let mut ranks = Vec::with_capacity(shape.nranks() as usize);
        let mut skew_rng = root_rng.substream(7);
        for g in 0..shape.nranks() {
            let node = (g / shape.ranks_per_node) as usize;
            let local = g % shape.ranks_per_node;
            let mut engine_cfg = spec.engine;
            engine_cfg.backed = cfg.backed;
            let program = pico_apps::program(app, shape, iters, g);
            let noise_cfg = cfg.noise_override.unwrap_or(match cfg.os {
                OsConfig::Linux => NoiseConfig::linux_nohz_full(),
                _ => NoiseConfig::mckernel(),
            });
            let (space, bufs) = if cfg.eager_node_model {
                boot_space(&mut nodes[node].frames)
            } else {
                let (tpl, bufs) = &space_tpl[local as usize];
                (tpl.instantiate((node as u64) << 40), bufs.clone())
            };
            ranks.push(RankState {
                node,
                local,
                engine: MpiRank::new(g, shape.nranks(), engine_cfg, program),
                ep: Endpoint::new(g, cfg.psm),
                bufs,
                space,
                dev_handle: 0,
                ctxt: 0,
                // The launch skew: the rank's first wake.
                clock: Ns(skew_rng.gen_range(cfg.launch_skew.0.max(1))),
                noise: NoiseSource::new(noise_cfg, root_rng.substream(1000 + g as u64)),
                inbox: Vec::new(),
                scratch: Vec::new(),
                kprof: TimeByKey::new(),
                meta: FastMap::new(),
                done: false,
            });
        }
        World::with_range(cfg, nodes, ranks, 0, 0)
    }

    /// Assemble a world owning nodes `[node_base, node_base +
    /// nodes.len())` and ranks `[rank_base, rank_base + ranks.len())`:
    /// the whole cluster for [`World::new`], one shard each for
    /// [`split_shards`](Self::split_shards). Every node-indexed
    /// structure — fabric gates, `node_pending`, sink roots — and every
    /// per-rank counter vector covers exactly the own range, and each
    /// rank's first wake is queued at its `clock` (the launch skew) in
    /// rank order.
    fn with_range(
        cfg: ClusterConfig,
        nodes: Vec<Node>,
        ranks: Vec<RankState>,
        rank_base: usize,
        node_base: usize,
    ) -> World {
        let (count, nranks) = (nodes.len(), ranks.len());
        let incast = cfg.batch_fabric.incast();
        let mut queue = EventQueue::with_coarse_bits(cfg.wheel_coarse_bits);
        let mut node_pending: Vec<std::collections::BTreeMap<Ns, u32>> =
            vec![std::collections::BTreeMap::new(); count];
        let mut pending_wake = Vec::with_capacity(nranks);
        for (j, rank) in ranks.iter().enumerate() {
            queue.schedule(rank.clock, Ev::Wake(rank_base + j));
            if incast {
                *node_pending[rank.node - node_base]
                    .entry(rank.clock)
                    .or_insert(0) += 1;
            }
            pending_wake.push(rank.clock);
        }
        let hot = HotCfg {
            os: cfg.os,
            pio_base: cfg.pio_base,
            pio_bw: cfg.pio_bw,
            copy_bw: cfg.copy_bw,
            incast,
            rpn: cfg.shape.ranks_per_node as usize,
        };
        World {
            fabric: Fabric::new_shard(cfg.fabric, cfg.shape.nodes as usize, node_base, count),
            cfg,
            hot,
            lc: LinuxCosts::default(),
            mmc: MckMmCosts::default(),
            nodes,
            ranks,
            queue,
            delivered_payloads: 0,
            pending_wake,
            action_scratch: Vec::new(),
            inbox_scratch: Vec::new(),
            pending_trains: Vec::new(),
            member_pool: Vec::new(),
            fabric_member_scratch: Vec::new(),
            sched_scratch: Vec::new(),
            sent_scratch: Vec::new(),
            emit_seq: 0,
            train_epoch: 0,
            train_delivered: vec![0; nranks],
            train_parked: vec![0; nranks],
            train_park_clock: vec![Ns::ZERO; nranks],
            engaged_scratch: Vec::new(),
            node_pending,
            soft: Vec::new(),
            sinks: (0..count).map(|_| SinkSlot::default()).collect(),
            link_index: LinkIndex::new(),
            resplits: 0,
            sinks_opened: 0,
            sink_members_total: 0,
            max_sink_len: 0,
            sink_pauses: 0,
            arrival_digest: 0,
            arrival_digest_bulk: 0,
            arrival_trace: std::env::var("PICO_TRACE_ARRIVALS")
                .ok()
                .map(|p| (p, Vec::new())),
            arrival_sketch: Sketch::new(),
            soft_deliveries: 0,
            sim_now: Ns::ZERO,
            rank_base,
            node_base,
            shard_id: 0,
            sharded: false,
            outbox: Vec::new(),
            emit_order: 0,
            commit_seq: 0,
            sent_seen: vec![0; nranks],
            sent_seen_epoch: 0,
            payloads_checked: 0,
            payload_errors: 0,
            dispatches: 0,
            window_horizon: Ns::MAX,
            inj_scratch: Vec::new(),
        }
    }

    /// Boot one node for real: buddy allocator, chip, driver probe, and —
    /// in the PicoDriver configuration — the DWARF port, the unified VA
    /// space, and the callback table. The eager model calls this per
    /// node; the flyweight model calls it exactly once per OS
    /// configuration and stamps the rest out with [`Self::clone_node`].
    fn build_node(cfg: &ClusterConfig, node_idx: u32) -> Node {
        let base = PhysAddr(node_idx as u64 * (1 << 40));
        let mut frames = BuddyAllocator::new(base, cfg.mem_per_node);
        if cfg.os == OsConfig::Linux {
            // A long-running host has fragmented physical memory.
            frames.fragment(cfg.host_fragmentation);
        } else if !cfg.lwk_large_pages {
            // Ablation: an LWK without the contiguity guarantee — fully
            // checkerboarded memory degenerates the fast path to 4 KiB
            // requests.
            frames.fragment(1.0);
        }
        let mut vfs = Vfs::new();
        let dev = vfs.devices.register("hfi1_0");
        let layouts = LayoutSet::v10_8();
        // The eager reference model keeps the dense RcvArray / free-TID
        // layout; the flyweight model uses the compact first-touch store
        // (bit-identical TID sequences, tested in `pico_hfi1::chip`).
        let nctxt = cfg.shape.ranks_per_node as usize + 2;
        let chip = if cfg.eager_node_model {
            HfiChip::new(HfiChipConfig::default(), nctxt)
        } else {
            HfiChip::new_compact(HfiChipConfig::default(), nctxt)
        };
        let driver = Hfi1Driver::new(layouts.clone(), HfiDriverCosts::default(), 16);
        let (fast, unified, callbacks, cb_ref, lwk_alloc) = if cfg.os == OsConfig::McKernelHfi {
            let module = layouts.emit_module_binary();
            let shadow = picodriver::HfiShadow::port(&module).expect("DWARF port failed");
            let mut fp = HfiFastPath::new(shadow, Default::default(), cfg.tid_cache);
            fp.sdma_cap = cfg.sdma_cap;
            let unified = UnifiedKernelSpace::boot().expect("VA unification failed");
            let mut table = CallbackTable::new(&unified);
            let cb = table.register(CallbackKind::SdmaCompleteLwkFree);
            let alloc = ScalableAllocator::new(cfg.shape.ranks_per_node as usize, 8192);
            (
                Some(fp),
                Some(Arc::new(unified)),
                Some(Arc::new(table)),
                Some(cb),
                Some(alloc),
            )
        } else {
            (None, None, None, None, None)
        };
        // Sanity: the syscall routing table matches the configuration.
        let table = match cfg.os {
            OsConfig::McKernelHfi => SyscallTable::with_hfi_picodriver(),
            _ => SyscallTable::base(),
        };
        debug_assert_eq!(
            table.has_fastpath(Sysno::Writev),
            cfg.os == OsConfig::McKernelHfi
        );
        Node {
            frames: Frames::Owned(frames),
            vfs,
            dev,
            chip,
            driver,
            fast,
            delegator: Delegator::new(cfg.ikc, cfg.service_cores),
            proxies: ProxyRegistry::new(),
            unified,
            callbacks,
            cb_ref,
            lwk_alloc,
        }
    }

    /// Stamp out node `node_idx` from the booted template: share every
    /// immutable post-boot image (`Arc` clones — the frame pool view is
    /// shifted by the node's physical base) and build only the compact
    /// private hot state fresh. This is the whole per-node boot cost of
    /// the flyweight model.
    fn clone_node(
        cfg: &ClusterConfig,
        template: &Node,
        image: &Arc<BuddyAllocator>,
        node_idx: u32,
    ) -> Node {
        let mut vfs = Vfs::new();
        let dev = vfs.devices.register("hfi1_0");
        Node {
            frames: Frames::Shared {
                image: Arc::clone(image),
                delta: (node_idx as u64) << 40,
            },
            vfs,
            dev,
            chip: HfiChip::new_compact(
                HfiChipConfig::default(),
                cfg.shape.ranks_per_node as usize + 2,
            ),
            driver: template.driver.clone_fresh(),
            fast: template.fast.as_ref().map(HfiFastPath::clone_fresh),
            delegator: Delegator::new(cfg.ikc, cfg.service_cores),
            proxies: ProxyRegistry::new(),
            unified: template.unified.clone(),
            callbacks: template.callbacks.clone(),
            cb_ref: template.cb_ref,
            lwk_alloc: template
                .lwk_alloc
                .as_ref()
                .map(|_| ScalableAllocator::new(cfg.shape.ranks_per_node as usize, 8192)),
        }
    }

    /// Debug dump of stuck ranks (used when a run fails to complete).
    pub fn debug_stuck(&self) -> String {
        let mut out = String::new();
        for (i, r) in self.ranks.iter().enumerate() {
            if !r.done {
                out.push_str(&format!(
                    "rank {}: clock={} inbox={} ep_actions={} {}\n",
                    i + self.rank_base,
                    r.clock,
                    r.inbox.len(),
                    r.ep.has_actions(),
                    r.engine.debug_state()
                ));
            }
        }
        out
    }

    /// Run to completion and aggregate results.
    pub fn run(self) -> RunResult {
        self.run_with_debug(false)
    }

    /// Schedule a wake for rank `r` at `at`, coalescing duplicates: a
    /// wake identical to the latest one already queued for this rank
    /// (same rank, same timestamp) would dispatch to an already-served
    /// rank, so it is skipped at the source.
    #[inline]
    fn schedule_wake(&mut self, r: usize, at: Ns) {
        if self.pending_wake[r - self.rank_base] == at {
            return;
        }
        self.pending_wake[r - self.rank_base] = at;
        self.schedule_ev(at, Ev::Wake(r));
    }

    /// The node whose ranks (and whose fabric gates / SDMA engine) an
    /// event's dispatch can touch. Every variant runs ranks of exactly
    /// one node; anything it sends to other nodes becomes a *new*
    /// queued event, accounted on its own node when scheduled.
    /// `None` for pure-bookkeeping events (`SinkClose`), which touch no
    /// rank state and commute with everything.
    fn ev_node(&self, ev: &Ev) -> Option<usize> {
        match ev {
            Ev::Wake(r) => Some(self.ranks[(*r) - self.rank_base].node),
            Ev::Packet { dst, .. } => Some(self.ranks[(*dst) - self.rank_base].node),
            Ev::SdmaSent { rank, .. } => Some(self.ranks[(*rank) - self.rank_base].node),
            Ev::PacketTrain { members } => {
                let d = members[0].dst;
                Some(self.ranks[(d) - self.rank_base].node)
            }
            Ev::SdmaSentBatch { members } => {
                let r0 = members[0].rank;
                Some(self.ranks[(r0) - self.rank_base].node)
            }
            Ev::SinkClose { .. } => None,
        }
    }

    /// May a train dispatch keep running rank `dst` up to a member due
    /// at `arrival`? Yes unless an event pending at or before `arrival`
    /// touches `dst`'s node (the reference model dispatches it first and
    /// its side effects must stay ahead of the continuation's), or this
    /// dispatch staged an intra-node burst whose shared-memory arrivals
    /// on the same node are not yet scheduled.
    fn continuation_clear(&self, dst: usize, arrival: Ns) -> bool {
        if arrival >= self.window_horizon {
            // Sharded runs only: the sink and the `node_pending` marks
            // cannot yet reflect this window's own emissions (those commit
            // at the barrier), so continuing past the horizon would
            // consume members on incomplete information. Defer — the
            // paused suffix re-keys and re-evaluates in the window that
            // owns `arrival`, with every commit at or before it applied.
            // This is where the sharded engine deliberately departs from
            // the single-queue engine, whose greedy continuation is
            // non-causal: it reads commits from the future of the member
            // it consumes (see DESIGN.md).
            return false;
        }
        let node = self.ranks[(dst) - self.rank_base].node;
        if self.node_pending[node - self.node_base]
            .range(..=arrival)
            .next()
            .is_some()
        {
            return false;
        }
        !self
            .pending_trains
            .iter()
            .any(|(s, d, ms)| *s == node && *d == node && !ms.is_empty())
    }

    /// Schedule an event, keeping the per-node pending-time multiset in
    /// step (incast mode only — the reference path never consults it).
    fn schedule_ev(&mut self, at: Ns, ev: Ev) {
        if self.hot.incast {
            if let Some(n) = self.ev_node(&ev) {
                *self.node_pending[n - self.node_base].entry(at).or_insert(0) += 1;
            }
        }
        self.queue.schedule(at, ev);
    }

    /// Drop one `node_pending` mark for node `n` at time `t` (the inverse
    /// of the bookkeeping in [`schedule_ev`](Self::schedule_ev) /
    /// [`push_soft`](Self::push_soft), applied when the event or soft
    /// item is dispatched).
    fn node_pending_remove(&mut self, n: usize, t: Ns) {
        let n = n - self.node_base;
        match self.node_pending[n].get_mut(&t) {
            Some(c) if *c > 1 => *c -= 1,
            _ => {
                self.node_pending[n].remove(&t);
            }
        }
    }

    /// Put a deferred delivery on the soft schedule, stamped with a seq
    /// from the queue's counter (so it merges into the exact queue pop
    /// order) and accounted in `node_pending` like a queued event.
    fn push_soft(&mut self, at: Ns, kind: SoftKind) {
        let node = match &kind {
            // Sinks are indexed by destination node.
            SoftKind::Sink(i) => Some(*i),
            SoftKind::Ev(ev) => self.ev_node(ev),
        };
        if let Some(n) = node {
            *self.node_pending[n - self.node_base].entry(at).or_insert(0) += 1;
        }
        let seq = self.queue.alloc_seq();
        let item = SoftItem { at, seq, kind };
        let pos = self.soft.partition_point(|s| (s.at, s.seq) > (at, seq));
        self.soft.insert(pos, item);
    }

    /// Run; optionally print stuck-rank diagnostics at exhaustion.
    pub fn run_with_debug(mut self, debug: bool) -> RunResult {
        let nshards = self.shard_count();
        if nshards > 1 {
            return self.run_sharded(nshards, debug);
        }
        // One shard is just the single-queue walk.
        let started = std::time::Instant::now();
        self.pump(Ns::MAX);
        if debug {
            let d = self.debug_stuck();
            if !d.is_empty() {
                eprintln!("--- stuck ranks ---\n{d}");
            }
        }
        let elapsed = started.elapsed().as_secs_f64();
        collect_many(vec![self], elapsed, 1, 1)
    }

    /// Shards this run partitions into: 1 for the single-queue engine,
    /// else the pinned `cfg.shards` or the sizing heuristic, clamped to
    /// the node count.
    fn shard_count(&self) -> usize {
        if !self.cfg.engine.sharded() {
            return 1;
        }
        let nnodes = self.nodes.len();
        self.cfg
            .shards
            .unwrap_or_else(|| auto_shard_count(nnodes, self.hot.rpn))
            .clamp(1, nnodes)
    }

    /// Earliest pending dispatch time across the queue and the soft
    /// schedule, as a raw key (`u64::MAX` when this world is idle).
    fn next_key_time(&self) -> u64 {
        let soft = self.soft.last().map(|s| s.at.0).unwrap_or(u64::MAX);
        let ev = self.queue.peek_time().map(|t| t.0).unwrap_or(u64::MAX);
        soft.min(ev)
    }

    /// Drain every dispatch with time strictly before `horizon`
    /// (`Ns::MAX` = run to exhaustion). The single-queue engine calls
    /// this once; the sharded engine calls it per conservative window.
    fn pump(&mut self, horizon: Ns) {
        self.window_horizon = horizon;
        loop {
            // Merge the soft schedule with the queue by `(time, seq)`:
            // both sides draw seqs from one counter, so this pop order is
            // the one queueing every item would give — the soft side just
            // doesn't pay queue events.
            let take_soft = match (
                self.soft.last().map(|s| (s.at, s.seq)),
                self.queue.peek_key(),
            ) {
                (Some(s), Some(q)) => s < q,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => return,
            };
            let t = if take_soft {
                self.soft.last().expect("non-empty soft schedule").at
            } else {
                self.queue.peek_time().expect("non-empty queue")
            };
            if t >= horizon {
                return;
            }
            self.dispatches += 1;
            assert!(
                self.dispatches < 2_000_000_000,
                "runaway simulation: {} dispatches",
                self.dispatches
            );
            if take_soft {
                let item = self.soft.pop().expect("non-empty soft schedule");
                self.soft_deliveries += 1;
                self.sim_now = item.at;
                self.dispatch_soft(item);
            } else {
                let (t, ev) = self.queue.pop().expect("non-empty queue");
                self.sim_now = t;
                if self.hot.incast {
                    if let Some(n) = self.ev_node(&ev) {
                        self.node_pending_remove(n, t);
                    }
                }
                self.dispatch_ev(t, ev);
            }
            // Coalesce everything the dispatch emitted into trains: one
            // fabric reservation per link burst, merged into the
            // destination's sink (or one soft train for intra-node bursts).
            self.flush_trains();
        }
    }

    /// The conservative-lookahead engine ([`EngineMode::Sharded`]):
    /// partition the world into `want` node-contiguous shards, run them in BSP
    /// windows one link latency wide, and exchange cross-node sink
    /// bursts at the window barriers. Any event a shard executes at `t <
    /// window_end = T_min + base_latency` can only influence another
    /// shard through the fabric, and the earliest such influence arrives
    /// at `t + base_latency ≥ window_end` — so every window's execution
    /// is causally closed and the result is bit-identical on any thread
    /// count (the partition depends only on the shard count).
    fn run_sharded(self, want: usize, debug: bool) -> RunResult {
        let started = std::time::Instant::now();
        // Positive: `ClusterConfig::validate` rejects a sharded run with
        // a zero base link latency.
        let lookahead = self.cfg.fabric.base_latency.0;
        let threads = self
            .cfg
            .threads
            .unwrap_or_else(pico_sim::default_threads)
            .clamp(1, want);
        let (shards, node_shard) = self.split_shards(want);
        let sync = WindowSync::new(threads, want);
        for (s, sh) in shards.iter().enumerate() {
            sync.set_next_key(s, sh.next_key_time());
        }
        sync.coordinate(lookahead);
        let inboxes: Vec<std::sync::Mutex<Vec<EdgeMsg>>> = (0..want)
            .map(|_| std::sync::Mutex::new(Vec::new()))
            .collect();
        let slots: Vec<std::sync::Mutex<Option<World>>> = shards
            .into_iter()
            .map(|s| std::sync::Mutex::new(Some(s)))
            .collect();
        std::thread::scope(|scope| {
            let (sync, inboxes, slots, node_shard) = (&sync, &inboxes, &slots, &node_shard);
            for w in 0..threads {
                scope.spawn(move || {
                    // Worker `w` owns shards w, w+threads, … for the
                    // whole run; ownership never moves, so the slot and
                    // inbox locks are never contended within a phase.
                    let mut owned: Vec<(usize, World)> = (w..slots.len())
                        .step_by(threads)
                        .map(|s| {
                            let sh = slots[s].lock().expect("shard slot");
                            (s, sh)
                        })
                        .map(|(s, mut guard)| (s, guard.take().expect("shard taken once")))
                        .collect();
                    let mut batch: Vec<EdgeMsg> = Vec::new();
                    while let Some(end) = sync.begin() {
                        for (_, sh) in owned.iter_mut() {
                            sh.pump(Ns(end));
                            for msg in sh.outbox.drain(..) {
                                let dst = node_shard[msg.dst_node] as usize;
                                inboxes[dst].lock().expect("inbox").push(msg);
                            }
                        }
                        sync.mid();
                        for (s, sh) in owned.iter_mut() {
                            std::mem::swap(&mut batch, &mut *inboxes[*s].lock().expect("inbox"));
                            sh.commit_inbox(&mut batch);
                            sync.set_next_key(*s, sh.next_key_time());
                        }
                        sync.finish();
                        if w == 0 {
                            sync.coordinate(lookahead);
                        }
                    }
                    for (s, sh) in owned {
                        *slots[s].lock().expect("shard slot") = Some(sh);
                    }
                });
            }
        });
        let shards: Vec<World> = slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .expect("shard slot")
                    .expect("worker returned its shards")
            })
            .collect();
        if debug {
            for sh in &shards {
                let d = sh.debug_stuck();
                if !d.is_empty() {
                    eprintln!("--- stuck ranks (shard {}) ---\n{d}", sh.shard_id);
                }
            }
        }
        let elapsed = started.elapsed().as_secs_f64();
        collect_many(shards, elapsed, threads as u32, want as u32)
    }

    /// Partition this (fresh, not-yet-run) world into `nshards`
    /// node-contiguous shards, each assembled by
    /// [`with_range`](Self::with_range) over its own node and rank
    /// range. Entity state (`ranks`, `nodes`) is chunked, and every
    /// per-rank counter and node-indexed vector is sized to the shard
    /// (`g - rank_base` / `node - node_base` indexing), so a shard's
    /// footprint is O(ranks/shards), not O(ranks). Each shard gets its
    /// own queue (the initial wakes rescheduled in rank order —
    /// `rank.clock` still holds the launch skew, and nothing else is
    /// pending this early), its own shard-local fabric (a shard only
    /// advances its own nodes' uplinks at injection and downlinks at
    /// commit, so gate state never races) and its own soft schedule.
    /// Returns the shards and the node → shard map.
    fn split_shards(mut self, nshards: usize) -> (Vec<World>, Vec<u32>) {
        assert_eq!(
            self.queue.events_processed(),
            0,
            "worlds must be split before running"
        );
        let nnodes = self.nodes.len();
        let rpn = self.hot.rpn;
        let base = nnodes / nshards;
        let rem = nnodes % nshards;
        let mut node_shard = vec![0u32; nnodes];
        let mut nodes_iter = std::mem::take(&mut self.nodes).into_iter();
        let mut ranks_iter = std::mem::take(&mut self.ranks).into_iter();
        let mut node_base = 0usize;
        let mut shards = Vec::with_capacity(nshards);
        for i in 0..nshards {
            let count = base + usize::from(i < rem);
            node_shard[node_base..node_base + count].fill(i as u32);
            let nodes: Vec<Node> = nodes_iter.by_ref().take(count).collect();
            let ranks: Vec<RankState> = ranks_iter.by_ref().take(count * rpn).collect();
            let mut shard =
                World::with_range(self.cfg.clone(), nodes, ranks, node_base * rpn, node_base);
            shard.shard_id = i as u32;
            shard.sharded = true;
            shards.push(shard);
            node_base += count;
        }
        (shards, node_shard)
    }

    /// Execute one soft-schedule item (its `node_pending` mark drops
    /// first, exactly like an event pop).
    fn dispatch_soft(&mut self, item: SoftItem) {
        match item.kind {
            SoftKind::Sink(i) => {
                self.node_pending_remove(i, item.at);
                let si = i - self.node_base;
                let members = std::mem::take(&mut self.sinks[si].members);
                self.sinks[si].pending = false;
                self.sinks[si].last_activity = item.at;
                self.on_packet_train(members, TrainSource::Sink(i));
                // The reaper disarms instead of polling while a delivery
                // is outstanding; now that `pending` cleared (or the
                // train paused and will come back through here), restore
                // the one armed timer the sink's linger close relies on.
                let s = &self.sinks[si];
                if (s.open || s.pending) && !s.reaper_armed {
                    let at = s.last_activity + self.cfg.flow_linger_ns;
                    self.sinks[si].reaper_armed = true;
                    self.schedule_ev(at, Ev::SinkClose { slot: i });
                }
            }
            SoftKind::Ev(ev) => {
                if let Some(n) = self.ev_node(&ev) {
                    self.node_pending_remove(n, item.at);
                }
                self.dispatch_ev(item.at, ev);
            }
        }
    }

    /// Dispatch one event (queued or soft) at time `t`.
    fn dispatch_ev(&mut self, t: Ns, ev: Ev) {
        match ev {
            Ev::Wake(r) => {
                if self.pending_wake[r - self.rank_base] == t {
                    self.pending_wake[r - self.rank_base] = Ns::MAX;
                }
                if !self.ranks[(r) - self.rank_base].done {
                    let now = t.max(self.ranks[(r) - self.rank_base].clock);
                    self.run_rank(r, now);
                }
            }
            Ev::Packet { dst, src, packet } => {
                if self.ranks[(dst) - self.rank_base].done {
                    return;
                }
                let busy_until = self.ranks[(dst) - self.rank_base].clock;
                if busy_until > t {
                    // Rank busy (computing or mid-offload): park the
                    // packet and make sure the rank gets poked. Storms
                    // of packets parking behind the same busy window
                    // coalesce into a single wake.
                    self.ranks[(dst) - self.rank_base].inbox.push((src, packet));
                    self.schedule_wake(dst, busy_until);
                } else {
                    let mut now = t;
                    self.deliver_packet(dst, src, packet, &mut now);
                    self.run_rank(dst, now);
                }
            }
            Ev::SdmaSent {
                rank,
                msg_id,
                window,
                va,
            } => {
                self.on_sdma_sent(rank, msg_id, window, va);
                let now = t.max(self.ranks[(rank) - self.rank_base].clock);
                if !self.ranks[(rank) - self.rank_base].done {
                    self.run_rank(rank, now);
                }
            }
            Ev::PacketTrain { members } => {
                self.on_packet_train(members, TrainSource::Event);
            }
            Ev::SdmaSentBatch { members } => {
                // Windows of one message complete together: advance each
                // endpoint once per `(rank, msg_id)` group instead of
                // once per window.
                let mut i = 0;
                while i < members.len() {
                    let mut j = i + 1;
                    while j < members.len()
                        && (members[j].rank, members[j].msg_id)
                            == (members[i].rank, members[i].msg_id)
                    {
                        j += 1;
                    }
                    self.on_sdma_sent_group(&members[i..j]);
                    i = j;
                }
                // One run per distinct sender rank, deduplicated by
                // epoch stamp — a rescan of the member prefix was
                // O(m²) in the batch width on the incast hot loop.
                self.sent_seen_epoch += 1;
                let epoch = self.sent_seen_epoch;
                for m in members.iter() {
                    if self.sent_seen[m.rank - self.rank_base] == epoch {
                        continue;
                    }
                    self.sent_seen[m.rank - self.rank_base] = epoch;
                    if !self.ranks[(m.rank) - self.rank_base].done {
                        let now = t.max(self.ranks[(m.rank) - self.rank_base].clock);
                        self.run_rank(m.rank, now);
                    }
                }
            }
            Ev::SinkClose { slot } => {
                self.on_sink_close(slot, t);
            }
        }
    }

    fn deliver_packet(&mut self, dst: usize, src: u32, packet: PsmPacket, now: &mut Ns) {
        // Receive-side copy-out cost for eager data (library copies from
        // the eager ring into the user buffer).
        if let PsmPacket::Eager { len, .. } = &packet {
            *now += transfer_time(*len, self.hot.copy_bw);
        }
        self.ranks[(dst) - self.rank_base].ep.on_packet(src, packet);
    }

    /// Run rank `r` from time `now` until it blocks, computes, or ends.
    fn run_rank(&mut self, r: usize, mut now: Ns) {
        loop {
            // Drain parked packets first, through the pooled scratch so
            // the park/drain cycle reuses one buffer's capacity.
            if !self.ranks[(r) - self.rank_base].inbox.is_empty() {
                let mut parked = std::mem::replace(
                    &mut self.ranks[(r) - self.rank_base].inbox,
                    std::mem::take(&mut self.inbox_scratch),
                );
                for (src, packet) in parked.drain(..) {
                    self.deliver_packet(r, src, packet, &mut now);
                }
                // The park/drain swap circulates capacity between every
                // rank's inbox and this pool — give back anything a burst
                // ballooned before it gets pinned to a rank for the run.
                shrink_scratch(&mut parked);
                self.inbox_scratch = parked;
            }
            self.flush_actions(r, &mut now);
            let res = {
                let rank = &mut self.ranks[(r) - self.rank_base];
                // Split borrow: engine vs ep vs bufs are disjoint fields.
                let RankState {
                    engine, ep, bufs, ..
                } = rank;
                engine.step(now, ep, bufs)
            };
            // Actions emitted by the step (and any completions they
            // produce) must be visible before we decide to sleep.
            let flushed = self.flush_actions(r, &mut now);
            match res {
                StepResult::Computing(d) => {
                    let real = self.ranks[(r) - self.rank_base].noise.perturb(d);
                    let wake = now + real;
                    self.ranks[(r) - self.rank_base].clock = wake;
                    self.schedule_wake(r, wake);
                    return;
                }
                StepResult::HostCall(op) => {
                    now = self.do_host_op(r, op, now);
                }
                StepResult::Blocked => {
                    let rank = &mut self.ranks[(r) - self.rank_base];
                    if !flushed && rank.inbox.is_empty() && !rank.ep.has_actions() {
                        rank.clock = now;
                        return;
                    }
                    // Something moved (a completion landed in the flush,
                    // or packets are parked): give the engine another go.
                }
                StepResult::Done => {
                    let rank = &mut self.ranks[(r) - self.rank_base];
                    rank.done = true;
                    rank.clock = now;
                    return;
                }
            }
        }
    }

    /// Execute all pending PSM actions of rank `r`, advancing its clock.
    /// Returns whether any action was processed.
    fn flush_actions(&mut self, r: usize, now: &mut Ns) -> bool {
        if !self.ranks[(r) - self.rank_base].ep.has_actions() {
            return false;
        }
        // Pooled scratch: actions drain into one reused vector instead of
        // a fresh allocation per flush (the former per-send hot cost).
        let mut actions = std::mem::take(&mut self.action_scratch);
        loop {
            self.ranks[(r) - self.rank_base]
                .ep
                .drain_actions_into(&mut actions);
            if actions.is_empty() {
                break;
            }
            for a in actions.drain(..) {
                self.handle_action(r, a, now);
            }
        }
        self.action_scratch = actions;
        true
    }

    /// Add a packet to the train accumulator bucket of its link, located
    /// through the open-addressed [`LinkIndex`] (O(1) expected; the old
    /// pairwise scan of `pending_trains` was O(links) *per member*, which
    /// alltoall dispatches at scale turned into a quadratic hot spot).
    fn enqueue_member(&mut self, src_node: usize, dst_node: usize, mut m: PendingMember) {
        m.seq = self.emit_seq;
        self.emit_seq += 1;
        if let Some(b) = self.link_index.get(src_node, dst_node) {
            debug_assert!(
                self.pending_trains[b].0 == src_node && self.pending_trains[b].1 == dst_node
            );
            self.pending_trains[b].2.push(m);
            return;
        }
        self.link_index
            .insert(src_node, dst_node, self.pending_trains.len());
        let mut v = self.member_pool.pop().unwrap_or_default();
        v.push(m);
        self.pending_trains.push((src_node, dst_node, v));
    }

    /// Turn everything the last event dispatch emitted into trains: one
    /// fabric reservation per `(src_node, dst_node)` burst, merged into
    /// the destination's sink or delivered as one soft item (members in
    /// accumulation order, the same order the per-packet path would have
    /// reserved the link in).
    fn flush_trains(&mut self) {
        if self.pending_trains.is_empty() {
            return;
        }
        let mut trains = std::mem::take(&mut self.pending_trains);
        // The index refers to the buckets just taken; reset it before any
        // (hypothetical) re-accumulation.
        self.link_index.clear();
        for (src_node, dst_node, members) in &mut trains {
            self.flush_one_train(*src_node, *dst_node, members);
            debug_assert!(members.is_empty());
            let mut v = std::mem::take(members);
            shrink_scratch(&mut v);
            self.member_pool.push(v);
        }
        // Scheduling events never emits packets, so nothing accumulated
        // while flushing; keep the outer allocation warm.
        debug_assert!(self.pending_trains.is_empty());
        trains.clear();
        self.pending_trains = trains;
        self.flush_completions();
    }

    /// Service the flush's sender-side completion IRQs on the Linux
    /// cores in global emission order (the exact submission order of
    /// the per-packet path, even when the flush spanned several links),
    /// then fire one event per `(rank, msg_id)` group at its last
    /// window's finish — the only completion an in-order pipelined
    /// sender can act on. A single-window message keeps its own event,
    /// so its completion time is unchanged by batching.
    fn flush_completions(&mut self) {
        if self.sent_scratch.is_empty() {
            return;
        }
        let mut sent = std::mem::take(&mut self.sent_scratch);
        sent.sort_by_key(|&(seq, ..)| seq);
        let mut i = 0;
        while i < sent.len() {
            let (_, node, start, cpu, first) = sent[i];
            let mut at = self.nodes[(node) - self.node_base]
                .delegator
                .service(start, cpu)
                .finish;
            let mut j = i + 1;
            while j < sent.len() {
                let (_, n2, s2, c2, m2) = sent[j];
                if (m2.rank, m2.msg_id) != (first.rank, first.msg_id) {
                    break;
                }
                debug_assert_eq!(n2, node, "one message stays on one node");
                at = at.max(
                    self.nodes[(n2) - self.node_base]
                        .delegator
                        .service(s2, c2)
                        .finish,
                );
                j += 1;
            }
            let ev = if j - i == 1 {
                Ev::SdmaSent {
                    rank: first.rank,
                    msg_id: first.msg_id,
                    window: first.window,
                    va: first.va,
                }
            } else {
                let group: Vec<SentMember> = sent[i..j].iter().map(|&(.., m)| m).collect();
                Ev::SdmaSentBatch { members: group }
            };
            self.push_soft(at, SoftKind::Ev(ev));
            i = j;
        }
        sent.clear();
        shrink_scratch(&mut sent);
        self.sent_scratch = sent;
    }

    /// Fold one delivery schedule into the order-independent arrival
    /// digest (see [`RunResult::arrival_digest`]): a splitmix64-finalized
    /// hash of the member identity, accumulated with a commutative sum so
    /// dispatch interleaving cannot change it.
    #[inline]
    fn digest_arrival(&mut self, arrival: Ns, dst: usize, src: u32, bytes: u64) {
        #[inline]
        fn mix(mut x: u64) -> u64 {
            x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            x ^ (x >> 31)
        }
        let id = mix(((dst as u64) << 40) ^ ((src as u64) << 16) ^ bytes);
        let h = mix(arrival.0 ^ id);
        self.arrival_digest = self.arrival_digest.wrapping_add(h);
        if bytes >= 1024 {
            self.arrival_digest_bulk = self.arrival_digest_bulk.wrapping_add(h);
        }
        // Same stream, constant memory: the delivery latency (schedule →
        // arrival) lands in this shard's sketch; full rows only when an
        // explicit trace sink was requested via `PICO_TRACE_ARRIVALS`.
        self.arrival_sketch
            .record(arrival.0.saturating_sub(self.sim_now.0));
        if let Some((_, trace)) = &mut self.arrival_trace {
            let now = self.sim_now.0;
            trace.push((now, dst, src, bytes, arrival.0));
        }
    }

    /// Collect the sender-side completion IRQs of a burst whose members
    /// left the uplink at `injected`; they are serviced in global
    /// emission order by `flush_completions` once every train of the
    /// flush has its fabric schedule.
    fn collect_completions(
        &mut self,
        src_node: usize,
        members: &[PendingMember],
        injected: impl Iterator<Item = Ns>,
    ) {
        for (m, at) in members.iter().zip(injected) {
            if let Some((rank, msg_id, window, va, cpu)) = m.completion {
                self.sent_scratch.push((
                    m.seq,
                    src_node,
                    at + self.lc.irq_entry,
                    cpu,
                    SentMember {
                        rank,
                        msg_id,
                        window,
                        va,
                    },
                ));
            }
        }
    }

    fn flush_one_train(
        &mut self,
        src_node: usize,
        dst_node: usize,
        members: &mut Vec<PendingMember>,
    ) {
        let mut fm = std::mem::take(&mut self.fabric_member_scratch);
        fm.clear();
        fm.extend(members.iter().map(|m| TrainMember {
            at: m.at,
            bytes: m.bytes,
            nreqs: m.nreqs,
        }));
        // Inter-node link: the burst extends the destination's merged
        // sink instead of becoming its own train. Intra-node
        // (shared-memory) arrivals are not monotone across dispatches, so
        // those bursts stay per-flush trains — on the soft schedule.
        if src_node != dst_node {
            self.flush_sink_burst(src_node, dst_node, &fm, members);
        } else {
            self.flush_intra_train(src_node, &fm, members);
        }
        fm.clear();
        self.fabric_member_scratch = fm;
    }

    /// One shared-memory burst: one fabric call for the whole burst,
    /// delivered as a plain packet (singleton) or one soft train at its
    /// first arrival.
    fn flush_intra_train(
        &mut self,
        node: usize,
        fm: &[TrainMember],
        members: &mut Vec<PendingMember>,
    ) {
        let mut scheds = std::mem::take(&mut self.sched_scratch);
        scheds.clear();
        self.fabric.transfer_train(node, node, fm, &mut scheds);
        for (m, sched) in members.iter().zip(&scheds) {
            self.digest_arrival(sched.arrival, m.dst, m.src, m.bytes);
        }
        self.collect_completions(node, members, scheds.iter().map(|s| s.injected));
        if members.len() == 1 {
            let m = members.pop().expect("one member");
            self.push_soft(
                scheds[0].arrival,
                SoftKind::Ev(Ev::Packet {
                    dst: m.dst,
                    src: m.src,
                    packet: m.packet,
                }),
            );
        } else {
            let mut packets: Vec<TrainPacket> = members
                .drain(..)
                .zip(scheds.iter())
                .map(|(m, s)| TrainPacket {
                    arrival: s.arrival,
                    seq: m.seq,
                    dst: m.dst,
                    src: m.src,
                    packet: m.packet,
                })
                .collect();
            // The shared-memory path is not FIFO when emissions
            // interleave: keep delivery in time order (stable, so ties
            // keep link order).
            packets.sort_by_key(|p| p.arrival);
            let first = packets[0].arrival;
            self.push_soft(first, SoftKind::Ev(Ev::PacketTrain { members: packets }));
        }
        scheds.clear();
        self.sched_scratch = scheds;
    }

    /// Finalize the open sink of node `idx` (stats identity only:
    /// undelivered members stay in place and a successor reuses the
    /// slot).
    fn close_sink(&mut self, idx: usize) {
        let si = idx - self.node_base;
        if self.sinks[si].open {
            self.max_sink_len = self.max_sink_len.max(self.sinks[si].len);
            self.sinks[si].open = false;
            self.sinks[si].len = 0;
        }
    }

    /// One inter-node burst from `src_node` to `dst_node`'s sink. The
    /// source half runs here in both engines: commit the burst on the
    /// source's uplink gate ([`Fabric::sink_inject`]) and collect the
    /// sender completions. The destination half is
    /// [`commit_sink`](Self::commit_sink): inline in a single-queue run;
    /// in a sharded run the members ship with their uplink schedules to
    /// the destination shard's inbox and commit at the window barrier
    /// ([`commit_edge_msg`](Self::commit_edge_msg)). Conservative
    /// lookahead guarantees the commit lands before any arrival can
    /// matter (arrival ≥ emit time + base latency = the lookahead).
    fn flush_sink_burst(
        &mut self,
        src_node: usize,
        dst_node: usize,
        fm: &[TrainMember],
        members: &mut Vec<PendingMember>,
    ) {
        let mut inj = std::mem::take(&mut self.inj_scratch);
        inj.clear();
        self.fabric.sink_inject(src_node, fm, &mut inj);
        self.collect_completions(src_node, members, inj.iter().map(|i| i.up_finish));
        if self.sharded {
            let ms: Vec<EdgeMember> = members
                .drain(..)
                .zip(inj.drain(..))
                .map(|(m, i)| EdgeMember {
                    inj: i,
                    dst: m.dst,
                    src: m.src,
                    packet: m.packet,
                })
                .collect();
            self.emit_order += 1;
            self.outbox.push(EdgeMsg {
                emit_at: self.sim_now,
                src_shard: self.shard_id,
                emit_order: self.emit_order,
                dst_node,
                members: ms,
            });
        } else {
            let members = members.drain(..).map(|m| (m.dst, m.src, m.packet));
            self.commit_sink(self.sim_now, dst_node, &inj, members);
        }
        inj.clear();
        shrink_scratch(&mut inj);
        self.inj_scratch = inj;
    }

    /// Commit every burst shipped to this shard during the window, in
    /// the global order `(emit time, source shard, per-shard emission
    /// counter)` — identical on every thread count.
    fn commit_inbox(&mut self, msgs: &mut Vec<EdgeMsg>) {
        msgs.sort_unstable_by_key(|m| (m.emit_at, m.src_shard, m.emit_order));
        for msg in msgs.drain(..) {
            self.commit_edge_msg(msg);
        }
    }

    /// The destination half of a cross-shard burst, replayed at its
    /// emit time.
    fn commit_edge_msg(&mut self, msg: EdgeMsg) {
        self.sim_now = msg.emit_at;
        let mut inj = std::mem::take(&mut self.inj_scratch);
        inj.clear();
        inj.extend(msg.members.iter().map(|m| m.inj));
        let members = msg.members.into_iter().map(|m| (m.dst, m.src, m.packet));
        self.commit_sink(msg.emit_at, msg.dst_node, &inj, members);
        inj.clear();
        shrink_scratch(&mut inj);
        self.inj_scratch = inj;
    }

    /// The destination half of every inter-node burst, in both engines:
    /// merge already-injected `members` (`(dst rank, src rank, packet)`,
    /// uplink schedules in `inj`) into `dst_node`'s destination-rooted
    /// sink at time `now`. Lazily closes the sink (every source idled
    /// past the linger, or the member cap would be breached) and opens a
    /// successor, continues the sink's cumulative downlink reservation
    /// ([`Fabric::sink_commit`]) — so arrivals are bit-identical to
    /// per-packet transfers committed in the same order — and makes sure
    /// one soft delivery entry and one reaper timer cover the sink.
    ///
    /// Cross-source arrivals are not monotone in commit order, so new
    /// members *merge* into the pending vector by `(arrival, seq)`, and
    /// the sink's single soft entry is re-keyed when the merge
    /// introduces an earlier head. Member seqs come from `commit_seq`
    /// (monotone in commit order); every flush has a single source node
    /// and so at most one burst per sink, which makes commit order equal
    /// emission order for the members of any one sink.
    fn commit_sink(
        &mut self,
        now: Ns,
        dst_node: usize,
        inj: &[SinkInjection],
        members: impl Iterator<Item = (usize, u32, PsmPacket)>,
    ) {
        let linger = self.cfg.flow_linger_ns;
        // `idx` keys the soft schedule / reaper / `node_pending` (global
        // node id); `si` indexes the own-range sink vector.
        let idx = dst_node;
        let si = idx - self.node_base;
        if self.sinks[si].open {
            let s = &self.sinks[si];
            let idled = !s.pending && now > s.last_activity + linger;
            let capped = s.len as usize + inj.len() > self.cfg.flow_member_cap;
            if idled || capped {
                self.close_sink(idx);
            }
        }
        if !self.sinks[si].open {
            self.sinks[si].open = true;
            self.sinks_opened += 1;
        }
        let mut scheds = std::mem::take(&mut self.sched_scratch);
        scheds.clear();
        let prior = self.sinks[si].len;
        self.fabric.sink_commit(idx, inj, prior, &mut scheds);
        let n = inj.len() as u64;
        // One burst is single-source, so its arrivals are monotone; only
        // the boundary against members already pending (other sources)
        // can put the new head out of order.
        let merge_needed = self.sinks[si]
            .members
            .last()
            .is_some_and(|tail| (scheds[0].arrival, self.commit_seq) < (tail.arrival, tail.seq));
        for (((dst, src, packet), s), i) in members.zip(&scheds).zip(inj) {
            self.digest_arrival(s.arrival, dst, src, i.bytes);
            let seq = self.commit_seq;
            self.commit_seq += 1;
            self.sinks[si].members.push(TrainPacket {
                arrival: s.arrival,
                seq,
                dst,
                src,
                packet,
            });
        }
        if merge_needed {
            // `seq` is unique per world, so the key is total — unstable
            // sort is deterministic.
            self.sinks[si]
                .members
                .sort_unstable_by_key(|p| (p.arrival, p.seq));
        }
        self.sinks[si].len += n;
        self.sink_members_total += n;
        self.max_sink_len = self.max_sink_len.max(self.sinks[si].len);
        self.sinks[si].last_activity = now;
        let head = self.sinks[si].members[0].arrival;
        if !self.sinks[si].pending {
            self.sinks[si].pending = true;
            self.sinks[si].entry_at = head;
            self.push_soft(head, SoftKind::Sink(idx));
        } else if head < self.sinks[si].entry_at {
            // The merge put an earlier member at the head: re-key the
            // sink's soft entry (and its `node_pending` mark) to the new
            // first arrival, or the delivery would fire late.
            let old = self.sinks[si].entry_at;
            let pos = self
                .soft
                .iter()
                .position(|s| matches!(s.kind, SoftKind::Sink(j) if j == idx))
                .expect("pending sink has a soft entry");
            self.soft.remove(pos);
            self.node_pending_remove(idx, old);
            self.sinks[si].entry_at = head;
            self.push_soft(head, SoftKind::Sink(idx));
        }
        if !self.sinks[si].reaper_armed {
            self.sinks[si].reaper_armed = true;
            self.schedule_ev(now + linger, Ev::SinkClose { slot: idx });
        }
        scheds.clear();
        self.sched_scratch = scheds;
    }

    /// The `Ev::SinkClose` reaper, fired at `t`: close the sink if every
    /// source feeding it has idled past the linger; re-arm while it is
    /// active; disarm for good once the sink is closed, so an idle node
    /// costs no further events. One timer covers the whole incast.
    fn on_sink_close(&mut self, slot: usize, t: Ns) {
        let linger = self.cfg.flow_linger_ns;
        let si = slot - self.node_base;
        let s = &self.sinks[si];
        let (pending, last, open) = (s.pending, s.last_activity, s.open);
        if pending {
            // An outstanding delivery blocks the close, and its dispatch
            // re-arms the timer once `pending` clears — disarm rather
            // than poll every linger until then. (Launch-skew deferrals
            // hold `pending` for whole milliseconds; polling them used
            // to dominate the queue-event count.)
            self.sinks[si].reaper_armed = false;
            return;
        }
        if open && t < last + linger {
            self.schedule_ev(last + linger, Ev::SinkClose { slot });
            return;
        }
        self.sinks[si].reaper_armed = false;
        self.close_sink(slot);
    }

    /// Deliver a train's members in arrival order, preserving the
    /// per-packet semantics member by member:
    ///
    /// * a member due **now** (the event timestamp) reaches its
    ///   destination exactly like a plain `Ev::Packet` would: an idle
    ///   rank takes it, a busy rank parks it behind one coalesced wake;
    /// * a rank that took a member keeps taking its later members this
    ///   dispatch — it is inside the MPI library, consuming the train
    ///   as it drains off the wire;
    /// * a future arrival for a rank the dispatch has not engaged (or
    ///   one that would outrun a parked rank's pending wake) must not
    ///   be delivered early or out of order: the remainder of the train
    ///   is handed back — to the soft schedule for a plain train, or
    ///   into the sink slot (lazy resplit) for a sink.
    fn on_packet_train(&mut self, members: Vec<TrainPacket>, source: TrainSource) {
        self.train_epoch += 1;
        let epoch = self.train_epoch;
        let t = members[0].arrival;
        let mut engaged = std::mem::take(&mut self.engaged_scratch);
        engaged.clear();
        let mut it = members.into_iter();
        while let Some(m) = it.next() {
            let dst = m.dst;
            if self.ranks[(dst) - self.rank_base].done {
                continue;
            }
            if self.train_delivered[dst - self.rank_base] == epoch
                && self.continuation_clear(dst, m.arrival)
            {
                // The rank is inside the library and nothing touching its
                // node is due before this member drains off the wire:
                // consume it in this dispatch, replaying the park-and-drain
                // semantics the per-packet path would apply event by event.
                // (With a same-node event pending in between, the remainder
                // is resplit below instead — the reference model would have
                // dispatched that event first, and its fabric/IRQ
                // reservations and inbox pushes must stay ahead of ours.
                // Events on other nodes commute with the continuation:
                // their gates, SDMA engines, and inboxes are disjoint.)
                let mut member = Some((m.src, m.packet));
                while let Some((src, packet)) = member.take() {
                    let clock = self.ranks[(dst) - self.rank_base].clock;
                    if m.arrival < clock {
                        // Arrives mid-processing: parks, like a packet
                        // event popping while the rank is busy. Drained
                        // at the coalesced wake — emulated by the next
                        // idle-time member, or made real at dispatch end.
                        self.ranks[(dst) - self.rank_base].inbox.push((src, packet));
                    } else if !self.ranks[(dst) - self.rank_base].inbox.is_empty() {
                        // The parked prefix's wake (at `clock`) pops
                        // before this member's arrival: drain it first.
                        self.run_rank(dst, clock);
                        member = Some((src, packet));
                    } else {
                        self.ranks[(dst) - self.rank_base].inbox.push((src, packet));
                        self.run_rank(dst, m.arrival);
                    }
                }
                continue;
            }
            let parked = self.train_parked[dst - self.rank_base] == epoch;
            if parked && m.arrival <= self.train_park_clock[dst - self.rank_base] {
                self.ranks[(dst) - self.rank_base]
                    .inbox
                    .push((m.src, m.packet));
                continue;
            }
            if !parked && m.arrival <= t {
                let clock = self.ranks[(dst) - self.rank_base].clock;
                if clock <= t {
                    self.train_delivered[dst - self.rank_base] = epoch;
                    engaged.push(dst);
                    self.ranks[(dst) - self.rank_base]
                        .inbox
                        .push((m.src, m.packet));
                    self.run_rank(dst, t);
                } else {
                    self.ranks[(dst) - self.rank_base]
                        .inbox
                        .push((m.src, m.packet));
                    self.train_parked[dst - self.rank_base] = epoch;
                    self.train_park_clock[dst - self.rank_base] = clock;
                    self.schedule_wake(dst, clock);
                }
                continue;
            }
            // A member the dispatch cannot consume — a pending same-node
            // item must interleave first, or it would outrun a parked
            // rank's pending wake: the delivered prefix stays consumed
            // and the remainder is handed back at its arrival. How the
            // remainder goes back is what the resplit accounting splits:
            // a plain train *re-commits* it as a fresh scheduler item (a
            // fresh dispatch), while a sink's suffix stays in its slot and
            // merely re-defers the soft entry (a lazy pause, accumulator
            // preserved).
            let rest: Vec<TrainPacket> = std::iter::once(m).chain(it).collect();
            let at = rest[0].arrival;
            match source {
                TrainSource::Sink(i) => {
                    // Lazy resplit: only the suffix after the conflict
                    // (members from every source, still merged) goes back
                    // into the sink and re-defers as its single soft
                    // entry; later appends extend it in place.
                    self.sink_pauses += 1;
                    let si = i - self.node_base;
                    debug_assert!(self.sinks[si].members.is_empty());
                    self.sinks[si].entry_at = at;
                    self.sinks[si].members = rest;
                    self.sinks[si].pending = true;
                    self.push_soft(at, SoftKind::Sink(i));
                }
                TrainSource::Event if rest.len() == 1 => {
                    self.resplits += 1;
                    let p = rest.into_iter().next().expect("one member");
                    self.push_soft(
                        at,
                        SoftKind::Ev(Ev::Packet {
                            dst: p.dst,
                            src: p.src,
                            packet: p.packet,
                        }),
                    );
                }
                TrainSource::Event => {
                    self.resplits += 1;
                    self.push_soft(at, SoftKind::Ev(Ev::PacketTrain { members: rest }));
                }
            }
            break;
        }
        // Members parked during greedy continuation never got their
        // drain emulated: give them the coalesced wake the per-packet
        // path would have scheduled — run inline when the node is clear
        // up to the wake time (no event spent), as a real event when the
        // reference model would dispatch something else first.
        for dst in engaged.drain(..) {
            if !self.ranks[(dst) - self.rank_base].done
                && !self.ranks[(dst) - self.rank_base].inbox.is_empty()
            {
                let clock = self.ranks[(dst) - self.rank_base].clock;
                if self.continuation_clear(dst, clock) {
                    self.run_rank(dst, clock);
                } else {
                    self.schedule_wake(dst, clock);
                }
            }
        }
        self.engaged_scratch = engaged;
    }

    fn handle_action(&mut self, r: usize, a: PsmAction, now: &mut Ns) {
        match a {
            PsmAction::PioSend { dst, packet } => {
                let bytes = packet.wire_bytes();
                *now += self.hot.pio_base + transfer_time(bytes, self.hot.pio_bw);
                let src_node = self.ranks[(r) - self.rank_base].node;
                // Arithmetic node lookup: the destination rank may live
                // on another shard, so its state cannot be touched here.
                let dst_node = dst as usize / self.hot.rpn;
                // PIO packets ride the wire in ~8 KB chunks.
                let nreqs = bytes.div_ceil(8 * 1024).max(1);
                self.nodes[(src_node) - self.node_base].chip.record_pio();
                let src = self.ranks[(r) - self.rank_base].engine.rank();
                if self.hot.incast {
                    self.enqueue_member(
                        src_node,
                        dst_node,
                        PendingMember {
                            seq: 0, // assigned by enqueue_member
                            at: *now,
                            dst: dst as usize,
                            src,
                            bytes,
                            nreqs,
                            packet,
                            completion: None,
                        },
                    );
                } else {
                    let sched = self.fabric.transfer(*now, src_node, dst_node, bytes, nreqs);
                    self.digest_arrival(sched.arrival, dst as usize, src, bytes);
                    self.schedule_ev(
                        sched.arrival,
                        Ev::Packet {
                            dst: dst as usize,
                            src,
                            packet,
                        },
                    );
                }
            }
            PsmAction::TidRegister {
                src,
                msg_id,
                window,
                va,
                len,
            } => {
                let tids = self.sys_tid_register(r, VirtAddr(va), len, now);
                self.ranks[(r) - self.rank_base]
                    .ep
                    .on_tid_registered(src, msg_id, window, tids);
            }
            PsmAction::TidUnregister { tids, va, len, .. } => {
                self.sys_tid_unregister(r, VirtAddr(va), len, &tids, now);
            }
            PsmAction::SdmaSend {
                dst,
                msg_id,
                window,
                va,
                len,
                payload,
            } => {
                self.sys_sdma_send(r, dst, msg_id, window, VirtAddr(va), len, payload, now);
            }
            PsmAction::Completed { handle, payload } => {
                if let Some(p) = payload.as_deref() {
                    self.delivered_payloads += 1;
                    // Verify the wrapping-increment pattern now and keep
                    // only counters — buffering every payload per rank
                    // until collection held O(delivered bytes) live for
                    // the whole run.
                    self.payloads_checked += 1;
                    if let Some(&base) = p.first() {
                        if p.iter()
                            .enumerate()
                            .any(|(i, &b)| b != base.wrapping_add(i as u8))
                        {
                            self.payload_errors += 1;
                        }
                    }
                }
                self.ranks[(r) - self.rank_base]
                    .engine
                    .on_completion(handle);
            }
        }
    }

    // ---- kernel operation executors ---------------------------------------

    fn sys_tid_register(&mut self, r: usize, va: VirtAddr, len: u64, now: &mut Ns) -> Vec<u16> {
        let start = *now;
        let node = self.ranks[(r) - self.rank_base].node;
        let (tids, route_done) = match self.hot.os {
            OsConfig::Linux => {
                let rank = &mut self.ranks[(r) - self.rank_base];
                let node = &mut self.nodes[(node) - self.node_base];
                let reg = node
                    .driver
                    .tid_update(
                        &mut node.chip,
                        &mut rank.space,
                        rank.dev_handle,
                        va,
                        len,
                        &self.lc,
                    )
                    .expect("TID registration failed");
                let cpu = self.lc.syscall_entry + self.lc.vfs_dispatch + reg.cpu;
                (reg.tids, *now + cpu)
            }
            OsConfig::McKernel => {
                let rank = &mut self.ranks[(r) - self.rank_base];
                let noderef = &mut self.nodes[(node) - self.node_base];
                let reg = noderef
                    .driver
                    .tid_update(
                        &mut noderef.chip,
                        &mut rank.space,
                        rank.dev_handle,
                        va,
                        len,
                        &self.lc,
                    )
                    .expect("TID registration failed");
                let service = self.lc.syscall_entry + self.lc.vfs_dispatch + reg.cpu;
                let grant = noderef.delegator.offload(*now, Sysno::Ioctl, service);
                (reg.tids, grant.complete)
            }
            OsConfig::McKernelHfi => {
                let rank = &mut self.ranks[(r) - self.rank_base];
                let noderef = &mut self.nodes[(node) - self.node_base];
                let fast = noderef.fast.as_mut().expect("fast path present");
                let reg = fast
                    .tid_update(&mut noderef.chip, &rank.space, rank.ctxt, va, len)
                    .expect("fast TID registration failed");
                (reg.tids, *now + reg.cpu)
            }
        };
        *now = route_done;
        self.ranks[(r) - self.rank_base]
            .kprof
            .record(Sysno::Ioctl, *now - start);
        tids
    }

    fn sys_tid_unregister(&mut self, r: usize, va: VirtAddr, len: u64, tids: &[u16], now: &mut Ns) {
        let start = *now;
        let node = self.ranks[(r) - self.rank_base].node;
        match self.hot.os {
            OsConfig::Linux => {
                let rank = &mut self.ranks[(r) - self.rank_base];
                let noderef = &mut self.nodes[(node) - self.node_base];
                let cpu = noderef
                    .driver
                    .tid_free(
                        &mut noderef.chip,
                        &mut rank.space,
                        rank.dev_handle,
                        va,
                        tids,
                    )
                    .expect("TID free failed");
                *now += self.lc.syscall_entry + self.lc.vfs_dispatch + cpu;
            }
            OsConfig::McKernel => {
                let rank = &mut self.ranks[(r) - self.rank_base];
                let noderef = &mut self.nodes[(node) - self.node_base];
                let cpu = noderef
                    .driver
                    .tid_free(
                        &mut noderef.chip,
                        &mut rank.space,
                        rank.dev_handle,
                        va,
                        tids,
                    )
                    .expect("TID free failed");
                let service = self.lc.syscall_entry + self.lc.vfs_dispatch + cpu;
                let grant = noderef.delegator.offload(*now, Sysno::Ioctl, service);
                *now = grant.complete;
            }
            OsConfig::McKernelHfi => {
                let rank = &mut self.ranks[(r) - self.rank_base];
                let noderef = &mut self.nodes[(node) - self.node_base];
                let fast = noderef.fast.as_mut().expect("fast path present");
                let cpu = fast
                    .tid_free(&mut noderef.chip, rank.ctxt, va, len, tids, false)
                    .expect("fast TID free failed");
                *now += cpu;
            }
        }
        self.ranks[(r) - self.rank_base]
            .kprof
            .record(Sysno::Ioctl, *now - start);
    }

    #[allow(clippy::too_many_arguments)]
    fn sys_sdma_send(
        &mut self,
        r: usize,
        dst: u32,
        msg_id: u64,
        window: u32,
        va: VirtAddr,
        len: u64,
        payload: Option<Vec<u8>>,
        now: &mut Ns,
    ) {
        let start = *now;
        let node_idx = self.ranks[(r) - self.rank_base].node;
        let (sub, wire_start): (SdmaSubmission, Ns) = match self.hot.os {
            OsConfig::Linux => {
                let rank = &mut self.ranks[(r) - self.rank_base];
                let noderef = &mut self.nodes[(node_idx) - self.node_base];
                let sub = noderef
                    .driver
                    .sdma_writev(
                        &mut noderef.chip,
                        &mut rank.space,
                        rank.dev_handle,
                        va,
                        len,
                        &self.lc,
                    )
                    .expect("writev failed");
                let cpu = self.lc.syscall_entry + self.lc.vfs_dispatch + sub.cpu;
                *now += cpu;
                (sub, *now)
            }
            OsConfig::McKernel => {
                let rank = &mut self.ranks[(r) - self.rank_base];
                let noderef = &mut self.nodes[(node_idx) - self.node_base];
                let sub = noderef
                    .driver
                    .sdma_writev(
                        &mut noderef.chip,
                        &mut rank.space,
                        rank.dev_handle,
                        va,
                        len,
                        &self.lc,
                    )
                    .expect("writev failed");
                let service = self.lc.syscall_entry + self.lc.vfs_dispatch + sub.cpu;
                let grant = noderef.delegator.offload(*now, Sysno::Writev, service);
                *now = grant.complete;
                (sub, grant.linux_done)
            }
            OsConfig::McKernelHfi => {
                let rank = &mut self.ranks[(r) - self.rank_base];
                let noderef = &mut self.nodes[(node_idx) - self.node_base];
                let fast = noderef.fast.as_mut().expect("fast path present");
                // Cross-kernel read of the live driver engine state via
                // DWARF-extracted offsets.
                let state = noderef.driver.sdma_state(0).bytes();
                let sub = fast
                    .sdma_writev(&mut noderef.chip, &rank.space, state, va, len, 0)
                    .expect("fast writev failed");
                *now += sub.cpu;
                // Allocate completion metadata from the LWK per-core pool
                // (freed later from a Linux CPU via the ported callback).
                if let Some(alloc) = noderef.lwk_alloc.as_ref() {
                    if let Ok(block) = alloc.alloc(rank.local as usize) {
                        rank.meta.insert((msg_id, window), block);
                    }
                }
                (sub, *now)
            }
        };
        self.ranks[(r) - self.rank_base]
            .kprof
            .record(Sysno::Writev, *now - start);
        // Wire the window to the destination node (arithmetically: the
        // destination rank may belong to a different shard).
        let dst_node = dst as usize / self.hot.rpn;
        let packet = PsmPacket::SdmaData {
            msg_id,
            window,
            len,
            payload,
        };
        // Sender-side completion IRQ: handled on the Linux service cores
        // (McKernel handles no device interrupts).
        let completion_cpu = self.nodes[(node_idx) - self.node_base]
            .driver
            .costs()
            .completion
            + self.lc.kmalloc_pair;
        if self.hot.incast {
            // Pipelined windows of one flush ride the wire as a train;
            // the IRQ is serviced (and the delegator charged) when the
            // train's fabric schedule is known, at flush time.
            self.enqueue_member(
                node_idx,
                dst_node,
                PendingMember {
                    seq: 0, // assigned by enqueue_member
                    at: wire_start,
                    dst: dst as usize,
                    src: self.ranks[(r) - self.rank_base].engine.rank(),
                    bytes: len + 64,
                    nreqs: sub.nreqs,
                    packet,
                    completion: Some((r, msg_id, window, va.0, completion_cpu)),
                },
            );
            return;
        }
        let sched = self
            .fabric
            .transfer(wire_start, node_idx, dst_node, len + 64, sub.nreqs);
        let src_rank = self.ranks[(r) - self.rank_base].engine.rank();
        self.digest_arrival(sched.arrival, dst as usize, src_rank, len + 64);
        self.schedule_ev(
            sched.arrival,
            Ev::Packet {
                dst: dst as usize,
                src: src_rank,
                packet,
            },
        );
        let grant = self.nodes[(node_idx) - self.node_base]
            .delegator
            .service(sched.injected + self.lc.irq_entry, completion_cpu);
        self.schedule_ev(
            grant.finish,
            Ev::SdmaSent {
                rank: r,
                msg_id,
                window,
                va: va.0,
            },
        );
    }

    fn on_sdma_sent(&mut self, r: usize, msg_id: u64, window: u32, va: u64) {
        self.sdma_complete_kernel(r, msg_id, window, va);
        self.ranks[(r) - self.rank_base]
            .ep
            .on_sdma_sent(msg_id, window);
    }

    /// Batched sender-side completions for one `(rank, msg_id)` group:
    /// the kernel-side callback runs per window (each IRQ frees its own
    /// metadata), but the endpoint's progress state advances once for the
    /// whole group.
    fn on_sdma_sent_group(&mut self, members: &[SentMember]) {
        for m in members {
            self.sdma_complete_kernel(m.rank, m.msg_id, m.window, m.va);
        }
        let first = members[0];
        self.ranks[(first.rank) - self.rank_base]
            .ep
            .on_sdma_sent_batch(first.msg_id, members.len() as u32);
    }

    /// Kernel/driver half of an SDMA completion IRQ (everything but the
    /// endpoint progress update).
    fn sdma_complete_kernel(&mut self, r: usize, msg_id: u64, window: u32, va: u64) {
        let node_idx = self.ranks[(r) - self.rank_base].node;
        match self.hot.os {
            OsConfig::Linux | OsConfig::McKernel => {
                // The original completion callback: unpin + Linux kfree.
                let rank = &mut self.ranks[(r) - self.rank_base];
                let noderef = &mut self.nodes[(node_idx) - self.node_base];
                let _ = noderef.driver.sdma_complete(
                    &mut rank.space,
                    rank.dev_handle,
                    VirtAddr(va),
                    &self.lc,
                );
            }
            OsConfig::McKernelHfi => {
                // The duplicated callback in McKernel TEXT, invoked from
                // the Linux IRQ context: frees LWK metadata remotely.
                let rank = &mut self.ranks[(r) - self.rank_base];
                let noderef = &self.nodes[(node_idx) - self.node_base];
                if let Some(block) = rank.meta.remove(&(msg_id, window)) {
                    let (Some(table), Some(cb), Some(unified), Some(alloc)) = (
                        noderef.callbacks.as_deref(),
                        noderef.cb_ref,
                        noderef.unified.as_deref(),
                        noderef.lwk_alloc.as_ref(),
                    ) else {
                        unreachable!("picodriver pieces present in +HFI config");
                    };
                    table
                        .invoke_from_linux(unified, cb, alloc, 0, block)
                        .expect("completion callback failed");
                }
            }
        }
    }

    // ---- host (non-PSM) operations -----------------------------------------

    fn do_host_op(&mut self, r: usize, op: HostOp, mut now: Ns) -> Ns {
        let node_idx = self.ranks[(r) - self.rank_base].node;
        match op {
            HostOp::InitDevice => {
                let start = now;
                let rank_global = self.ranks[(r) - self.rank_base].engine.rank();
                // Proxy process + device open + 6 device-region mmaps.
                let open_cpu;
                {
                    let rank = &mut self.ranks[(r) - self.rank_base];
                    let noderef = &mut self.nodes[(node_idx) - self.node_base];
                    let pid = noderef.proxies.spawn(rank_global);
                    let (handle, ctxt, cpu) = noderef
                        .driver
                        .open(&mut noderef.chip)
                        .expect("device open failed");
                    let fd = noderef
                        .vfs
                        .open(pid, noderef.dev, handle)
                        .expect("vfs open failed");
                    debug_assert!(fd >= 3);
                    rank.dev_handle = handle;
                    rank.ctxt = ctxt;
                    open_cpu = self.lc.syscall_entry + self.lc.vfs_dispatch + cpu;
                }
                match self.cfg.os {
                    OsConfig::Linux => {
                        now += open_cpu;
                        self.ranks[(r) - self.rank_base]
                            .kprof
                            .record(Sysno::Open, open_cpu);
                        for _ in 0..6 {
                            let cpu = self.lc.syscall_entry
                                + self.nodes[(node_idx) - self.node_base].driver.dev_mmap();
                            now += cpu;
                            self.ranks[(r) - self.rank_base]
                                .kprof
                                .record(Sysno::Mmap, cpu);
                        }
                    }
                    OsConfig::McKernel | OsConfig::McKernelHfi => {
                        let g = self.nodes[(node_idx) - self.node_base].delegator.offload(
                            now,
                            Sysno::Open,
                            open_cpu,
                        );
                        self.ranks[(r) - self.rank_base]
                            .kprof
                            .record(Sysno::Open, g.complete - now);
                        now = g.complete;
                        for _ in 0..6 {
                            let service = self.lc.syscall_entry
                                + self.nodes[(node_idx) - self.node_base].driver.dev_mmap();
                            let g = self.nodes[(node_idx) - self.node_base].delegator.offload(
                                now,
                                Sysno::Mmap,
                                service,
                            );
                            self.ranks[(r) - self.rank_base]
                                .kprof
                                .record(Sysno::Mmap, g.complete - now);
                            now = g.complete;
                        }
                        if self.cfg.os == OsConfig::McKernelHfi {
                            // LWK-side initialization of the driver-internal
                            // mappings and the DWARF-ported structures.
                            now += self.cfg.pico_init_cost;
                        }
                    }
                }
                let _ = start;
                now
            }
            HostOp::FiniDevice => {
                let rank_global = self.ranks[(r) - self.rank_base].engine.rank();
                let close_cpu;
                {
                    let rank = &mut self.ranks[(r) - self.rank_base];
                    let noderef = &mut self.nodes[(node_idx) - self.node_base];
                    close_cpu = noderef
                        .driver
                        .close(&mut noderef.chip, rank.dev_handle)
                        .unwrap_or(Ns::ZERO)
                        + self.lc.syscall_entry;
                    noderef.proxies.reap(rank_global);
                }
                match self.cfg.os {
                    OsConfig::Linux => {
                        now += close_cpu;
                        self.ranks[(r) - self.rank_base]
                            .kprof
                            .record(Sysno::Close, close_cpu);
                    }
                    _ => {
                        let g = self.nodes[(node_idx) - self.node_base].delegator.offload(
                            now,
                            Sysno::Close,
                            close_cpu,
                        );
                        self.ranks[(r) - self.rank_base]
                            .kprof
                            .record(Sysno::Close, g.complete - now);
                        now = g.complete;
                    }
                }
                now
            }
            HostOp::MmapScratch { bytes } => {
                let pinned = self.cfg.os != OsConfig::Linux;
                let (leaves, va) = {
                    let rank = &mut self.ranks[(r) - self.rank_base];
                    let noderef = &mut self.nodes[(node_idx) - self.node_base];
                    let (va, stats) = rank
                        .space
                        .mmap_anonymous(noderef.frames.get_mut(), bytes, pinned)
                        .expect("scratch mmap failed");
                    rank.scratch.push((va, bytes));
                    (stats.leaves_mapped, va)
                };
                let _ = va;
                // Linux maps lazily and uses THP: charge per 2 MiB
                // granule, not per populated 4 KiB leaf.
                let thp = bytes.div_ceil(2 << 20);
                let cpu = match self.cfg.os {
                    OsConfig::Linux => {
                        self.lc.syscall_entry + self.lc.mmap_base + self.lc.mmap_per_page * thp
                    }
                    _ => {
                        self.mmc.syscall_entry
                            + self.mmc.mmap_base
                            + self.mmc.mmap_per_leaf * leaves
                    }
                };
                now += cpu;
                self.ranks[(r) - self.rank_base]
                    .kprof
                    .record(Sysno::Mmap, cpu);
                now
            }
            HostOp::MunmapScratch => {
                let Some((va, len)) = self.ranks[(r) - self.rank_base].scratch.pop() else {
                    return now;
                };
                shrink_scratch(&mut self.ranks[(r) - self.rank_base].scratch);
                let leaves = {
                    let rank = &mut self.ranks[(r) - self.rank_base];
                    let noderef = &mut self.nodes[(node_idx) - self.node_base];
                    if self.cfg.os == OsConfig::McKernelHfi {
                        // Invalidate cached TID registrations overlapping
                        // the unmapped range before teardown.
                        let ctxt = rank.ctxt;
                        let fast = noderef.fast.as_mut().expect("fast path");
                        let _ = fast.invalidate_range(&mut noderef.chip, ctxt, va, len);
                    }
                    rank.space
                        .munmap(noderef.frames.get_mut(), va)
                        .expect("scratch munmap failed")
                };
                let thp = len.div_ceil(2 << 20);
                let cpu = match self.cfg.os {
                    OsConfig::Linux => {
                        self.lc.syscall_entry + self.lc.munmap_base + self.lc.munmap_per_page * thp
                    }
                    // McKernel munmap: teardown + cross-kernel TLB
                    // shootdown — the QBOX-dominating cost (Fig. 9).
                    _ => {
                        self.mmc.syscall_entry
                            + self.mmc.munmap_base
                            + self.mmc.munmap_per_leaf * leaves
                            + self.mmc.tlb_shootdown
                    }
                };
                now += cpu;
                self.ranks[(r) - self.rank_base]
                    .kprof
                    .record(Sysno::Munmap, cpu);
                now
            }
            HostOp::ReadInput { bytes } => {
                let read_cpu = self.lc.syscall_entry + transfer_time(bytes, 2.0e9);
                let open_cpu = self.lc.syscall_entry + self.lc.vfs_dispatch;
                match self.cfg.os {
                    OsConfig::Linux => {
                        now += open_cpu;
                        self.ranks[(r) - self.rank_base]
                            .kprof
                            .record(Sysno::Open, open_cpu);
                        now += read_cpu;
                        self.ranks[(r) - self.rank_base]
                            .kprof
                            .record(Sysno::Read, read_cpu);
                        now += open_cpu;
                        self.ranks[(r) - self.rank_base]
                            .kprof
                            .record(Sysno::Close, open_cpu);
                    }
                    _ => {
                        for (sysno, service) in [
                            (Sysno::Open, open_cpu),
                            (Sysno::Read, read_cpu),
                            (Sysno::Close, open_cpu),
                        ] {
                            let g = self.nodes[(node_idx) - self.node_base]
                                .delegator
                                .offload(now, sysno, service);
                            self.ranks[(r) - self.rank_base]
                                .kprof
                                .record(sysno, g.complete - now);
                            now = g.complete;
                        }
                    }
                }
                now
            }
            HostOp::Nanosleep(d) => {
                // Local on both kernels; kernel handling is tiny, the
                // sleep itself is idle time.
                let cpu = Ns::micros(1);
                self.ranks[(r) - self.rank_base]
                    .kprof
                    .record(Sysno::Nanosleep, cpu);
                now + cpu + d
            }
        }
    }
}

/// Default shard count for [`EngineMode::Sharded`] when
/// [`ClusterConfig::shards`] is `None` (which replaced the old flat
/// `min(nodes, 16)`): enough shards to keep roughly two in flight per
/// available worker (so shards that hit their window horizon early
/// don't idle a core), but never so many that a shard owns fewer than
/// ~32 ranks (each shard pays a full fabric + barrier crossing per
/// window), and never more than one per node or 64 total.
///
/// Deliberately *independent of the run's worker count*
/// ([`ClusterConfig::threads`]): the partition — and therefore the
/// bit-exact result — depends only on the job shape and the machine's
/// advertised parallelism ([`pico_sim::default_threads`], overridable
/// via `PICO_THREADS`), so the worker-count bit-invariance property
/// holds by construction. Benchmark artifacts record the shard count
/// and `benchdiff` refuses to trend across differing partitions.
///
/// The nodes-per-shard floor (`nodes / 4`, i.e. at least four nodes per
/// shard once the cluster has them to give) keeps very large clusters
/// with few ranks per node from splitting into slivers: a shard pays a
/// full window barrier plus a fabric flush per lookahead window
/// regardless of size, so a shard smaller than a handful of nodes costs
/// more in crossings than it wins in parallelism. First step of the
/// ROADMAP's topology-aware-heuristic follow-up.
pub fn auto_shard_count(nodes: usize, ranks_per_node: usize) -> usize {
    let ranks = nodes.saturating_mul(ranks_per_node.max(1));
    let by_workers = pico_sim::default_threads().saturating_mul(2).max(1);
    let by_ranks = (ranks / 32).max(1);
    let by_nodes = (nodes / 4).max(1);
    by_workers
        .min(by_ranks)
        .min(by_nodes)
        .min(nodes.max(1))
        .min(64)
}

/// Aggregate one or more finished worlds — one per shard, in shard
/// order (= global rank/node order) — into a [`RunResult`]. A
/// single-queue run passes exactly one world, so this is also the
/// plain collection path; concatenation and commutative sums make the
/// two engines' results directly comparable field by field.
fn collect_many(worlds: Vec<World>, elapsed_secs: f64, threads: u32, shards: u32) -> RunResult {
    if let Some((path, _)) = worlds[0].arrival_trace.as_ref() {
        let path = path.clone();
        let mut out = String::new();
        for w in &worlds {
            if let Some((_, trace)) = &w.arrival_trace {
                for (now, dst, src, bytes, at) in trace {
                    out.push_str(&format!(
                        "now {now} dst {dst} src {src} bytes {bytes} arr {at}\n"
                    ));
                }
            }
        }
        std::fs::write(path, out).expect("write arrival trace");
    }
    let record_per_rank = worlds[0].cfg.record_per_rank;
    let nranks: usize = worlds.iter().map(|w| w.ranks.len()).sum();
    let mut mpi = TimeByKey::new();
    let mut kprof = TimeByKey::new();
    let mut wheel = WheelProfile::default();
    // The exact per-rank vector is opt-in; the sketch is the result path.
    let mut rank_finish = Vec::with_capacity(if record_per_rank { nranks } else { 0 });
    let mut finish = FinishSketch::new();
    let mut arrival_latency = Sketch::new();
    let mut stat_bytes = 0u64;
    let mut shard_state_bytes = 0u64;
    let mut shard_gate_nodes = 0u64;
    let mut done = 0;
    let mut delivered = 0u64;
    let mut payload_errors = 0u64;
    let mut sim_events = 0u64;
    let mut clamped_events = 0u64;
    let mut offloaded = 0;
    let mut queue_wait = Ns::ZERO;
    let mut tid_programs = 0;
    let mut pio = 0;
    let (mut bytes, mut messages, mut trains, mut train_members, mut max_train) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut resplits = 0u64;
    let (mut sinks_opened, mut sink_members, mut max_sink, mut sink_pauses) =
        (0u64, 0u64, 0u64, 0u64);
    let mut soft_deliveries = 0u64;
    let (mut digest, mut digest_bulk) = (0u64, 0u64);
    for w in &worlds {
        sim_events += w.queue.events_processed();
        clamped_events += w.queue.clamped_events();
        wheel.merge(w.queue.profile());
        // Payload delivery and verification stream at `Completed` time
        // (`delivered_payloads` counts the delivery, `payloads_checked`
        // the per-rank verification of the same payload).
        delivered += w.delivered_payloads + w.payloads_checked;
        payload_errors += w.payload_errors;
        // Each shard folds its own ranks into a local sketch, merged
        // once here at the join — merge order cannot perturb the result
        // (commutative bucket sums), so this matches what any worker
        // interleaving would have produced.
        let mut shard_finish = FinishSketch::new();
        for r in &w.ranks {
            mpi.merge(r.engine.profile());
            kprof.merge(&r.kprof);
            let at = r.engine.finished_at().unwrap_or(r.clock);
            shard_finish.record(at.0);
            if record_per_rank {
                rank_finish.push(at);
            }
            if r.done {
                done += 1;
            }
        }
        finish.merge(&shard_finish);
        arrival_latency.merge(&w.arrival_sketch);
        // Resident O(ranks) stat state this shard still carried at the
        // end of the run (capacities, not lengths: high-water matters).
        stat_bytes += (w.pending_wake.capacity() * std::mem::size_of::<Ns>()
            + w.train_delivered.capacity() * 8
            + w.train_parked.capacity() * 8
            + w.train_park_clock.capacity() * std::mem::size_of::<Ns>()
            + w.sent_seen.capacity() * 8
            + w.arrival_sketch.heap_bytes()
            + w.arrival_trace.as_ref().map_or(0, |(_, t)| {
                t.capacity() * std::mem::size_of::<ArrivalTraceRow>()
            })) as u64;
        // Node-indexed state this shard carried: fabric gate storage
        // plus the `node_pending`/sink-root vectors, each sized to the
        // shard's own node range.
        shard_state_bytes += (w.fabric.resident_gate_bytes()
            + w.node_pending.capacity()
                * std::mem::size_of::<std::collections::BTreeMap<Ns, u32>>()
            + w.sinks.capacity() * std::mem::size_of::<SinkSlot>())
            as u64;
        shard_gate_nodes += w.fabric.gate_nodes_allocated() as u64;
        for n in &w.nodes {
            offloaded += n.delegator.offloaded();
            queue_wait += n.delegator.total_queue_wait();
            tid_programs += n.chip.tid_programs();
            pio += n.chip.pio_sends();
        }
        bytes += w.fabric.bytes();
        messages += w.fabric.messages();
        trains += w.fabric.trains();
        train_members += w.fabric.train_members();
        max_train = max_train.max(w.fabric.max_train_len());
        resplits += w.resplits;
        sinks_opened += w.sinks_opened;
        sink_members += w.sink_members_total;
        // Sinks still open at exhaustion never saw their close.
        let mut ms = w.max_sink_len;
        for s in &w.sinks {
            if s.open {
                ms = ms.max(s.len);
            }
        }
        max_sink = max_sink.max(ms);
        sink_pauses += w.sink_pauses;
        soft_deliveries += w.soft_deliveries;
        digest = digest.wrapping_add(w.arrival_digest);
        digest_bulk = digest_bulk.wrapping_add(w.arrival_digest_bulk);
    }
    let wall = finish.max().map_or(Ns::ZERO, Ns);
    stat_bytes += (rank_finish.capacity() * std::mem::size_of::<Ns>() + finish.heap_bytes()) as u64;
    RunResult {
        wall_time: wall,
        finish,
        rank_finish,
        arrival_latency,
        stat_bytes,
        peak_alloc_bytes: pico_sim::memalloc::peak_bytes(),
        shard_state_bytes,
        shard_gate_nodes,
        mpi_profile: mpi,
        kernel_profile: kprof,
        offloaded_calls: offloaded,
        offload_queue_wait: queue_wait,
        fabric_bytes: bytes,
        fabric_messages: messages,
        fabric_trains: trains,
        fabric_train_members: train_members,
        fabric_max_train: max_train,
        fabric_resplits: resplits,
        fabric_sinks: sinks_opened,
        fabric_sink_members: sink_members,
        fabric_max_sink: max_sink,
        fabric_sink_pauses: sink_pauses,
        soft_deliveries,
        arrival_digest: digest,
        arrival_digest_bulk: digest_bulk,
        wheel_profile: wheel,
        payload_errors,
        tid_programs,
        pio_sends: pio,
        ranks_done: done,
        delivered_payloads: delivered,
        sim_events,
        clamped_events,
        events_per_sec: if elapsed_secs > 0.0 {
            sim_events as f64 / elapsed_secs
        } else {
            0.0
        },
        threads,
        shards,
    }
}

/// Convenience: build and run an app under a configuration.
pub fn run_app(cfg: ClusterConfig, app: App, iters: u32) -> RunResult {
    World::new(cfg, app, iters).run()
}

/// Convenience: the paper configuration for `os` at `nodes` ×
/// `app.paper_ranks_per_node()` (scaled down by `rpn_override`).
pub fn paper_config(
    os: OsConfig,
    app: App,
    nodes: u32,
    rpn_override: Option<u32>,
) -> ClusterConfig {
    let rpn = rpn_override.unwrap_or_else(|| app.paper_ranks_per_node());
    ClusterConfig::paper(
        os,
        JobShape {
            nodes,
            ranks_per_node: rpn,
        },
    )
}

/// The AppSpec for reporting purposes.
pub fn app_spec(app: App, shape: JobShape) -> AppSpec {
    pico_apps::spec(app, shape)
}
