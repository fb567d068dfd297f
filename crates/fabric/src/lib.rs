//! # pico-fabric — the inter-node network model
//!
//! An OmniPath-like fabric reduced to what the experiments are sensitive
//! to: per-node injection (uplink) and reception (downlink) bandwidth,
//! cut-through latency, and a **per-SDMA-request overhead** on the wire.
//! That last term is the hardware half of §3.4: a transfer cut into 4 KiB
//! requests pays the inter-request gap ~2.5× more often than one cut into
//! 10 KB requests, which is exactly the bandwidth difference Figure 4
//! shows between the Linux driver and the PicoDriver fast path.
//!
//! Topology is full-bisection (OFP's fat tree keeps the paper's traffic
//! far from topology limits), so the switch core is not modelled; only
//! the node links and their FIFO contention are.

#![warn(missing_docs)]

use pico_sim::{BandwidthGate, Ns};

/// Fabric parameters.
#[derive(Clone, Copy, Debug)]
pub struct FabricConfig {
    /// Per-direction link bandwidth in bytes/second (100 Gb/s ≈ 12.3 GB/s
    /// after encoding overhead).
    pub link_bw: f64,
    /// One-way cut-through latency between two nodes (NIC + 2 switch hops).
    pub base_latency: Ns,
    /// Wire/engine gap per SDMA request (descriptor fetch + packet
    /// header turnaround).
    pub per_req_overhead: Ns,
    /// Intra-node (shared-memory) copy bandwidth.
    pub shm_bw: f64,
    /// Intra-node delivery latency.
    pub shm_latency: Ns,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            link_bw: 12.3e9,
            base_latency: Ns::nanos(900),
            per_req_overhead: Ns::nanos(100),
            shm_bw: 6.0e9,
            shm_latency: Ns::nanos(350),
        }
    }
}

/// A completed transfer schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TransferSchedule {
    /// When the sender's link accepted the last byte.
    pub injected: Ns,
    /// When the message is fully available at the receiver.
    pub arrival: Ns,
}

/// One member of a packet train: a packet emitted at `at` onto the
/// same `(src, dst)` link as its neighbours.
#[derive(Clone, Copy, Debug)]
pub struct TrainMember {
    /// When the sender handed the packet to the NIC.
    pub at: Ns,
    /// Wire bytes of the packet.
    pub bytes: u64,
    /// SDMA/wire requests the packet is cut into.
    pub nreqs: u64,
}

/// The uplink half of one sink member's schedule, produced by
/// [`Fabric::sink_inject`] on the source side and consumed by
/// [`Fabric::sink_commit`] on the destination side. This is the wire
/// format of a cross-shard fabric delivery in the sharded engine: the
/// source shard owns the uplink gate, the destination shard owns the
/// downlink gate, and this struct carries everything the downlink walk
/// needs across the boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SinkInjection {
    /// When the uplink accepted the member's first byte.
    pub up_start: Ns,
    /// When the uplink accepted the member's last byte (== `injected`).
    pub up_finish: Ns,
    /// Wire bytes (the downlink drain time input).
    pub bytes: u64,
}

/// The uplink/downlink gate pair of one node.
struct NodeGates {
    up: BandwidthGate,
    down: BandwidthGate,
}

impl NodeGates {
    fn new(bw: f64) -> NodeGates {
        NodeGates {
            up: BandwidthGate::new(bw),
            down: BandwidthGate::new(bw),
        }
    }
}

/// The fabric connecting `n` nodes.
///
/// Gate storage is **shard-local**: a dense array covers the owner's
/// contiguous node range (`[base, base + dense.len())` — the whole
/// cluster for [`Fabric::new`], one shard's slice for
/// [`Fabric::new_shard`]). In the sharded engine a shard only ever
/// advances its own nodes' uplinks (at injection) and downlinks (at
/// commit), so per-shard gate memory is O(shard nodes), not O(cluster
/// nodes); touching a gate outside the range is a bug and panics.
pub struct Fabric {
    cfg: FabricConfig,
    /// Total cluster node count — the global id space, not the storage
    /// size.
    nnodes: usize,
    /// First node of the dense own range.
    base: usize,
    /// Dense gate pairs for nodes `[base, base + dense.len())`.
    dense: Vec<NodeGates>,
    messages: u64,
    bytes: u64,
    intra_messages: u64,
    trains: u64,
    train_members: u64,
    max_train_len: u64,
}

impl Fabric {
    /// A fabric of `nodes` nodes with every gate dense — the reference
    /// layout, used by the single-queue engine (and the dense-layout
    /// ablation knob).
    pub fn new(cfg: FabricConfig, nodes: usize) -> Fabric {
        Fabric::new_shard(cfg, nodes, 0, nodes)
    }

    /// A shard-local fabric over a cluster of `nodes` nodes whose dense
    /// own range is `[base, base + count)`. Committing to a gate outside
    /// the range panics.
    pub fn new_shard(cfg: FabricConfig, nodes: usize, base: usize, count: usize) -> Fabric {
        assert!(nodes > 0 && count > 0 && base + count <= nodes);
        Fabric {
            nnodes: nodes,
            base,
            dense: (0..count).map(|_| NodeGates::new(cfg.link_bw)).collect(),
            cfg,
            messages: 0,
            bytes: 0,
            intra_messages: 0,
            trains: 0,
            train_members: 0,
            max_train_len: 0,
        }
    }

    /// The gate pair of `node`. Panics for a node outside the own range:
    /// the sharded engine routes every gate commit to the owning shard,
    /// so a remote touch means a routing bug, not missing state.
    #[inline]
    fn gates_mut(&mut self, node: usize) -> &mut NodeGates {
        debug_assert!(node < self.nnodes);
        let (base, end) = (self.base, self.base + self.dense.len());
        match self.dense.get_mut(node.wrapping_sub(base)) {
            Some(g) => g,
            None => panic!(
                "fabric gate of node {node} touched outside this shard's own range [{base}, {end})"
            ),
        }
    }

    /// Read-only probe: `None` for a node outside the own range (whose
    /// gates this instance never moved).
    fn gates(&self, node: usize) -> Option<&NodeGates> {
        self.dense.get(node.wrapping_sub(self.base))
    }

    /// Configuration.
    pub fn config(&self) -> FabricConfig {
        self.cfg
    }
    /// Node count of the cluster (the global id space — not the number
    /// of nodes this instance holds gate state for; see
    /// [`gate_nodes_allocated`](Self::gate_nodes_allocated)).
    pub fn nodes(&self) -> usize {
        self.nnodes
    }
    /// Nodes whose gate state is allocated: the dense own range. A shard
    /// holds no state for a remote node.
    pub fn gate_nodes_allocated(&self) -> usize {
        self.dense.len()
    }
    /// Resident bytes of gate storage (capacities, not lengths).
    pub fn resident_gate_bytes(&self) -> usize {
        self.dense.capacity() * std::mem::size_of::<NodeGates>()
    }

    /// Wire occupancy of `bytes` cut into `nreqs` requests: the data time
    /// at link bandwidth plus the per-request engine gap. The single
    /// source of the §3.4 overhead term — both the event-driven
    /// [`transfer`](Self::transfer)/[`transfer_train`](Self::transfer_train)
    /// path and the analytic [`steady_state_bw`](Self::steady_state_bw)
    /// number derive from it, so they cannot drift.
    pub fn wire_time(&self, bytes: u64, nreqs: u64) -> Ns {
        Ns(self.cfg.per_req_overhead.0 * nreqs) + pico_sim::transfer_time(bytes, self.cfg.link_bw)
    }

    /// Shared-memory delivery schedule for an intra-node packet.
    fn shm_schedule(&self, at: Ns, bytes: u64) -> TransferSchedule {
        let arrival = at + self.cfg.shm_latency + pico_sim::transfer_time(bytes, self.cfg.shm_bw);
        TransferSchedule {
            injected: arrival,
            arrival,
        }
    }

    /// The FIFO link math for one packet, against link cursors `up_free`
    /// / `down_free` (advanced in place). Both the per-packet and the
    /// train path go through here, so their schedules are identical by
    /// construction.
    fn link_schedule(
        &self,
        up_free: &mut Ns,
        down_free: &mut Ns,
        at: Ns,
        bytes: u64,
        nreqs: u64,
    ) -> TransferSchedule {
        let up_start = at.max(*up_free);
        let up_finish = up_start + self.wire_time(bytes, nreqs);
        // Cut-through: the head of the message reaches the receiver one
        // base latency after injection starts; the tail is gated by both
        // the uplink finish and the (possibly congested) downlink.
        let down_start = (up_start + self.cfg.base_latency).max(*down_free);
        let down_finish = down_start + pico_sim::transfer_time(bytes, self.cfg.link_bw);
        *up_free = up_finish;
        *down_free = down_finish;
        TransferSchedule {
            injected: up_finish,
            arrival: down_finish.max(up_finish + self.cfg.base_latency),
        }
    }

    /// Schedule a transfer of `bytes` from `src` to `dst`, cut into
    /// `nreqs` wire requests. Intra-node messages use the shared-memory
    /// path (no NIC involvement, no request overhead).
    pub fn transfer(
        &mut self,
        now: Ns,
        src: usize,
        dst: usize,
        bytes: u64,
        nreqs: u64,
    ) -> TransferSchedule {
        self.messages += 1;
        self.bytes += bytes;
        if src == dst {
            self.intra_messages += 1;
            return self.shm_schedule(now, bytes);
        }
        let mut up_free = self.gates_mut(src).up.free_at();
        let mut down_free = self.gates_mut(dst).down.free_at();
        let sched = self.link_schedule(&mut up_free, &mut down_free, now, bytes, nreqs);
        let up_busy = self.wire_time(bytes, nreqs);
        let down_busy = pico_sim::transfer_time(bytes, self.cfg.link_bw);
        self.gates_mut(src).up.commit_train(up_free, bytes, up_busy);
        self.gates_mut(dst)
            .down
            .commit_train(down_free, bytes, down_busy);
        sched
    }

    /// Schedule a whole burst of packets on the same `(src, dst)` link
    /// with **one reservation per gate**: the member schedule is computed
    /// analytically with the same FIFO rule the per-packet path uses
    /// (each member starts at `max(emit, link_free)`), then the uplink
    /// and downlink are advanced once for the whole train. For
    /// back-to-back members of equal size the resulting arrivals are a
    /// first arrival plus a per-member stride of
    /// `wire_time(bytes, nreqs)`; members emitted slower than the wire
    /// drains follow their emission times instead. Appends one
    /// [`TransferSchedule`] per member to `out`.
    pub fn transfer_train(
        &mut self,
        src: usize,
        dst: usize,
        members: &[TrainMember],
        out: &mut Vec<TransferSchedule>,
    ) {
        if members.is_empty() {
            return;
        }
        self.messages += members.len() as u64;
        let total: u64 = members.iter().map(|m| m.bytes).sum();
        self.bytes += total;
        if members.len() >= 2 {
            self.trains += 1;
            self.train_members += members.len() as u64;
            self.max_train_len = self.max_train_len.max(members.len() as u64);
        }
        if src == dst {
            self.intra_messages += members.len() as u64;
            out.extend(members.iter().map(|m| self.shm_schedule(m.at, m.bytes)));
            return;
        }
        let mut up_free = self.gates_mut(src).up.free_at();
        let mut down_free = self.gates_mut(dst).down.free_at();
        let mut up_busy = Ns::ZERO;
        let mut down_busy = Ns::ZERO;
        for m in members {
            out.push(self.link_schedule(&mut up_free, &mut down_free, m.at, m.bytes, m.nreqs));
            up_busy += self.wire_time(m.bytes, m.nreqs);
            down_busy += pico_sim::transfer_time(m.bytes, self.cfg.link_bw);
        }
        self.gates_mut(src).up.commit_train(up_free, total, up_busy);
        self.gates_mut(dst)
            .down
            .commit_train(down_free, total, down_busy);
    }

    /// Source half of a merge into the **destination-rooted sink** on
    /// some node: walk `members` (emitted by `src`) through `src`'s
    /// **uplink only**, committing the gate once, and report each
    /// member's `(up_start, up_finish)` so the downlink half can run
    /// later with [`sink_commit`](Self::sink_commit) — on this instance
    /// (single-queue engine) or on the destination shard's (sharded
    /// engine). The per-message/byte counters accrue here (the source
    /// side), the train counters at the commit (where the cumulative
    /// sink length lives); summing both halves' counters therefore
    /// reproduces per-packet totals exactly.
    pub fn sink_inject(
        &mut self,
        src: usize,
        members: &[TrainMember],
        out: &mut Vec<SinkInjection>,
    ) {
        if members.is_empty() {
            return;
        }
        self.messages += members.len() as u64;
        let total: u64 = members.iter().map(|m| m.bytes).sum();
        self.bytes += total;
        let mut up_free = self.gates_mut(src).up.free_at();
        let mut up_busy = Ns::ZERO;
        for m in members {
            let up_start = m.at.max(up_free);
            let wt = self.wire_time(m.bytes, m.nreqs);
            up_free = up_start + wt;
            up_busy += wt;
            out.push(SinkInjection {
                up_start,
                up_finish: up_free,
                bytes: m.bytes,
            });
        }
        self.gates_mut(src).up.commit_train(up_free, total, up_busy);
    }

    /// Destination half of a sink merge: walk already-injected members
    /// (their uplink times from [`sink_inject`](Self::sink_inject))
    /// through `dst`'s downlink, committing the gate once, and append
    /// the completed [`TransferSchedule`]s to `out`. A sink accepts
    /// members from *every* source link and both gate cursors persist
    /// between calls, so interleaved merges from many sources produce
    /// the same schedules and gate state as the same global sequence of
    /// per-packet [`transfer`](Self::transfer) calls — the FIFO merge
    /// rule is the link rule of [`link_schedule`](Self::link_schedule)
    /// itself, which reads the uplink only through
    /// `up_start`/`up_finish`. Sinks exist only for inter-node links:
    /// shared-memory arrivals ignore the link FIFO.
    ///
    /// `prior_len` is the member count already merged into this sink
    /// across all sources; train statistics count the whole incast as
    /// one cumulative logical train once it reaches two members, no
    /// matter how many merges delivered them (the members delivered
    /// before it became a train are credited retroactively).
    pub fn sink_commit(
        &mut self,
        dst: usize,
        members: &[SinkInjection],
        prior_len: u64,
        out: &mut Vec<TransferSchedule>,
    ) {
        if members.is_empty() {
            return;
        }
        let new_len = prior_len + members.len() as u64;
        if new_len >= 2 {
            if prior_len < 2 {
                self.trains += 1;
                self.train_members += prior_len;
            }
            self.train_members += members.len() as u64;
            self.max_train_len = self.max_train_len.max(new_len);
        }
        let mut down_free = self.gates_mut(dst).down.free_at();
        let mut down_busy = Ns::ZERO;
        let mut total = 0u64;
        for m in members {
            let down_start = (m.up_start + self.cfg.base_latency).max(down_free);
            let down_finish = down_start + pico_sim::transfer_time(m.bytes, self.cfg.link_bw);
            down_free = down_finish;
            down_busy += pico_sim::transfer_time(m.bytes, self.cfg.link_bw);
            total += m.bytes;
            out.push(TransferSchedule {
                injected: m.up_finish,
                arrival: down_finish.max(m.up_finish + self.cfg.base_latency),
            });
        }
        self.gates_mut(dst)
            .down
            .commit_train(down_free, total, down_busy);
    }

    /// Effective achievable bandwidth for back-to-back messages of
    /// `bytes` cut into `nreqs` requests (no contention): the Figure 4
    /// steady-state number.
    pub fn steady_state_bw(&self, bytes: u64, nreqs: u64) -> f64 {
        bytes as f64 / self.wire_time(bytes, nreqs).as_secs_f64()
    }

    /// Messages scheduled so far.
    pub fn messages(&self) -> u64 {
        self.messages
    }
    /// Bytes scheduled so far.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
    /// Intra-node messages.
    pub fn intra_messages(&self) -> u64 {
        self.intra_messages
    }
    /// Trains scheduled so far (bursts of ≥ 2 packets delivered through
    /// one reservation; singleton `transfer_train` calls count as plain
    /// messages only).
    pub fn trains(&self) -> u64 {
        self.trains
    }
    /// Packets that rode a train (members of the counted trains).
    pub fn train_members(&self) -> u64 {
        self.train_members
    }
    /// Longest train scheduled so far.
    pub fn max_train_len(&self) -> u64 {
        self.max_train_len
    }
    /// Total busy time of a node's uplink (`Ns::ZERO` for a node outside
    /// the own range, whose gates this instance never moved).
    pub fn uplink_busy(&self, node: usize) -> Ns {
        self.gates(node).map_or(Ns::ZERO, |g| g.up.busy_time())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fabric(nodes: usize) -> Fabric {
        Fabric::new(
            FabricConfig {
                link_bw: 1e9, // 1 GB/s => easy math
                base_latency: Ns(1000),
                per_req_overhead: Ns(100),
                shm_bw: 2e9,
                shm_latency: Ns(200),
            },
            nodes,
        )
    }

    #[test]
    fn single_transfer_latency_and_bandwidth() {
        let mut f = fabric(2);
        let s = f.transfer(Ns(0), 0, 1, 1000, 1);
        // Uplink: 100ns overhead + 1000ns data = 1100ns.
        assert_eq!(s.injected, Ns(1100));
        // Arrival: base latency after tail injection (downlink idle).
        assert_eq!(s.arrival, Ns(2100));
    }

    #[test]
    fn request_count_matters() {
        // Same bytes, more requests => slower. The §3.4 effect.
        let mut f = fabric(2);
        let few = f.transfer(Ns(0), 0, 1, 40_000, 4); // 10KB requests
        let mut f2 = fabric(2);
        let many = f2.transfer(Ns(0), 0, 1, 40_000, 10); // 4KB requests
        assert!(many.arrival > few.arrival);
        let bw_few = f.steady_state_bw(40_000, 4);
        let bw_many = f.steady_state_bw(40_000, 10);
        assert!(bw_few > bw_many);
        // Ratio ~ (40us + 1us) / (40us + 0.4us).
        assert!((bw_few / bw_many - 41.0 / 40.4).abs() < 1e-3);
    }

    #[test]
    fn uplink_contention_serializes_senders() {
        let mut f = fabric(3);
        let a = f.transfer(Ns(0), 0, 1, 10_000, 1);
        let b = f.transfer(Ns(0), 0, 2, 10_000, 1); // same sender
        assert!(b.injected >= a.injected + Ns(10_000));
    }

    #[test]
    fn downlink_incast_contention() {
        let mut f = fabric(3);
        let a = f.transfer(Ns(0), 0, 2, 10_000, 1);
        let b = f.transfer(Ns(0), 1, 2, 10_000, 1); // different sender, same receiver
                                                    // Both inject in parallel but the receiver drains serially: the
                                                    // second message arrives roughly one message-time later.
        assert_eq!(a.injected, b.injected);
        assert!(b.arrival >= a.arrival + Ns(9_000), "a {a:?} b {b:?}");
    }

    #[test]
    fn intra_node_uses_shared_memory() {
        let mut f = fabric(2);
        let s = f.transfer(Ns(0), 1, 1, 2000, 5);
        // 200ns latency + 2000B / 2GB/s = 1000ns; request count ignored.
        assert_eq!(s.arrival, Ns(1200));
        assert_eq!(f.intra_messages(), 1);
        // NIC links untouched.
        assert_eq!(f.uplink_busy(1), Ns::ZERO);
    }

    #[test]
    fn stats_accumulate() {
        let mut f = fabric(2);
        f.transfer(Ns(0), 0, 1, 500, 1);
        f.transfer(Ns(0), 1, 0, 700, 2);
        assert_eq!(f.messages(), 2);
        assert_eq!(f.bytes(), 1200);
    }

    #[test]
    fn train_matches_per_packet_transfers_exactly() {
        // Any member mix (back-to-back, gapped, mixed sizes) must yield
        // the same schedules and gate state as per-packet transfers.
        let mixes: &[&[TrainMember]] = &[
            &[
                TrainMember {
                    at: Ns(0),
                    bytes: 64,
                    nreqs: 1,
                },
                TrainMember {
                    at: Ns(10),
                    bytes: 64,
                    nreqs: 1,
                },
                TrainMember {
                    at: Ns(20),
                    bytes: 64,
                    nreqs: 1,
                },
            ],
            &[
                TrainMember {
                    at: Ns(0),
                    bytes: 512 * 1024,
                    nreqs: 52,
                },
                TrainMember {
                    at: Ns(500),
                    bytes: 512 * 1024,
                    nreqs: 52,
                },
                TrainMember {
                    at: Ns(1000),
                    bytes: 1000,
                    nreqs: 1,
                },
            ],
            // Members emitted slower than the wire drains: arrivals track
            // emission, not the stride.
            &[
                TrainMember {
                    at: Ns(0),
                    bytes: 100,
                    nreqs: 1,
                },
                TrainMember {
                    at: Ns(50_000),
                    bytes: 100,
                    nreqs: 1,
                },
            ],
        ];
        for members in mixes {
            let mut per_packet = fabric(2);
            // Pre-load both links so queueing is exercised.
            per_packet.transfer(Ns(0), 0, 1, 3000, 1);
            let reference: Vec<TransferSchedule> = members
                .iter()
                .map(|m| per_packet.transfer(m.at, 0, 1, m.bytes, m.nreqs))
                .collect();
            let mut trained = fabric(2);
            trained.transfer(Ns(0), 0, 1, 3000, 1);
            let mut out = Vec::new();
            trained.transfer_train(0, 1, members, &mut out);
            assert_eq!(out, reference);
            assert_eq!(trained.bytes(), per_packet.bytes());
            assert_eq!(trained.messages(), per_packet.messages());
            assert_eq!(trained.uplink_busy(0), per_packet.uplink_busy(0));
            assert_eq!(trained.trains(), 1);
            assert_eq!(trained.train_members(), members.len() as u64);
        }
    }

    fn tm(at: u64, bytes: u64, nreqs: u64) -> TrainMember {
        TrainMember {
            at: Ns(at),
            bytes,
            nreqs,
        }
    }

    /// The same members as per-packet `transfer` calls to `dst`, in the
    /// flushes' global order.
    fn per_packet(
        f: &mut Fabric,
        flushes: &[(usize, &[TrainMember])],
        dst: usize,
    ) -> Vec<TransferSchedule> {
        flushes
            .iter()
            .flat_map(|&(src, chunk)| chunk.iter().map(move |m| (src, m)))
            .map(|(src, m)| f.transfer(m.at, src, dst, m.bytes, m.nreqs))
            .collect()
    }

    #[test]
    fn sink_halves_continue_the_reservation_exactly() {
        // Delivering a burst flush-by-flush through `sink_inject` +
        // `sink_commit` on one fabric must be indistinguishable —
        // schedules, gate state, stats — from per-packet `transfer`
        // calls in the same order. Uneven flushes: 1 member, then 3,
        // then 1.
        let flushes: &[(usize, &[TrainMember])] = &[
            (0, &[tm(0, 10_000, 1)]),
            (
                0,
                &[tm(100, 10_000, 1), tm(40_000, 512, 1), tm(40_050, 2048, 2)],
            ),
            (0, &[tm(90_000, 64, 1)]),
        ];
        let mut per_packet_fab = fabric(2);
        per_packet_fab.transfer(Ns(0), 0, 1, 3000, 1); // pre-load the link
        let reference = per_packet(&mut per_packet_fab, flushes, 1);

        let mut sink = fabric(2);
        sink.transfer(Ns(0), 0, 1, 3000, 1);
        let mut out = Vec::new();
        let mut prior = 0u64;
        for &(src, chunk) in flushes {
            let mut inj = Vec::new();
            sink.sink_inject(src, chunk, &mut inj);
            sink.sink_commit(1, &inj, prior, &mut out);
            prior += chunk.len() as u64;
        }
        assert_eq!(out, reference);
        assert_eq!(sink.bytes(), per_packet_fab.bytes());
        assert_eq!(sink.messages(), per_packet_fab.messages());
        assert_eq!(sink.uplink_busy(0), per_packet_fab.uplink_busy(0));
        assert_eq!(sink.trains(), 1, "one logical train across merges");
        assert_eq!(sink.train_members(), prior);
        assert_eq!(sink.max_train_len(), prior);
    }

    #[test]
    fn sink_merge_is_fifo_exact_against_per_packet_transfers() {
        // An incast: three sources feed node 3's downlink in interleaved
        // flushes. Merging them through one destination-rooted sink (one
        // fabric, one cumulative prior_len) must reproduce the
        // schedules, gate state, and byte/message counts of the same
        // global sequence of per-packet `transfer` calls — the
        // FIFO-exactness claim of the sink merge.
        let flushes: &[(usize, &[TrainMember])] = &[
            (0, &[tm(0, 10_000, 1), tm(100, 10_000, 1)]),
            (1, &[tm(200, 4_000, 4)]),
            (2, &[tm(5_000, 64, 1), tm(5_010, 2_048, 2)]),
            (0, &[tm(30_000, 512, 1)]),
            (1, &[tm(30_500, 10_000, 1), tm(30_600, 10_000, 1)]),
        ];
        let mut per_packet_fab = fabric(4);
        per_packet_fab.transfer(Ns(0), 0, 3, 3000, 1); // pre-load uplink 0 + downlink 3
        let reference = per_packet(&mut per_packet_fab, flushes, 3);

        let mut sink = fabric(4);
        sink.transfer(Ns(0), 0, 3, 3000, 1);
        let mut merged = Vec::new();
        let mut prior = 0u64;
        for &(src, chunk) in flushes {
            let mut inj = Vec::new();
            sink.sink_inject(src, chunk, &mut inj);
            sink.sink_commit(3, &inj, prior, &mut merged);
            prior += chunk.len() as u64;
        }
        assert_eq!(merged, reference);
        assert_eq!(sink.bytes(), per_packet_fab.bytes());
        assert_eq!(sink.messages(), per_packet_fab.messages());
        for node in 0..3 {
            assert_eq!(sink.uplink_busy(node), per_packet_fab.uplink_busy(node));
        }
        // One cumulative train for the whole incast (per-packet: none).
        assert_eq!(sink.trains(), 1);
        assert_eq!(sink.train_members(), prior);
        assert_eq!(sink.max_train_len(), prior);
        assert_eq!(per_packet_fab.trains(), 0);
    }

    #[test]
    fn split_sink_halves_match_per_packet_transfers_exactly() {
        // The sharded engine runs the uplink half on the source shard's
        // fabric and the downlink half on the destination shard's: the
        // interleaved `sink_inject`/`sink_commit` sequence must give the
        // same schedules, the same gate state, and (summed across the
        // two instances) the same byte/message counters as per-packet
        // `transfer` calls in the same global order on one fabric.
        let flushes: &[(usize, &[TrainMember])] = &[
            (0, &[tm(0, 10_000, 1), tm(100, 10_000, 1)]),
            (1, &[tm(200, 4_000, 4)]),
            (0, &[tm(30_000, 512, 1)]),
            (2, &[tm(30_500, 64, 1), tm(30_510, 2_048, 2)]),
        ];
        let mut per_packet_fab = fabric(4);
        per_packet_fab.transfer(Ns(0), 0, 3, 3000, 1); // pre-load uplink 0 + downlink 3
        let reference = per_packet(&mut per_packet_fab, flushes, 3);

        // Source-shard fabric owns the uplinks, destination-shard fabric
        // owns downlink 3; the pre-load is replayed as a split too and
        // joins the logical sink.
        let mut src_fab = fabric(4);
        let mut dst_fab = fabric(4);
        let mut pre = Vec::new();
        src_fab.sink_inject(0, &[tm(0, 3000, 1)], &mut pre);
        let mut pre_sched = Vec::new();
        dst_fab.sink_commit(3, &pre, 0, &mut pre_sched);
        assert_eq!(pre_sched.len(), 1);
        let mut split = Vec::new();
        let mut prior = 1u64;
        for &(src, chunk) in flushes {
            let mut inj = Vec::new();
            src_fab.sink_inject(src, chunk, &mut inj);
            dst_fab.sink_commit(3, &inj, prior, &mut split);
            prior += chunk.len() as u64;
        }
        assert_eq!(split, reference);
        for node in 0..3 {
            assert_eq!(src_fab.uplink_busy(node), per_packet_fab.uplink_busy(node));
        }
        // All message/byte counting happens on the source half.
        assert_eq!(src_fab.bytes() + dst_fab.bytes(), per_packet_fab.bytes());
        assert_eq!(src_fab.messages(), per_packet_fab.messages());
        assert_eq!(dst_fab.messages(), 0);
        // One cumulative train, pre-load included (per-packet: none).
        assert_eq!(dst_fab.trains(), 1);
        assert_eq!(dst_fab.train_members(), prior);
        assert_eq!(dst_fab.max_train_len(), prior);
        assert_eq!(per_packet_fab.trains(), 0);
    }

    fn shard_fabric(nodes: usize, base: usize, count: usize) -> Fabric {
        Fabric::new_shard(
            FabricConfig {
                link_bw: 1e9,
                base_latency: Ns(1000),
                per_req_overhead: Ns(100),
                shm_bw: 2e9,
                shm_latency: Ns(200),
            },
            nodes,
            base,
            count,
        )
    }

    #[test]
    #[should_panic(
        expected = "fabric gate of node 6 touched outside this shard's own range [2, 4)"
    )]
    fn shard_fabric_panics_on_remote_gate_touch() {
        // A shard owning nodes [2, 4) of an 8-node cluster holds exactly
        // its own two gate pairs; own-node traffic — injection on an own
        // uplink, commit on an own downlink (the only gate touches the
        // sharded engine makes) — and read-only probes of remote nodes
        // work, but committing to a remote gate is a routing bug.
        let mut f = shard_fabric(8, 2, 2);
        assert_eq!(f.nodes(), 8);
        assert_eq!(f.gate_nodes_allocated(), 2);
        let m = [TrainMember {
            at: Ns(0),
            bytes: 1000,
            nreqs: 1,
        }];
        let mut inj = Vec::new();
        f.sink_inject(2, &m, &mut inj);
        let mut out = Vec::new();
        f.sink_commit(3, &inj, 0, &mut out);
        assert!(f.uplink_busy(2) > Ns::ZERO);
        assert_eq!(f.uplink_busy(7), Ns::ZERO);
        assert_eq!(f.gate_nodes_allocated(), 2);
        assert!(f.resident_gate_bytes() > 0);
        f.transfer(Ns(0), 2, 6, 1000, 1);
    }

    #[test]
    fn shard_local_fabrics_reproduce_dense_schedules_exactly() {
        // The sharded engine's gate walk on two shard-local fabrics
        // (each holding its own node range only) must equal per-packet
        // transfers on the dense full-cluster fabric bit for bit:
        // sources 0/1 (shard [0,2)) inject, destination 3 (shard [2,4))
        // commits.
        let flushes: &[(usize, &[TrainMember])] = &[
            (0, &[tm(0, 10_000, 1), tm(100, 10_000, 1)]),
            (1, &[tm(200, 4_000, 4)]),
            (0, &[tm(30_000, 512, 1)]),
        ];
        let mut whole = fabric(4);
        let reference = per_packet(&mut whole, flushes, 3);
        let mut src_shard = shard_fabric(4, 0, 2);
        let mut dst_shard = shard_fabric(4, 2, 2);
        let mut split = Vec::new();
        let mut p = 0u64;
        for &(src, chunk) in flushes {
            let mut inj = Vec::new();
            src_shard.sink_inject(src, chunk, &mut inj);
            dst_shard.sink_commit(3, &inj, p, &mut split);
            p += chunk.len() as u64;
        }
        assert_eq!(split, reference);
        for n in 0..2 {
            assert_eq!(src_shard.uplink_busy(n), whole.uplink_busy(n));
        }
        // Neither shard ever touched a remote gate, so neither holds one.
        assert_eq!(src_shard.gate_nodes_allocated(), 2);
        assert_eq!(dst_shard.gate_nodes_allocated(), 2);
        assert_eq!(src_shard.bytes() + dst_shard.bytes(), whole.bytes());
    }

    #[test]
    fn back_to_back_train_arrivals_form_a_stride() {
        // Equal members emitted at the same instant: arrival spread is
        // first + i * wire_time.
        let mut f = fabric(2);
        let members: Vec<TrainMember> = (0..4)
            .map(|_| TrainMember {
                at: Ns(0),
                bytes: 10_000,
                nreqs: 1,
            })
            .collect();
        let mut out = Vec::new();
        f.transfer_train(0, 1, &members, &mut out);
        let stride = f.wire_time(10_000, 1);
        for (i, s) in out.iter().enumerate() {
            assert_eq!(s.arrival, out[0].arrival + Ns(stride.0 * i as u64));
        }
        assert_eq!(f.max_train_len(), 4);
    }

    #[test]
    fn intra_node_train_skips_the_nic() {
        let mut f = fabric(2);
        let members = [
            TrainMember {
                at: Ns(0),
                bytes: 2000,
                nreqs: 5,
            },
            TrainMember {
                at: Ns(100),
                bytes: 2000,
                nreqs: 5,
            },
        ];
        let mut out = Vec::new();
        f.transfer_train(1, 1, &members, &mut out);
        assert_eq!(out[0].arrival, Ns(1200));
        assert_eq!(out[1].arrival, Ns(1300));
        assert_eq!(f.intra_messages(), 2);
        assert_eq!(f.uplink_busy(1), Ns::ZERO);
    }

    #[test]
    fn wire_time_is_the_steady_state_denominator() {
        let f = fabric(2);
        let bytes = 40_000u64;
        let wt = f.wire_time(bytes, 4);
        assert_eq!(wt, Ns(40_000 + 400));
        let bw = f.steady_state_bw(bytes, 4);
        assert!((bw - bytes as f64 / wt.as_secs_f64()).abs() < 1e-6);
    }

    #[test]
    fn default_config_hits_omnipath_ballpark() {
        let f = Fabric::new(FabricConfig::default(), 2);
        // 4 MiB in 10KB requests ≈ 11+ GB/s; in 4KiB requests ≈ 10 GB/s.
        let bw_pico = f.steady_state_bw(4 << 20, (4u64 << 20).div_ceil(10 * 1024));
        let bw_linux = f.steady_state_bw(4 << 20, (4u64 << 20) / 4096);
        assert!(bw_pico > 10.5e9, "pico {bw_pico}");
        assert!(bw_linux < bw_pico, "linux {bw_linux} < pico {bw_pico}");
        let gain = bw_pico / bw_linux;
        assert!((1.05..1.35).contains(&gain), "gain {gain}");
    }
}
