//! The per-rank MPI engine: executes an op-list program over a PSM
//! endpoint, tracking per-call time like `I_MPI_STATS` does.
//!
//! The engine is host-driven: the node model calls [`MpiRank::step`]
//! whenever the rank is runnable, executes whatever the engine asks for
//! (compute, kernel ops, PSM actions), and feeds completions back via
//! [`MpiRank::on_completion`]. All progress happens inside MPI calls —
//! there is no asynchronous progress thread, which is why blocked time
//! concentrates in `Wait` exactly as the paper's profiles show.

use crate::coll;
use crate::completion::CompletionSet;
use crate::types::{BufId, HostOp, MpiCall, Op, StepResult};
use pico_psm::{Endpoint, MqHandle, Tag};
use pico_sim::{Ns, TimeByKey};

/// Marker for "any source" in [`Op::Irecv`].
pub const ANY_SOURCE: u32 = u32::MAX;

/// Resolves logical buffers to virtual addresses (host-provided).
#[derive(Clone, Debug, Default)]
pub struct BufTable {
    /// `bufs[id]` = base VA of the rank's message buffer `id`.
    pub bufs: Vec<u64>,
    /// Scratch buffer used by collectives.
    pub scratch: u64,
}

impl BufTable {
    /// VA of buffer `id`; panics on unknown ids (program/host mismatch).
    pub fn va(&self, id: BufId) -> u64 {
        self.bufs[id as usize]
    }
}

/// Engine tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Record non-blocking posts under `Start` (persistent-request style
    /// apps like UMT2013 show up this way in profiles).
    pub post_as_start: bool,
    /// Payload bytes of a barrier round.
    pub barrier_bytes: u64,
    /// Payload bytes of a `Cart_create` sync round.
    pub cart_bytes: u64,
    /// Carry real (deterministic-pattern) payloads through the transport
    /// for end-to-end integrity checks. Only for small runs.
    pub backed: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            post_as_start: false,
            barrier_bytes: 8,
            cart_bytes: 64,
            backed: false,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CollKind {
    Dissemination,
    Binomial { root: u32 },
    Ring { group: u32 },
    Scan,
}

struct CollState {
    call: MpiCall,
    kind: CollKind,
    round: u32,
    rounds: u32,
    bytes: u64,
    seq: u64,
    pending: Vec<MqHandle>,
    /// Computation to run after the collective (Cart_create setup).
    then_compute: Option<Ns>,
}

enum Phase {
    Ready,
    Coll(CollState),
    WaitingSet {
        call: MpiCall,
        set: Vec<MqHandle>,
        /// Prefix of `set` already seen completed (a completion stays
        /// until its wait consumes it, so each wake resumes the scan).
        done: usize,
    },
    /// Host is performing InitDevice; barrier follows.
    InitPending {
        call: MpiCall,
    },
    /// Post-collective compute of the current call (kept for debugging).
    CallCompute {
        #[allow(dead_code)]
        call: MpiCall,
    },
    /// Finalize: barrier done, device teardown pending.
    FiniPending,
    Done,
}

/// One rank's MPI engine.
pub struct MpiRank {
    rank: u32,
    nranks: u32,
    cfg: EngineConfig,
    program: Vec<Op>,
    pc: usize,
    phase: Phase,
    outstanding: Vec<MqHandle>,
    completed: CompletionSet,
    /// Spare wait-set buffer: a blocking `Send`/`Recv` takes it and every
    /// finished wait hands its set back, so a wait allocates nothing.
    wait_pool: Vec<MqHandle>,
    coll_seq: u64,
    in_call: Option<(MpiCall, Ns)>,
    profile: TimeByKey<MpiCall>,
    finished_at: Option<Ns>,
}

impl MpiRank {
    /// Create the engine for `rank` of `nranks`, running `program`.
    pub fn new(rank: u32, nranks: u32, cfg: EngineConfig, program: Vec<Op>) -> MpiRank {
        assert!(rank < nranks);
        MpiRank {
            rank,
            nranks,
            cfg,
            program,
            pc: 0,
            phase: Phase::Ready,
            outstanding: Vec::new(),
            completed: CompletionSet::default(),
            wait_pool: Vec::new(),
            coll_seq: 0,
            in_call: None,
            profile: TimeByKey::new(),
            finished_at: None,
        }
    }

    /// This rank's id.
    pub fn rank(&self) -> u32 {
        self.rank
    }
    /// The per-call profile.
    pub fn profile(&self) -> &TimeByKey<MpiCall> {
        &self.profile
    }
    /// When the program finished (set on `Done`).
    pub fn finished_at(&self) -> Option<Ns> {
        self.finished_at
    }
    /// Whether the rank is blocked inside an MPI call.
    pub fn in_mpi(&self) -> bool {
        self.in_call.is_some()
    }

    /// A PSM request completed.
    pub fn on_completion(&mut self, h: MqHandle) {
        self.completed.insert(h);
    }

    /// Debug string: where the engine is stuck.
    pub fn debug_state(&self) -> String {
        let phase = match &self.phase {
            Phase::Ready => "Ready".to_string(),
            Phase::Coll(st) => format!(
                "Coll({:?} round {}/{} pending {:?})",
                st.call, st.round, st.rounds, st.pending
            ),
            Phase::WaitingSet { call, set, .. } => format!("WaitingSet({call:?} {set:?})"),
            Phase::InitPending { .. } => "InitPending".to_string(),
            Phase::CallCompute { .. } => "CallCompute".to_string(),
            Phase::FiniPending => "FiniPending".to_string(),
            Phase::Done => "Done".to_string(),
        };
        let completed: Vec<MqHandle> = self.completed.iter().collect();
        format!(
            "pc={}/{} phase={} outstanding={:?} completed={:?}",
            self.pc,
            self.program.len(),
            phase,
            self.outstanding,
            completed
        )
    }

    /// Block in `call` until `h` completes.
    fn wait_on(&mut self, call: MpiCall, h: MqHandle) {
        let mut set = std::mem::take(&mut self.wait_pool);
        set.push(h);
        self.phase = Phase::WaitingSet { call, set, done: 0 };
    }

    /// Block in `call` until every outstanding request completes. The
    /// spare buffer becomes the new (empty) outstanding list.
    fn wait_outstanding(&mut self, call: MpiCall) {
        let set = std::mem::replace(&mut self.outstanding, std::mem::take(&mut self.wait_pool));
        self.phase = Phase::WaitingSet { call, set, done: 0 };
    }

    /// Restart the completion index at the endpoint's next handle once no
    /// request is live (call right after a wait consumed its set), so it
    /// stays as small as the outstanding window.
    fn rebase_if_idle(completed: &mut CompletionSet, outstanding: &[MqHandle], ep: &Endpoint) {
        if completed.is_empty() && outstanding.is_empty() {
            completed.rebase(ep.next_handle());
        }
    }

    fn open_call(&mut self, call: MpiCall, now: Ns) {
        debug_assert!(self.in_call.is_none(), "nested MPI call");
        self.in_call = Some((call, now));
    }

    fn close_call(&mut self, now: Ns) {
        if let Some((call, t0)) = self.in_call.take() {
            self.profile.record(call, now - t0);
        }
    }

    fn coll_tag(&self, seq: u64, round: u32) -> Tag {
        Tag((1 << 63) | (seq << 16) | round as u64)
    }

    fn issue_round(&mut self, ep: &mut Endpoint, bufs: &BufTable, st: &mut CollState) {
        let xfer = match st.kind {
            CollKind::Dissemination => coll::dissemination_round(self.rank, self.nranks, st.round),
            CollKind::Binomial { root } => {
                coll::bcast_round(self.rank, self.nranks, root, st.round)
            }
            CollKind::Ring { group } => {
                let base = self.rank - self.rank % group;
                coll::alltoall_round(self.rank, base, group, st.round)
            }
            CollKind::Scan => coll::scan_round(self.rank, self.nranks, st.round),
        };
        let tag = self.coll_tag(st.seq, st.round);
        st.pending.clear();
        if let Some(src) = xfer.recv_from {
            st.pending
                .push(ep.irecv(Some(src), tag, bufs.scratch, st.bytes));
        }
        if let Some(dst) = xfer.send_to {
            st.pending
                .push(ep.isend(dst, tag, bufs.scratch, st.bytes, None));
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn start_coll(
        &mut self,
        now: Ns,
        ep: &mut Endpoint,
        bufs: &BufTable,
        call: MpiCall,
        kind: CollKind,
        bytes: u64,
        then_compute: Option<Ns>,
    ) {
        let rounds = match kind {
            CollKind::Dissemination => coll::dissemination_rounds(self.nranks),
            CollKind::Binomial { .. } => coll::bcast_rounds(self.nranks),
            CollKind::Ring { group } => coll::alltoall_rounds(group),
            CollKind::Scan => coll::scan_rounds(self.nranks),
        };
        let seq = self.coll_seq;
        self.coll_seq += 1;
        self.open_call(call, now);
        let mut st = CollState {
            call,
            kind,
            round: 0,
            rounds,
            bytes,
            seq,
            pending: Vec::new(),
            then_compute,
        };
        if rounds > 0 {
            self.issue_round(ep, bufs, &mut st);
        }
        self.phase = Phase::Coll(st);
    }

    /// Deterministic payload pattern for backed runs.
    pub fn pattern(tag: u32, bytes: u64) -> Vec<u8> {
        (0..bytes)
            .map(|i| (tag as u64).wrapping_add(i) as u8)
            .collect()
    }

    fn payload(&self, tag: u32, bytes: u64) -> Option<Vec<u8>> {
        self.cfg.backed.then(|| Self::pattern(tag, bytes))
    }

    fn post_call(&self) -> MpiCall {
        if self.cfg.post_as_start {
            MpiCall::Start
        } else {
            MpiCall::Isend
        }
    }

    /// Advance the rank as far as possible at time `now`.
    pub fn step(&mut self, now: Ns, ep: &mut Endpoint, bufs: &BufTable) -> StepResult {
        loop {
            match &mut self.phase {
                Phase::Done => return StepResult::Done,
                Phase::Ready => {
                    let Some(&op) = self.program.get(self.pc) else {
                        self.phase = Phase::Done;
                        self.finished_at = Some(now);
                        return StepResult::Done;
                    };
                    self.pc += 1;
                    match op {
                        Op::Compute(d) => return StepResult::Computing(d),
                        Op::Init { threaded } => {
                            let call = if threaded {
                                MpiCall::InitThread
                            } else {
                                MpiCall::Init
                            };
                            self.open_call(call, now);
                            self.phase = Phase::InitPending { call };
                            return StepResult::HostCall(HostOp::InitDevice);
                        }
                        Op::Isend {
                            dst,
                            tag,
                            bytes,
                            buf,
                        } => {
                            let payload = self.payload(tag, bytes);
                            let h = ep.isend(dst, Tag(tag as u64), bufs.va(buf), bytes, payload);
                            self.outstanding.push(h);
                            self.profile.record(self.post_call(), Ns::ZERO);
                        }
                        Op::Irecv {
                            src,
                            tag,
                            bytes,
                            buf,
                        } => {
                            let src = (src != ANY_SOURCE).then_some(src);
                            let h = ep.irecv(src, Tag(tag as u64), bufs.va(buf), bytes);
                            self.outstanding.push(h);
                            let call = if self.cfg.post_as_start {
                                MpiCall::Start
                            } else {
                                MpiCall::Irecv
                            };
                            self.profile.record(call, Ns::ZERO);
                        }
                        Op::Send {
                            dst,
                            tag,
                            bytes,
                            buf,
                        } => {
                            let payload = self.payload(tag, bytes);
                            let h = ep.isend(dst, Tag(tag as u64), bufs.va(buf), bytes, payload);
                            self.open_call(MpiCall::Send, now);
                            self.wait_on(MpiCall::Send, h);
                        }
                        Op::Recv {
                            src,
                            tag,
                            bytes,
                            buf,
                        } => {
                            let src = (src != ANY_SOURCE).then_some(src);
                            let h = ep.irecv(src, Tag(tag as u64), bufs.va(buf), bytes);
                            self.open_call(MpiCall::Recv, now);
                            self.wait_on(MpiCall::Recv, h);
                        }
                        Op::WaitAll => {
                            self.open_call(MpiCall::Waitall, now);
                            self.wait_outstanding(MpiCall::Waitall);
                        }
                        Op::WaitEach => {
                            self.open_call(MpiCall::Wait, now);
                            self.wait_outstanding(MpiCall::Wait);
                        }
                        Op::Barrier => {
                            let b = self.cfg.barrier_bytes;
                            self.start_coll(
                                now,
                                ep,
                                bufs,
                                MpiCall::Barrier,
                                CollKind::Dissemination,
                                b,
                                None,
                            );
                        }
                        Op::Allreduce { bytes } => self.start_coll(
                            now,
                            ep,
                            bufs,
                            MpiCall::Allreduce,
                            CollKind::Dissemination,
                            bytes,
                            None,
                        ),
                        Op::Bcast { root, bytes } => self.start_coll(
                            now,
                            ep,
                            bufs,
                            MpiCall::Bcast,
                            CollKind::Binomial { root },
                            bytes,
                            None,
                        ),
                        Op::Alltoallv {
                            group,
                            bytes_per_peer,
                        } => self.start_coll(
                            now,
                            ep,
                            bufs,
                            MpiCall::Alltoallv,
                            CollKind::Ring { group },
                            bytes_per_peer,
                            None,
                        ),
                        Op::Scan { bytes } => self.start_coll(
                            now,
                            ep,
                            bufs,
                            MpiCall::Scan,
                            CollKind::Scan,
                            bytes,
                            None,
                        ),
                        Op::CartCreate { setup } => {
                            let b = self.cfg.cart_bytes;
                            self.start_coll(
                                now,
                                ep,
                                bufs,
                                MpiCall::CartCreate,
                                CollKind::Dissemination,
                                b,
                                Some(setup),
                            );
                        }
                        Op::CommCreate => self.start_coll(
                            now,
                            ep,
                            bufs,
                            MpiCall::CommCreate,
                            CollKind::Dissemination,
                            8,
                            Some(Ns::micros(20)),
                        ),
                        Op::MmapScratch { bytes } => {
                            return StepResult::HostCall(HostOp::MmapScratch { bytes });
                        }
                        Op::MunmapScratch => {
                            return StepResult::HostCall(HostOp::MunmapScratch);
                        }
                        Op::ReadInput { bytes } => {
                            return StepResult::HostCall(HostOp::ReadInput { bytes });
                        }
                        Op::Nanosleep(d) => {
                            return StepResult::HostCall(HostOp::Nanosleep(d));
                        }
                        Op::Finalize => {
                            let b = self.cfg.barrier_bytes;
                            self.start_coll(
                                now,
                                ep,
                                bufs,
                                MpiCall::Finalize,
                                CollKind::Dissemination,
                                b,
                                None,
                            );
                        }
                    }
                }
                Phase::InitPending { call } => {
                    // Host performed InitDevice; synchronize under the
                    // same call attribution.
                    let call = *call;
                    let b = self.cfg.barrier_bytes;
                    // Close/reopen bookkeeping is unnecessary: keep the
                    // call open and run the barrier rounds inline.
                    let seq = self.coll_seq;
                    self.coll_seq += 1;
                    let mut st = CollState {
                        call,
                        kind: CollKind::Dissemination,
                        round: 0,
                        rounds: coll::dissemination_rounds(self.nranks),
                        bytes: b,
                        seq,
                        pending: Vec::new(),
                        then_compute: None,
                    };
                    if st.rounds > 0 {
                        self.issue_round(ep, bufs, &mut st);
                    }
                    self.phase = Phase::Coll(st);
                }
                Phase::WaitingSet { set, done, .. } => {
                    while *done < set.len() && self.completed.contains(set[*done]) {
                        *done += 1;
                    }
                    if *done < set.len() {
                        return StepResult::Blocked;
                    }
                    let Phase::WaitingSet { mut set, .. } =
                        std::mem::replace(&mut self.phase, Phase::Ready)
                    else {
                        unreachable!()
                    };
                    for &h in &set {
                        self.completed.remove(h);
                    }
                    set.clear();
                    self.wait_pool = set;
                    Self::rebase_if_idle(&mut self.completed, &self.outstanding, ep);
                    self.close_call(now);
                }
                Phase::Coll(st) => {
                    if st.pending.iter().all(|&h| self.completed.contains(h)) {
                        for &h in &st.pending {
                            self.completed.remove(h);
                        }
                        Self::rebase_if_idle(&mut self.completed, &self.outstanding, ep);
                        st.round += 1;
                        if st.round >= st.rounds {
                            let call = st.call;
                            let then = st.then_compute;
                            if let Some(d) = then {
                                self.phase = Phase::CallCompute { call };
                                return StepResult::Computing(d);
                            }
                            let fin = call == MpiCall::Finalize;
                            self.phase = if fin {
                                Phase::FiniPending
                            } else {
                                Phase::Ready
                            };
                            if fin {
                                // Keep the Finalize call open through the
                                // device teardown.
                                return StepResult::HostCall(HostOp::FiniDevice);
                            }
                            self.close_call(now);
                        } else {
                            let mut taken = std::mem::replace(
                                &mut self.phase,
                                Phase::Ready, // placeholder
                            );
                            let mut idle_round = false;
                            if let Phase::Coll(ref mut st) = taken {
                                self.issue_round(ep, bufs, st);
                                // Rounds in which this rank neither sends
                                // nor receives (binomial trees) must not
                                // block - loop to advance past them.
                                idle_round = st.pending.is_empty();
                            }
                            self.phase = taken;
                            if !idle_round {
                                return StepResult::Blocked;
                            }
                        }
                    } else {
                        return StepResult::Blocked;
                    }
                }
                Phase::CallCompute { call: _ } => {
                    // The post-collective compute finished (host stepped
                    // us at its end time).
                    self.phase = Phase::Ready;
                    self.close_call(now);
                }
                Phase::FiniPending => {
                    self.close_call(now);
                    self.finished_at = Some(now);
                    self.phase = Phase::Done;
                    return StepResult::Done;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Op;
    use pico_psm::{PsmAction, PsmConfig, PsmPacket};

    /// Zero-cost loopback world: N ranks, instant packets, instant host
    /// ops. Verifies program semantics (completion, matching, absence of
    /// deadlock), not timing.
    struct World {
        ranks: Vec<MpiRank>,
        eps: Vec<Endpoint>,
        bufs: BufTable,
        host_ops: Vec<(u32, HostOp)>,
    }

    impl World {
        fn new(programs: Vec<Vec<Op>>) -> World {
            Self::with_cfg(programs, EngineConfig::default())
        }

        fn with_cfg(programs: Vec<Vec<Op>>, cfg: EngineConfig) -> World {
            let n = programs.len() as u32;
            World {
                ranks: programs
                    .into_iter()
                    .enumerate()
                    .map(|(r, p)| MpiRank::new(r as u32, n, cfg, p))
                    .collect(),
                eps: (0..n)
                    .map(|r| Endpoint::new(r, PsmConfig::default()))
                    .collect(),
                bufs: BufTable {
                    bufs: (0..64).map(|i| 0x1000_0000 + i * 0x100_0000).collect(),
                    scratch: 0x9000_0000,
                },
                host_ops: Vec::new(),
            }
        }

        fn pump(&mut self) -> bool {
            let mut any = false;
            for r in 0..self.eps.len() {
                for a in self.eps[r].drain_actions() {
                    any = true;
                    match a {
                        PsmAction::PioSend { dst, packet } => {
                            self.eps[dst as usize].on_packet(r as u32, packet);
                        }
                        PsmAction::TidRegister {
                            src,
                            msg_id,
                            window,
                            ..
                        } => {
                            self.eps[r].on_tid_registered(src, msg_id, window, vec![1]);
                        }
                        PsmAction::TidUnregister { .. } => {}
                        PsmAction::SdmaSend {
                            dst,
                            msg_id,
                            window,
                            len,
                            payload,
                            ..
                        } => {
                            self.eps[dst as usize].on_packet(
                                r as u32,
                                PsmPacket::SdmaData {
                                    msg_id,
                                    window,
                                    len,
                                    payload,
                                },
                            );
                            self.eps[r].on_sdma_sent(msg_id, window);
                        }
                        PsmAction::Completed { handle, .. } => {
                            self.ranks[r].on_completion(handle);
                        }
                    }
                }
            }
            any
        }

        /// Run to completion; panics on deadlock.
        #[allow(clippy::needless_range_loop)] // r indexes three parallel arrays
        fn run(&mut self) {
            let n = self.ranks.len();
            let mut done = vec![false; n];
            let mut idle_sweeps = 0;
            while done.iter().any(|d| !d) {
                let mut progressed = false;
                for r in 0..n {
                    if done[r] {
                        continue;
                    }
                    loop {
                        let res = self.ranks[r].step(Ns::ZERO, &mut self.eps[r], &self.bufs);
                        if self.pump() {
                            progressed = true;
                        }
                        match res {
                            StepResult::Computing(_) => {
                                progressed = true;
                                continue;
                            }
                            StepResult::HostCall(op) => {
                                self.host_ops.push((r as u32, op));
                                progressed = true;
                                continue;
                            }
                            StepResult::Blocked => break,
                            StepResult::Done => {
                                done[r] = true;
                                break;
                            }
                        }
                    }
                }
                if !progressed {
                    idle_sweeps += 1;
                    assert!(idle_sweeps < 4, "deadlock: no progress, done={done:?}");
                } else {
                    idle_sweeps = 0;
                }
            }
        }
    }

    fn spmd(n: u32, f: impl Fn(u32) -> Vec<Op>) -> Vec<Vec<Op>> {
        (0..n).map(f).collect()
    }

    #[test]
    fn init_compute_finalize() {
        let mut w = World::new(spmd(4, |_| {
            vec![
                Op::Init { threaded: false },
                Op::Compute(Ns::millis(1)),
                Op::Finalize,
            ]
        }));
        w.run();
        // Every rank did InitDevice and FiniDevice.
        let inits = w
            .host_ops
            .iter()
            .filter(|(_, o)| *o == HostOp::InitDevice)
            .count();
        let finis = w
            .host_ops
            .iter()
            .filter(|(_, o)| *o == HostOp::FiniDevice)
            .count();
        assert_eq!(inits, 4);
        assert_eq!(finis, 4);
        // Init was profiled on every rank.
        for r in &w.ranks {
            assert_eq!(r.profile().get(&MpiCall::Init).0, 1);
            assert_eq!(r.profile().get(&MpiCall::Finalize).0, 1);
        }
    }

    #[test]
    fn halo_exchange_ring() {
        // Each rank isends to both neighbours, irecvs from both, waitall.
        let n = 8;
        let mut w = World::new(spmd(n, |r| {
            let left = (r + n - 1) % n;
            let right = (r + 1) % n;
            vec![
                Op::Irecv {
                    src: left,
                    tag: 1,
                    bytes: 4096,
                    buf: 0,
                },
                Op::Irecv {
                    src: right,
                    tag: 2,
                    bytes: 4096,
                    buf: 1,
                },
                Op::Isend {
                    dst: right,
                    tag: 1,
                    bytes: 4096,
                    buf: 2,
                },
                Op::Isend {
                    dst: left,
                    tag: 2,
                    bytes: 4096,
                    buf: 3,
                },
                Op::WaitAll,
            ]
        }));
        w.run();
        for r in &w.ranks {
            assert_eq!(r.profile().get(&MpiCall::Waitall).0, 1);
            assert_eq!(r.profile().get(&MpiCall::Isend).0, 2);
        }
    }

    #[test]
    fn rendezvous_halo_exchange() {
        // Large messages force the full RTS/CTS/TID path.
        let n = 4;
        let mut w = World::new(spmd(n, |r| {
            let peer = r ^ 1;
            vec![
                Op::Irecv {
                    src: peer,
                    tag: 9,
                    bytes: 1 << 20,
                    buf: 0,
                },
                Op::Isend {
                    dst: peer,
                    tag: 9,
                    bytes: 1 << 20,
                    buf: 1,
                },
                Op::WaitEach,
            ]
        }));
        w.run();
        for r in &w.ranks {
            assert_eq!(r.profile().get(&MpiCall::Wait).0, 1);
        }
    }

    #[test]
    fn collectives_complete_for_odd_sizes() {
        for n in [1u32, 2, 3, 5, 8, 13] {
            let mut w = World::new(spmd(n, |_| {
                vec![
                    Op::Barrier,
                    Op::Allreduce { bytes: 64 },
                    Op::Bcast {
                        root: 0,
                        bytes: 4096,
                    },
                    Op::Scan { bytes: 8 },
                ]
            }));
            w.run();
            for r in &w.ranks {
                assert_eq!(r.profile().get(&MpiCall::Barrier).0, 1, "n={n}");
                assert_eq!(r.profile().get(&MpiCall::Allreduce).0, 1);
                assert_eq!(r.profile().get(&MpiCall::Bcast).0, 1);
                assert_eq!(r.profile().get(&MpiCall::Scan).0, 1);
            }
        }
    }

    #[test]
    fn alltoallv_within_groups() {
        let n = 8;
        let mut w = World::new(spmd(n, |_| {
            vec![Op::Alltoallv {
                group: 4,
                bytes_per_peer: 1024,
            }]
        }));
        w.run();
        for r in &w.ranks {
            assert_eq!(r.profile().get(&MpiCall::Alltoallv).0, 1);
        }
    }

    #[test]
    fn blocking_send_recv_pair() {
        let mut w = World::new(vec![
            vec![Op::Send {
                dst: 1,
                tag: 5,
                bytes: 100,
                buf: 0,
            }],
            vec![Op::Recv {
                src: 0,
                tag: 5,
                bytes: 100,
                buf: 0,
            }],
        ]);
        w.run();
        assert_eq!(w.ranks[0].profile().get(&MpiCall::Send).0, 1);
        assert_eq!(w.ranks[1].profile().get(&MpiCall::Recv).0, 1);
    }

    #[test]
    fn any_source_recv() {
        let mut w = World::new(vec![
            vec![Op::Send {
                dst: 1,
                tag: 3,
                bytes: 64,
                buf: 0,
            }],
            vec![Op::Recv {
                src: ANY_SOURCE,
                tag: 3,
                bytes: 64,
                buf: 0,
            }],
        ]);
        w.run();
        assert_eq!(w.ranks[1].profile().get(&MpiCall::Recv).0, 1);
    }

    #[test]
    fn cart_create_and_comm_create() {
        let mut w = World::new(spmd(4, |_| {
            vec![
                Op::CartCreate {
                    setup: Ns::micros(100),
                },
                Op::CommCreate,
            ]
        }));
        w.run();
        for r in &w.ranks {
            assert_eq!(r.profile().get(&MpiCall::CartCreate).0, 1);
            assert_eq!(r.profile().get(&MpiCall::CommCreate).0, 1);
        }
    }

    #[test]
    fn post_as_start_attribution() {
        let cfg = EngineConfig {
            post_as_start: true,
            ..Default::default()
        };
        let mut w = World::with_cfg(
            spmd(2, |r| {
                let peer = 1 - r;
                vec![
                    Op::Irecv {
                        src: peer,
                        tag: 1,
                        bytes: 64,
                        buf: 0,
                    },
                    Op::Isend {
                        dst: peer,
                        tag: 1,
                        bytes: 64,
                        buf: 1,
                    },
                    Op::WaitEach,
                ]
            }),
            cfg,
        );
        w.run();
        // Posts recorded under Start, none under Isend/Irecv.
        assert_eq!(w.ranks[0].profile().get(&MpiCall::Start).0, 2);
        assert_eq!(w.ranks[0].profile().get(&MpiCall::Isend).0, 0);
    }

    #[test]
    fn scratch_and_io_host_ops_flow_through() {
        let mut w = World::new(spmd(2, |_| {
            vec![
                Op::MmapScratch { bytes: 1 << 20 },
                Op::ReadInput { bytes: 4096 },
                Op::MunmapScratch,
                Op::Nanosleep(Ns::micros(10)),
            ]
        }));
        w.run();
        let ops: Vec<HostOp> = w.host_ops.iter().map(|&(_, o)| o).collect();
        assert!(ops.contains(&HostOp::MmapScratch { bytes: 1 << 20 }));
        assert!(ops.contains(&HostOp::MunmapScratch));
        assert!(ops.contains(&HostOp::ReadInput { bytes: 4096 }));
        assert!(ops.contains(&HostOp::Nanosleep(Ns::micros(10))));
    }

    #[test]
    fn repeated_collectives_do_not_cross_match() {
        // Back-to-back barriers/allreduces must not match across
        // instances (sequence numbers in tags).
        let mut w = World::new(spmd(3, |_| {
            let mut p = Vec::new();
            for _ in 0..10 {
                p.push(Op::Barrier);
                p.push(Op::Allreduce { bytes: 32 });
            }
            p
        }));
        w.run();
        for r in &w.ranks {
            assert_eq!(r.profile().get(&MpiCall::Barrier).0, 10);
            assert_eq!(r.profile().get(&MpiCall::Allreduce).0, 10);
        }
    }

    #[test]
    fn debug_state_lists_completions_sorted() {
        let recv = |tag| Op::Irecv {
            src: 1,
            tag,
            bytes: 8,
            buf: 0,
        };
        let program = vec![recv(1), recv(2), recv(3), Op::WaitAll];
        let mut rank = MpiRank::new(0, 2, EngineConfig::default(), program);
        let mut ep = Endpoint::new(0, PsmConfig::default());
        let bufs = BufTable {
            bufs: vec![0x1000],
            scratch: 0x2000,
        };
        assert!(matches!(
            rank.step(Ns::ZERO, &mut ep, &bufs),
            StepResult::Blocked
        ));
        // Completions arrive out of handle order.
        rank.on_completion(MqHandle(3));
        rank.on_completion(MqHandle(1));
        assert!(matches!(
            rank.step(Ns::ZERO, &mut ep, &bufs),
            StepResult::Blocked
        ));
        assert!(
            rank.debug_state()
                .ends_with("completed=[MqHandle(1), MqHandle(3)]"),
            "{}",
            rank.debug_state()
        );
        rank.on_completion(MqHandle(2));
        assert!(matches!(
            rank.step(Ns::ZERO, &mut ep, &bufs),
            StepResult::Done
        ));
        assert!(rank.debug_state().ends_with("completed=[]"));
    }
}
