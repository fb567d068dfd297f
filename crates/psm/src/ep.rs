//! The PSM endpoint: one per MPI rank.
//!
//! A pure state machine: calls like [`Endpoint::isend`] and packet
//! deliveries push [`PsmAction`]s onto an internal queue that the host
//! (the node model, or a loopback harness in tests) executes — PIO sends,
//! TID registrations (`ioctl`), SDMA submissions (`writev`). This split
//! keeps protocol logic testable without any kernel or fabric model.

use crate::mq::{MatchedQueue, MqHandle, PostedRecv, RankId, Tag};
use crate::proto::{PsmAction, PsmPacket};
use pico_sim::FastMap;

/// Endpoint configuration.
#[derive(Clone, Copy, Debug)]
pub struct PsmConfig {
    /// Messages at or below this use eager PIO; above it, rendezvous
    /// SDMA (PSM default: 64 KB).
    pub eager_threshold: u64,
    /// Rendezvous window: TID registration and SDMA granularity.
    pub window: u64,
    /// Windows registered ahead of the data (pipelining depth).
    pub pipeline_depth: u32,
    /// Ranks per node, used to route intra-node traffic through shared
    /// memory (eager path, no NIC) regardless of size. 0 = unknown, use
    /// the size threshold only.
    pub ranks_per_node: u32,
}

impl Default for PsmConfig {
    fn default() -> Self {
        PsmConfig {
            eager_threshold: 64 * 1024,
            window: 512 * 1024,
            // Deep enough to cover a 4 MB message: the receiver registers
            // all its windows up front, so the CTS burst (and the SDMA
            // window burst it triggers) forms one packet train on the
            // wire instead of trickling out two windows at a time.
            // 8 × 512 KiB windows ≈ 1024 RcvArray entries worst-case
            // (fragmented 4 KiB pages), half a context's 2048 budget.
            pipeline_depth: 8,
            ranks_per_node: 0,
        }
    }
}

/// Body stored for unexpected arrivals.
#[derive(Clone, Debug)]
enum ArrivalBody {
    Eager { len: u64, payload: Option<Vec<u8>> },
    Rts { len: u64, msg_id: u64 },
}

struct SendState {
    dst: RankId,
    handle: MqHandle,
    va: u64,
    /// Total message length (kept for diagnostics and debug asserts).
    #[allow(dead_code)]
    len: u64,
    windows: u32,
    windows_done: u32,
    payload: Option<Vec<u8>>,
}

struct RecvState {
    handle: MqHandle,
    va: u64,
    len: u64,
    windows: u32,
    next_to_register: u32,
    delivered: u32,
    payload: Option<Vec<u8>>,
    any_payload: bool,
    /// Registration cookies per window, kept until the data lands.
    tids: FastMap<u32, Vec<u16>>,
}

/// A PSM endpoint.
pub struct Endpoint {
    rank: RankId,
    cfg: PsmConfig,
    mq: MatchedQueue<ArrivalBody>,
    next_handle: u64,
    next_msg_id: u64,
    sends: FastMap<u64, SendState>,
    recvs: FastMap<(RankId, u64), RecvState>,
    actions: Vec<PsmAction>,
    eager_sent: u64,
    rendezvous_sent: u64,
}

impl Endpoint {
    /// An endpoint for `rank`.
    pub fn new(rank: RankId, cfg: PsmConfig) -> Endpoint {
        Endpoint {
            rank,
            cfg,
            mq: MatchedQueue::new(),
            next_handle: 1,
            next_msg_id: 1,
            sends: FastMap::new(),
            recvs: FastMap::new(),
            actions: Vec::new(),
            eager_sent: 0,
            rendezvous_sent: 0,
        }
    }

    /// This endpoint's rank.
    pub fn rank(&self) -> RankId {
        self.rank
    }
    /// The configuration.
    pub fn config(&self) -> PsmConfig {
        self.cfg
    }
    /// Eager messages sent.
    pub fn eager_sent(&self) -> u64 {
        self.eager_sent
    }
    /// Rendezvous messages sent.
    pub fn rendezvous_sent(&self) -> u64 {
        self.rendezvous_sent
    }
    /// In-flight send messages.
    pub fn sends_in_flight(&self) -> usize {
        self.sends.len()
    }
    /// In-flight receive messages (matched rendezvous).
    pub fn recvs_in_flight(&self) -> usize {
        self.recvs.len()
    }
    /// `(posted, unexpected)` queue depths.
    pub fn mq_depths(&self) -> (usize, usize) {
        (self.mq.posted_len(), self.mq.unexpected_len())
    }

    /// The handle the next `isend`/`irecv` will return (handles are
    /// allocated densely, in call order).
    pub fn next_handle(&self) -> MqHandle {
        MqHandle(self.next_handle)
    }

    fn alloc_handle(&mut self) -> MqHandle {
        let h = MqHandle(self.next_handle);
        self.next_handle += 1;
        h
    }

    /// Drain the pending actions for the host to execute.
    ///
    /// Ordering contract: actions of the same kind produced by one
    /// protocol step come out **contiguously** (a rendezvous start emits
    /// its `TidRegister`s as one run; the registrations' `Cts` sends come
    /// out as one run). The host's packet-train accumulator relies on
    /// this to coalesce a burst into a single fabric reservation.
    pub fn drain_actions(&mut self) -> Vec<PsmAction> {
        std::mem::take(&mut self.actions)
    }
    /// Drain the pending actions into `out`, reusing its capacity. The
    /// cluster hot loop uses this with a pooled scratch vector so a
    /// message send costs no allocation.
    pub fn drain_actions_into(&mut self, out: &mut Vec<PsmAction>) {
        out.append(&mut self.actions);
    }
    /// Whether actions are pending.
    pub fn has_actions(&self) -> bool {
        !self.actions.is_empty()
    }

    /// Non-blocking send. Returns the completion handle.
    pub fn isend(
        &mut self,
        dst: RankId,
        tag: Tag,
        va: u64,
        len: u64,
        payload: Option<Vec<u8>>,
    ) -> MqHandle {
        debug_assert!(payload.as_ref().is_none_or(|p| p.len() as u64 == len));
        let handle = self.alloc_handle();
        let same_node = self.cfg.ranks_per_node > 0
            && dst / self.cfg.ranks_per_node == self.rank / self.cfg.ranks_per_node;
        if len <= self.cfg.eager_threshold || same_node {
            self.eager_sent += 1;
            self.actions.push(PsmAction::PioSend {
                dst,
                packet: PsmPacket::Eager { tag, len, payload },
            });
            // Eager sends are buffered: locally complete immediately.
            self.actions.push(PsmAction::Completed {
                handle,
                payload: None,
            });
        } else {
            self.rendezvous_sent += 1;
            let msg_id = self.next_msg_id;
            self.next_msg_id += 1;
            let windows = len.div_ceil(self.cfg.window) as u32;
            self.sends.insert(
                msg_id,
                SendState {
                    dst,
                    handle,
                    va,
                    len,
                    windows,
                    windows_done: 0,
                    payload,
                },
            );
            self.actions.push(PsmAction::PioSend {
                dst,
                packet: PsmPacket::Rts { tag, len, msg_id },
            });
        }
        handle
    }

    /// Non-blocking receive. Returns the completion handle.
    pub fn irecv(&mut self, src: Option<RankId>, tag: Tag, va: u64, len: u64) -> MqHandle {
        let handle = self.alloc_handle();
        let posted = PostedRecv {
            src,
            tag,
            va,
            len,
            handle,
        };
        if let Some(unexpected) = self.mq.post_recv(posted.clone()) {
            match unexpected.body {
                ArrivalBody::Eager { len: elen, payload } => {
                    self.complete_eager_recv(handle, elen, payload);
                }
                ArrivalBody::Rts { len: rlen, msg_id } => {
                    self.start_rendezvous(unexpected.src, msg_id, rlen, &posted);
                }
            }
        }
        handle
    }

    fn complete_eager_recv(&mut self, handle: MqHandle, _len: u64, payload: Option<Vec<u8>>) {
        self.actions.push(PsmAction::Completed { handle, payload });
    }

    fn window_extent(&self, len: u64, window: u32) -> (u64, u64) {
        let offset = window as u64 * self.cfg.window;
        let wlen = self.cfg.window.min(len - offset);
        (offset, wlen)
    }

    fn start_rendezvous(&mut self, src: RankId, msg_id: u64, len: u64, posted: &PostedRecv) {
        let windows = len.div_ceil(self.cfg.window) as u32;
        let mut st = RecvState {
            handle: posted.handle,
            va: posted.va,
            len,
            windows,
            next_to_register: 0,
            delivered: 0,
            payload: None,
            any_payload: false,
            tids: FastMap::new(),
        };
        // Register up to `pipeline_depth` windows ahead.
        let prefill = self.cfg.pipeline_depth.min(windows);
        for _ in 0..prefill {
            let w = st.next_to_register;
            st.next_to_register += 1;
            let (offset, wlen) = self.window_extent(len, w);
            self.actions.push(PsmAction::TidRegister {
                src,
                msg_id,
                window: w,
                va: posted.va + offset,
                len: wlen,
            });
        }
        self.recvs.insert((src, msg_id), st);
    }

    /// A packet arrived from `src`.
    pub fn on_packet(&mut self, src: RankId, packet: PsmPacket) {
        match packet {
            PsmPacket::Eager { tag, len, payload } => {
                if let Some((posted, ArrivalBody::Eager { len, payload })) =
                    self.mq
                        .match_arrival(src, tag, ArrivalBody::Eager { len, payload })
                {
                    self.complete_eager_recv(posted.handle, len, payload);
                }
            }
            PsmPacket::Rts { tag, len, msg_id } => {
                if let Some((posted, _)) =
                    self.mq
                        .match_arrival(src, tag, ArrivalBody::Rts { len, msg_id })
                {
                    self.start_rendezvous(src, msg_id, len, &posted);
                }
            }
            PsmPacket::Cts {
                msg_id,
                window,
                offset,
                len,
            } => {
                let Some(send) = self.sends.get(&msg_id) else {
                    debug_assert!(false, "CTS for unknown send {msg_id}");
                    return;
                };
                let payload = send
                    .payload
                    .as_ref()
                    .map(|p| p[offset as usize..(offset + len) as usize].to_vec());
                self.actions.push(PsmAction::SdmaSend {
                    dst: send.dst,
                    msg_id,
                    window,
                    va: send.va + offset,
                    len,
                    payload,
                });
            }
            PsmPacket::SdmaData {
                msg_id,
                window,
                len: wlen,
                payload,
            } => {
                self.on_window_delivered(src, msg_id, window, wlen, payload);
            }
        }
    }

    fn on_window_delivered(
        &mut self,
        src: RankId,
        msg_id: u64,
        window: u32,
        wlen: u64,
        payload: Option<Vec<u8>>,
    ) {
        let Some(st) = self.recvs.get_mut(&(src, msg_id)) else {
            debug_assert!(false, "data for unknown recv ({src},{msg_id})");
            return;
        };
        if let Some(p) = payload {
            let total = st.len as usize;
            let buf = st.payload.get_or_insert_with(|| vec![0; total]);
            let offset = window as u64 * self.cfg.window;
            buf[offset as usize..offset as usize + wlen as usize].copy_from_slice(&p);
            st.any_payload = true;
        }
        st.delivered += 1;
        // Unregister the window's TIDs now that its data landed.
        if let Some(tids) = st.tids.remove(&window) {
            let offset = window as u64 * self.cfg.window;
            let len = self.cfg.window.min(st.len - offset);
            let va = st.va + offset;
            self.actions.push(PsmAction::TidUnregister {
                src,
                msg_id,
                window,
                tids,
                va,
                len,
            });
        }
        // Pipeline: register the next window, if any remain.
        if st.next_to_register < st.windows {
            let w = st.next_to_register;
            st.next_to_register += 1;
            let (offset, len) = {
                let offset = w as u64 * self.cfg.window;
                (offset, self.cfg.window.min(st.len - offset))
            };
            let va = st.va + offset;
            self.actions.push(PsmAction::TidRegister {
                src,
                msg_id,
                window: w,
                va,
                len,
            });
        }
        if st.delivered == st.windows {
            let st = self.recvs.remove(&(src, msg_id)).expect("just had it");
            self.actions.push(PsmAction::Completed {
                handle: st.handle,
                payload: if st.any_payload { st.payload } else { None },
            });
        }
    }

    /// The kernel registered TIDs for a window: keep the cookie (it is
    /// surrendered when the window's data lands) and send CTS.
    pub fn on_tid_registered(&mut self, src: RankId, msg_id: u64, window: u32, tids: Vec<u16>) {
        let Some(st) = self.recvs.get_mut(&(src, msg_id)) else {
            debug_assert!(false, "TID registration for unknown recv");
            return;
        };
        st.tids.insert(window, tids);
        let (offset, len) = {
            let offset = window as u64 * self.cfg.window;
            (offset, self.cfg.window.min(st.len - offset))
        };
        self.actions.push(PsmAction::PioSend {
            dst: src,
            packet: PsmPacket::Cts {
                msg_id,
                window,
                offset,
                len,
            },
        });
    }

    /// The kernel finished submitting (and the wire finished sending)
    /// one window of our rendezvous send.
    pub fn on_sdma_sent(&mut self, msg_id: u64, _window: u32) {
        self.on_sdma_sent_batch(msg_id, 1);
    }

    /// Batched completion: `windows` windows of one rendezvous send
    /// finished together (coalesced IRQs of a pipelined burst). One
    /// progress-state lookup for the whole batch; equivalent to that many
    /// [`on_sdma_sent`](Self::on_sdma_sent) calls.
    pub fn on_sdma_sent_batch(&mut self, msg_id: u64, windows: u32) {
        let Some(st) = self.sends.get_mut(&msg_id) else {
            debug_assert!(false, "completion for unknown send {msg_id}");
            return;
        };
        st.windows_done += windows;
        debug_assert!(
            st.windows_done <= st.windows,
            "more window completions than windows"
        );
        if st.windows_done == st.windows {
            let st = self.sends.remove(&msg_id).expect("just had it");
            self.actions.push(PsmAction::Completed {
                handle: st.handle,
                payload: None,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{PsmAction, PsmPacket};
    use std::collections::VecDeque;

    /// A zero-latency loopback world wiring two endpoints together and
    /// executing their actions: packets are delivered instantly, TID
    /// registrations succeed with synthetic cookies, SDMA sends become
    /// SdmaData packets plus sender completions.
    struct Loopback {
        eps: Vec<Endpoint>,
        completions: Vec<(RankId, MqHandle, Option<Vec<u8>>)>,
        tid_registered: u64,
        tid_unregistered: u64,
        sdma_sends: u64,
        pio_sends: u64,
    }

    impl Loopback {
        fn new(n: u32) -> Loopback {
            Loopback {
                eps: (0..n)
                    .map(|r| Endpoint::new(r, PsmConfig::default()))
                    .collect(),
                completions: Vec::new(),
                tid_registered: 0,
                tid_unregistered: 0,
                sdma_sends: 0,
                pio_sends: 0,
            }
        }

        fn with_cfg(n: u32, cfg: PsmConfig) -> Loopback {
            Loopback {
                eps: (0..n).map(|r| Endpoint::new(r, cfg)).collect(),
                completions: Vec::new(),
                tid_registered: 0,
                tid_unregistered: 0,
                sdma_sends: 0,
                pio_sends: 0,
            }
        }

        /// Run until no endpoint has pending actions.
        fn run(&mut self) {
            let mut queue: VecDeque<(u32, PsmAction)> = VecDeque::new();
            loop {
                for (r, ep) in self.eps.iter_mut().enumerate() {
                    for a in ep.drain_actions() {
                        queue.push_back((r as u32, a));
                    }
                }
                let Some((from, action)) = queue.pop_front() else {
                    if self.eps.iter().all(|e| !e.has_actions()) {
                        return;
                    }
                    continue;
                };
                match action {
                    PsmAction::PioSend { dst, packet } => {
                        self.pio_sends += 1;
                        self.eps[dst as usize].on_packet(from, packet);
                    }
                    PsmAction::TidRegister {
                        src,
                        msg_id,
                        window,
                        ..
                    } => {
                        self.tid_registered += 1;
                        // Kernel hands back a cookie of two TIDs.
                        self.eps[from as usize].on_tid_registered(
                            src,
                            msg_id,
                            window,
                            vec![window as u16 * 2, window as u16 * 2 + 1],
                        );
                    }
                    PsmAction::TidUnregister { .. } => {
                        self.tid_unregistered += 1;
                    }
                    PsmAction::SdmaSend {
                        dst,
                        msg_id,
                        window,
                        len,
                        payload,
                        ..
                    } => {
                        self.sdma_sends += 1;
                        // Data placed at the receiver, then the sender's
                        // completion IRQ fires.
                        self.eps[dst as usize].on_packet(
                            from,
                            PsmPacket::SdmaData {
                                msg_id,
                                window,
                                len,
                                payload,
                            },
                        );
                        self.eps[from as usize].on_sdma_sent(msg_id, window);
                    }
                    PsmAction::Completed { handle, payload } => {
                        self.completions.push((from, handle, payload));
                    }
                }
            }
        }

        fn completed(&self, rank: u32, h: MqHandle) -> bool {
            self.completions
                .iter()
                .any(|&(r, ch, _)| r == rank && ch == h)
        }
    }

    #[test]
    fn eager_send_recv_posted_first() {
        let mut w = Loopback::new(2);
        let rh = w.eps[1].irecv(Some(0), Tag(7), 0x1000, 1024);
        let sh = w.eps[0].isend(1, Tag(7), 0x2000, 1024, Some(vec![0xAB; 1024]));
        w.run();
        assert!(w.completed(0, sh));
        assert!(w.completed(1, rh));
        let (_, _, payload) = w
            .completions
            .iter()
            .find(|&&(r, h, _)| r == 1 && h == rh)
            .unwrap();
        assert_eq!(payload.as_ref().unwrap(), &vec![0xAB; 1024]);
        assert_eq!(w.eps[0].eager_sent(), 1);
        assert_eq!(w.sdma_sends, 0);
    }

    #[test]
    fn eager_unexpected_then_recv() {
        let mut w = Loopback::new(2);
        let sh = w.eps[0].isend(1, Tag(9), 0, 512, Some(vec![7; 512]));
        w.run();
        assert!(w.completed(0, sh));
        assert_eq!(w.eps[1].mq_depths(), (0, 1));
        let rh = w.eps[1].irecv(Some(0), Tag(9), 0x5000, 512);
        w.run();
        assert!(w.completed(1, rh));
        assert_eq!(w.eps[1].mq_depths(), (0, 0));
    }

    #[test]
    fn rendezvous_multi_window_with_integrity() {
        let mut w = Loopback::new(2);
        let len = (PsmConfig::default().window * 3 + 1000) as usize;
        let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
        let rh = w.eps[1].irecv(Some(0), Tag(1), 0x10000, len as u64);
        let sh = w.eps[0].isend(1, Tag(1), 0x20000, len as u64, Some(data.clone()));
        w.run();
        assert!(w.completed(0, sh));
        assert!(w.completed(1, rh));
        let (_, _, payload) = w
            .completions
            .iter()
            .find(|&&(r, h, _)| r == 1 && h == rh)
            .unwrap();
        assert_eq!(
            payload.as_ref().unwrap(),
            &data,
            "windowed reassembly must be exact"
        );
        // 4 windows: 4 registrations, 4 SDMA sends, 4 unregistrations.
        assert_eq!(w.tid_registered, 4);
        assert_eq!(w.sdma_sends, 4);
        assert_eq!(w.tid_unregistered, 4);
        assert_eq!(w.eps[0].rendezvous_sent(), 1);
        // No leaked state.
        assert_eq!(w.eps[0].sends_in_flight(), 0);
        assert_eq!(w.eps[1].recvs_in_flight(), 0);
    }

    #[test]
    fn rendezvous_unexpected_rts() {
        let mut w = Loopback::new(2);
        let len = 200 * 1024u64; // > eager threshold
        let sh = w.eps[0].isend(1, Tag(4), 0, len, None);
        w.run();
        // RTS parked as unexpected; sender still in flight.
        assert!(!w.completed(0, sh));
        assert_eq!(w.eps[0].sends_in_flight(), 1);
        let rh = w.eps[1].irecv(Some(0), Tag(4), 0x9000, len);
        w.run();
        assert!(w.completed(0, sh));
        assert!(w.completed(1, rh));
    }

    #[test]
    fn threshold_boundary() {
        let mut w = Loopback::new(2);
        let at = PsmConfig::default().eager_threshold;
        w.eps[1].irecv(Some(0), Tag(1), 0, at);
        w.eps[1].irecv(Some(0), Tag(2), 0, at + 1);
        w.eps[0].isend(1, Tag(1), 0, at, None); // eager
        w.eps[0].isend(1, Tag(2), 0, at + 1, None); // rendezvous
        w.run();
        assert_eq!(w.eps[0].eager_sent(), 1);
        assert_eq!(w.eps[0].rendezvous_sent(), 1);
        assert_eq!(w.sdma_sends, 1);
    }

    #[test]
    fn pipeline_depth_limits_outstanding_registrations() {
        // With depth 1 the registrations are strictly serialized with
        // data windows; the protocol still completes.
        let cfg = PsmConfig {
            pipeline_depth: 1,
            ..Default::default()
        };
        let mut w = Loopback::with_cfg(2, cfg);
        let len = cfg.window * 5;
        let rh = w.eps[1].irecv(Some(0), Tag(3), 0, len);
        let sh = w.eps[0].isend(1, Tag(3), 0, len, None);
        w.run();
        assert!(w.completed(0, sh));
        assert!(w.completed(1, rh));
        assert_eq!(w.tid_registered, 5);
    }

    #[test]
    fn many_concurrent_messages_no_crosstalk() {
        let mut w = Loopback::new(2);
        let len = 150 * 1024u64;
        let mut pairs = Vec::new();
        for i in 0..8u64 {
            let data = vec![i as u8; len as usize];
            let rh = w.eps[1].irecv(Some(0), Tag(100 + i), 0x100000 + i * len, len);
            let sh = w.eps[0].isend(1, Tag(100 + i), 0x900000 + i * len, len, Some(data));
            pairs.push((sh, rh, i));
        }
        w.run();
        for (sh, rh, i) in pairs {
            assert!(w.completed(0, sh));
            let (_, _, payload) = w
                .completions
                .iter()
                .find(|&&(r, h, _)| r == 1 && h == rh)
                .unwrap();
            assert!(payload.as_ref().unwrap().iter().all(|&b| b == i as u8));
        }
    }

    #[test]
    fn rendezvous_start_emits_contiguous_bursts() {
        // The burst contract drain_actions documents: a rendezvous start
        // emits its TidRegister actions as one contiguous run, and the
        // CTS PioSends those registrations trigger come out as one
        // contiguous run — no interleaving that would break a train.
        let depth = PsmConfig::default().pipeline_depth;
        let windows = 6u32.min(depth);
        let len = PsmConfig::default().window * windows as u64;
        let mut a = Endpoint::new(0, PsmConfig::default());
        let mut b = Endpoint::new(1, PsmConfig::default());
        b.irecv(Some(0), Tag(1), 0x1000, len);
        a.isend(1, Tag(1), 0x2000, len, None);
        let rts = a
            .drain_actions()
            .into_iter()
            .find_map(|act| match act {
                PsmAction::PioSend { packet, .. } => Some(packet),
                _ => None,
            })
            .expect("rendezvous send starts with RTS");
        b.on_packet(0, rts);
        let regs = b.drain_actions();
        assert_eq!(regs.len(), windows as usize, "one registration per window");
        for (i, act) in regs.iter().enumerate() {
            let PsmAction::TidRegister {
                window,
                msg_id,
                src,
                ..
            } = act
            else {
                panic!("expected a contiguous TidRegister burst, got {act:?}");
            };
            assert_eq!(*window, i as u32);
            b.on_tid_registered(*src, *msg_id, *window, vec![0, 1]);
        }
        let cts = b.drain_actions();
        assert_eq!(cts.len(), windows as usize);
        for (i, act) in cts.iter().enumerate() {
            let PsmAction::PioSend {
                packet: PsmPacket::Cts { window, .. },
                ..
            } = act
            else {
                panic!("expected a contiguous CTS burst, got {act:?}");
            };
            assert_eq!(*window, i as u32);
        }
    }

    #[test]
    fn any_source_rendezvous() {
        let mut w = Loopback::new(3);
        let len = 100 * 1024u64;
        let rh = w.eps[2].irecv(None, Tag(5), 0, len);
        let sh = w.eps[1].isend(2, Tag(5), 0, len, None);
        w.run();
        assert!(w.completed(1, sh));
        assert!(w.completed(2, rh));
    }
}
