//! The Matched Queues (MQ) facility: tag matching between posted receives
//! and incoming sends, with an unexpected-message queue.

use pico_sim::fastmap::FastMap;
use std::hash::Hash;

/// A rank id in the global job.
pub type RankId = u32;

/// A 64-bit match tag (the MPI layer packs communicator/tag/source bits).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Tag(pub u64);

/// A request handle returned to the caller.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MqHandle(pub u64);

/// A posted receive waiting for a match.
#[derive(Clone, Debug)]
pub struct PostedRecv {
    /// Source filter (`None` = any source).
    pub src: Option<RankId>,
    /// Tag to match exactly.
    pub tag: Tag,
    /// Destination user buffer address.
    pub va: u64,
    /// Buffer capacity.
    pub len: u64,
    /// Completion handle.
    pub handle: MqHandle,
}

/// An arrival with no matching posted receive yet.
#[derive(Clone, Debug)]
pub struct Unexpected<T> {
    /// Sender.
    pub src: RankId,
    /// Tag.
    pub tag: Tag,
    /// Protocol payload (eager data or rendezvous descriptor).
    pub body: T,
}

/// End of a slab list.
const NIL: u32 = u32::MAX;

/// One slab slot: a queued entry (or `None` while on the free list), its
/// post/arrival sequence number, and the next slot of its list.
#[derive(Debug)]
struct Slot<E> {
    entry: Option<E>,
    seq: u32,
    next: u32,
}

/// A matching entry found by [`Lists::find`]: its slot, the slot before
/// it in the same list (for the unlink), and its sequence number.
#[derive(Clone, Copy)]
struct Hit {
    prev: u32,
    slot: u32,
    seq: u32,
}

/// FIFO lists, one per key, threaded through a single slab. Freed slots
/// are reused through an intrusive free list, so a long run's queue
/// allocates only up to its high-water mark. The index holds only keys
/// whose list is non-empty.
#[derive(Debug)]
struct Lists<K, E> {
    slots: Vec<Slot<E>>,
    free: u32,
    index: FastMap<K, (u32, u32)>,
    len: usize,
}

impl<K, E> Default for Lists<K, E> {
    fn default() -> Self {
        Lists {
            slots: Vec::new(),
            free: NIL,
            index: FastMap::default(),
            len: 0,
        }
    }
}

impl<K: Copy + Eq + Hash, E> Lists<K, E> {
    /// Append `entry` to the tail of `key`'s list.
    fn push(&mut self, key: K, seq: u32, entry: E) {
        let slot = Slot {
            entry: Some(entry),
            seq,
            next: NIL,
        };
        let i = if self.free == NIL {
            let i = u32::try_from(self.slots.len())
                .ok()
                .filter(|&i| i != NIL)
                .expect("matched queue holds under u32::MAX entries");
            self.slots.push(slot);
            i
        } else {
            let i = self.free;
            self.free = std::mem::replace(&mut self.slots[i as usize], slot).next;
            i
        };
        match self.index.get_mut(&key) {
            Some((_, tail)) => {
                self.slots[*tail as usize].next = i;
                *tail = i;
            }
            None => {
                self.index.insert(key, (i, i));
            }
        }
        self.len += 1;
    }

    /// `(seq, slot)` of every queued entry, in slot order.
    fn live(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.entry.is_some())
            .map(|(i, s)| (s.seq, i as u32))
    }

    /// The first entry of `key`'s list that satisfies `pred`.
    fn find(&self, key: &K, pred: impl Fn(&E) -> bool) -> Option<Hit> {
        let &(head, _) = self.index.get(key)?;
        self.find_from(head, pred)
    }

    fn find_from(&self, head: u32, pred: impl Fn(&E) -> bool) -> Option<Hit> {
        let (mut prev, mut i) = (NIL, head);
        while i != NIL {
            let s = &self.slots[i as usize];
            if pred(s.entry.as_ref().expect("listed slot is live")) {
                return Some(Hit {
                    prev,
                    slot: i,
                    seq: s.seq,
                });
            }
            (prev, i) = (i, s.next);
        }
        None
    }

    /// The lowest-sequence entry satisfying `pred` across every list.
    fn find_any(&self, pred: impl Fn(&E) -> bool) -> Option<(K, Hit)> {
        self.index
            .iter()
            .filter_map(|(&k, &(head, _))| self.find_from(head, &pred).map(|h| (k, h)))
            .min_by_key(|(_, h)| h.seq)
    }

    /// Unlink the entry `hit` found in `key`'s list and return it.
    fn take(&mut self, key: &K, hit: Hit) -> E {
        let slot = &mut self.slots[hit.slot as usize];
        let next = std::mem::replace(&mut slot.next, self.free);
        let entry = slot.entry.take().expect("listed slot is live");
        self.free = hit.slot;
        self.len -= 1;
        if hit.prev != NIL {
            self.slots[hit.prev as usize].next = next;
        }
        let (head, tail) = self.index.get_mut(key).expect("hit key is indexed");
        if hit.prev == NIL {
            *head = next;
        }
        if *tail == hit.slot {
            *tail = hit.prev;
        }
        if *head == NIL {
            self.index.remove(key);
        }
        entry
    }
}

/// The matched queue: posted receives + unexpected arrivals, FIFO within
/// a matching class (MPI ordering semantics).
///
/// Both queues keep one FIFO list per source, and every entry carries a
/// sequence number drawn from one counter at post or arrival time. A
/// specific-source post walks only its source's unexpected list; a
/// wildcard post takes the lowest-sequence match across the source
/// lists; an arrival takes the lower-sequence of the first matches in
/// its source's posted list and the wildcard (`None`) list. Because each
/// list is in sequence order, that is exactly the first match a single
/// arrival- or post-ordered queue would find.
#[derive(Debug)]
pub struct MatchedQueue<T> {
    posted: Lists<Option<RankId>, PostedRecv>,
    unexpected: Lists<RankId, (Tag, T)>,
    next_seq: u32,
    max_unexpected: usize,
}

impl<T> Default for MatchedQueue<T> {
    fn default() -> Self {
        MatchedQueue {
            posted: Lists::default(),
            unexpected: Lists::default(),
            next_seq: 0,
            max_unexpected: 0,
        }
    }
}

impl<T> MatchedQueue<T> {
    /// Empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    fn seq(&mut self) -> u32 {
        if self.next_seq == u32::MAX {
            self.renumber();
        }
        self.next_seq += 1;
        self.next_seq
    }

    /// Reassign the live entries' sequence numbers densely from 1 in
    /// their current order, so the 32-bit counter never wraps (a slot
    /// holds 8 bytes less than with a 64-bit one). Runs at most once per
    /// ~4 billion posts and arrivals.
    #[cold]
    fn renumber(&mut self) {
        let mut live: Vec<(u32, bool, u32)> = self
            .posted
            .live()
            .map(|(seq, i)| (seq, false, i))
            .chain(self.unexpected.live().map(|(seq, i)| (seq, true, i)))
            .collect();
        live.sort_unstable();
        self.next_seq = u32::try_from(live.len())
            .ok()
            .filter(|&n| n < u32::MAX)
            .expect("matched queues hold under u32::MAX entries");
        for (seq, &(_, unexpected, i)) in (1..).zip(&live) {
            if unexpected {
                self.unexpected.slots[i as usize].seq = seq;
            } else {
                self.posted.slots[i as usize].seq = seq;
            }
        }
    }

    /// Post a receive. If an unexpected arrival matches, it is consumed
    /// and returned instead of queueing the receive.
    pub fn post_recv(&mut self, recv: PostedRecv) -> Option<Unexpected<T>> {
        let tag = recv.tag;
        let hit = match recv.src {
            Some(src) => self
                .unexpected
                .find(&src, |(t, _)| *t == tag)
                .map(|h| (src, h)),
            None => self.unexpected.find_any(|(t, _)| *t == tag),
        };
        if let Some((src, hit)) = hit {
            let (tag, body) = self.unexpected.take(&src, hit);
            return Some(Unexpected { src, tag, body });
        }
        let seq = self.seq();
        self.posted.push(recv.src, seq, recv);
        None
    }

    /// Match an arrival against posted receives. On a match, the posted
    /// receive *and the body* are returned; otherwise the arrival is
    /// stored as unexpected and `None` is returned.
    pub fn match_arrival(&mut self, src: RankId, tag: Tag, body: T) -> Option<(PostedRecv, T)> {
        let specific = self.posted.find(&Some(src), |p| p.tag == tag);
        let wildcard = self.posted.find(&None, |p| p.tag == tag);
        let hit = match (specific, wildcard) {
            (Some(s), Some(w)) if w.seq < s.seq => Some((None, w)),
            (Some(s), _) => Some((Some(src), s)),
            (None, w) => w.map(|w| (None, w)),
        };
        if let Some((key, hit)) = hit {
            return Some((self.posted.take(&key, hit), body));
        }
        let seq = self.seq();
        self.unexpected.push(src, seq, (tag, body));
        self.max_unexpected = self.max_unexpected.max(self.unexpected.len);
        None
    }

    /// Posted receives waiting.
    pub fn posted_len(&self) -> usize {
        self.posted.len
    }
    /// Unexpected arrivals waiting.
    pub fn unexpected_len(&self) -> usize {
        self.unexpected.len
    }
    /// High-water mark of the unexpected queue.
    pub fn max_unexpected(&self) -> usize {
        self.max_unexpected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pico_sim::Rng;
    use std::collections::VecDeque;

    /// The reference matched queue: two arrival/post-ordered queues
    /// scanned linearly for the first match. The indexed queue must
    /// agree with it on every call.
    struct LinearQueue<T> {
        posted: VecDeque<PostedRecv>,
        unexpected: VecDeque<Unexpected<T>>,
        max_unexpected: usize,
    }

    impl<T> LinearQueue<T> {
        fn new() -> Self {
            LinearQueue {
                posted: VecDeque::new(),
                unexpected: VecDeque::new(),
                max_unexpected: 0,
            }
        }

        fn post_recv(&mut self, recv: PostedRecv) -> Option<Unexpected<T>> {
            if let Some(pos) = self
                .unexpected
                .iter()
                .position(|u| u.tag == recv.tag && recv.src.is_none_or(|s| s == u.src))
            {
                return self.unexpected.remove(pos);
            }
            self.posted.push_back(recv);
            None
        }

        fn match_arrival(&mut self, src: RankId, tag: Tag, body: T) -> Option<(PostedRecv, T)> {
            if let Some(pos) = self
                .posted
                .iter()
                .position(|p| p.tag == tag && p.src.is_none_or(|s| s == src))
            {
                return self.posted.remove(pos).map(|p| (p, body));
            }
            self.unexpected.push_back(Unexpected { src, tag, body });
            self.max_unexpected = self.max_unexpected.max(self.unexpected.len());
            None
        }
    }

    /// Random interleavings of specific and wildcard posts with arrivals
    /// from 1–300 sources over a few repeated tags: every return value
    /// and every depth matches the linear-scan reference after each step,
    /// also across a sequence-number renumbering.
    #[test]
    fn indexed_queue_matches_linear_reference() {
        for case in 0..200u64 {
            let mut rng = Rng::new(0x6d71_0000 ^ case);
            let sources = 1 + rng.gen_range(300) as u32;
            let tags = 1 + rng.gen_range(4);
            let p_wild = rng.unit_f64() * 0.3;
            let p_post = 0.2 + rng.unit_f64() * 0.6;
            let mut mq: MatchedQueue<u64> = MatchedQueue::new();
            let mut lin: LinearQueue<u64> = LinearQueue::new();
            // Every fourth case crosses the 32-bit sequence wrap, which
            // renumbers the live entries mid-run.
            if case % 4 == 3 {
                mq.next_seq = u32::MAX - rng.gen_range(1000) as u32;
            }
            for step in 0..2000u64 {
                let src = rng.gen_range(sources as u64) as u32;
                let tag = Tag(rng.gen_range(tags));
                if rng.chance(p_post) {
                    let src = (!rng.chance(p_wild)).then_some(src);
                    let a = mq.post_recv(recv(src, tag.0, step));
                    let b = lin.post_recv(recv(src, tag.0, step));
                    assert_eq!(
                        a.map(|u| (u.src, u.tag, u.body)),
                        b.map(|u| (u.src, u.tag, u.body)),
                        "case {case} step {step}: post {src:?} {tag:?}"
                    );
                } else {
                    let a = mq.match_arrival(src, tag, step);
                    let b = lin.match_arrival(src, tag, step);
                    assert_eq!(
                        a.map(|(p, body)| (p.src, p.tag, p.handle, body)),
                        b.map(|(p, body)| (p.src, p.tag, p.handle, body)),
                        "case {case} step {step}: arrival {src} {tag:?}"
                    );
                }
                assert_eq!(mq.posted_len(), lin.posted.len(), "case {case} step {step}");
                assert_eq!(
                    mq.unexpected_len(),
                    lin.unexpected.len(),
                    "case {case} step {step}"
                );
                assert_eq!(
                    mq.max_unexpected(),
                    lin.max_unexpected,
                    "case {case} step {step}"
                );
            }
        }
    }

    fn recv(src: Option<RankId>, tag: u64, handle: u64) -> PostedRecv {
        PostedRecv {
            src,
            tag: Tag(tag),
            va: 0,
            len: 0,
            handle: MqHandle(handle),
        }
    }

    #[test]
    fn posted_then_arrival_matches() {
        let mut mq: MatchedQueue<()> = MatchedQueue::new();
        assert!(mq.post_recv(recv(Some(1), 7, 100)).is_none());
        let (m, _) = mq.match_arrival(1, Tag(7), ()).unwrap();
        assert_eq!(m.handle, MqHandle(100));
        assert_eq!(mq.posted_len(), 0);
    }

    #[test]
    fn arrival_then_post_consumes_unexpected() {
        let mut mq: MatchedQueue<u32> = MatchedQueue::new();
        assert!(mq.match_arrival(2, Tag(9), 42).is_none());
        assert_eq!(mq.unexpected_len(), 1);
        let u = mq.post_recv(recv(Some(2), 9, 5)).unwrap();
        assert_eq!(u.body, 42);
        assert_eq!(mq.unexpected_len(), 0);
        assert_eq!(mq.posted_len(), 0);
    }

    #[test]
    fn source_filter_respected() {
        let mut mq: MatchedQueue<()> = MatchedQueue::new();
        mq.post_recv(recv(Some(3), 1, 1));
        // Wrong source: becomes unexpected.
        assert!(mq.match_arrival(4, Tag(1), ()).is_none());
        // Right source matches.
        assert!(mq.match_arrival(3, Tag(1), ()).is_some());
    }

    #[test]
    fn any_source_matches_first_arrival() {
        let mut mq: MatchedQueue<u32> = MatchedQueue::new();
        mq.post_recv(recv(None, 5, 1));
        assert!(mq.match_arrival(9, Tag(5), 0).is_some());
        // And any-source post consumes a queued unexpected.
        mq.match_arrival(7, Tag(5), 1);
        assert!(mq.post_recv(recv(None, 5, 2)).is_some());
    }

    #[test]
    fn fifo_ordering_within_matching_class() {
        let mut mq: MatchedQueue<u32> = MatchedQueue::new();
        mq.match_arrival(1, Tag(2), 10);
        mq.match_arrival(1, Tag(2), 11);
        let first = mq.post_recv(recv(Some(1), 2, 1)).unwrap();
        let second = mq.post_recv(recv(Some(1), 2, 2)).unwrap();
        assert_eq!(first.body, 10);
        assert_eq!(second.body, 11);
        // Posted receives also match FIFO.
        mq.post_recv(recv(Some(1), 3, 31));
        mq.post_recv(recv(Some(1), 3, 32));
        assert_eq!(
            mq.match_arrival(1, Tag(3), 0).unwrap().0.handle,
            MqHandle(31)
        );
        assert_eq!(
            mq.match_arrival(1, Tag(3), 0).unwrap().0.handle,
            MqHandle(32)
        );
    }

    #[test]
    fn high_water_mark_tracks() {
        let mut mq: MatchedQueue<()> = MatchedQueue::new();
        for i in 0..5 {
            mq.match_arrival(i, Tag(i as u64), ());
        }
        for i in 0..5 {
            mq.post_recv(recv(Some(i), i as u64, i as u64));
        }
        assert_eq!(mq.unexpected_len(), 0);
        assert_eq!(mq.max_unexpected(), 5);
    }
}
