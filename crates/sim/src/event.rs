//! The event queue at the heart of the discrete-event engine.
//!
//! Events are ordered by `(time, sequence)`: ties in simulated time are
//! broken by insertion order, which makes every run bit-for-bit
//! reproducible regardless of hash-map iteration order elsewhere.
//!
//! # Implementation
//!
//! [`EventQueue`] is a **hierarchical timing wheel**: the overwhelming
//! majority of events in a cluster replay are scheduled a small delta
//! ahead of `now` (PIO costs, fabric hops, service grants), so they land
//! in a ring of near-future buckets and are popped with O(1) bucket
//! indexing instead of O(log n) heap percolation. The three tiers:
//!
//! 1. **run** — all events sharing the single *current* timestamp, stored
//!    in insertion (= sequence) order. Pops and same-time appends are
//!    O(1); this is also what makes same-timestamp wake storms cheap.
//! 2. **fine wheel** — a ring of `NSLOTS` buckets of `2^SLOT_BITS` ns
//!    each, covering the near-future horizon past `now` (~1 ms). A
//!    bucket is sorted lazily, only when the wheel cursor reaches it.
//! 3. **coarse wheel** — a second ring of `NSLOTS2` buckets of
//!    `2^(SLOT_BITS + COARSE_BITS)` ns each (~67 ms horizon), for the
//!    mid-future band the fine ring misses: sink-close reapers
//!    (`sink_linger_ns`, default 2 ms), launch skew, noise ticks. A
//!    coarse bucket cascades into the fine ring when the fine horizon
//!    advances over it — each event moves down at most once.
//! 4. **overflow** — a plain binary min-heap for events beyond the
//!    coarse horizon (long compute segments). Each event migrates out of
//!    the overflow at most once, when the coarse horizon advances.
//!
//! The pop order is *identical* to a global `(time, seq)` min-heap — the
//! reference implementation is kept in-tree as [`HeapEventQueue`] and the
//! equivalence is enforced by randomized tests and used as the benchmark
//! baseline.

use crate::time::Ns;
use core::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// Slot granularity: each fine bucket covers `2^SLOT_BITS` nanoseconds.
const SLOT_BITS: u32 = 10;
/// Number of fine buckets; horizon = `NSLOTS << SLOT_BITS` ns (~1 ms).
const NSLOTS: usize = 1 << 10;
/// Words of the fine bucket-occupancy bitmap.
const OCC_WORDS: usize = NSLOTS / 64;
/// Default log₂ fine pages per coarse page: each coarse bucket covers
/// `2^(SLOT_BITS + coarse_bits)` ns (~64 µs at the default). Runtime-
/// tunable per queue via [`EventQueue::with_coarse_bits`].
const COARSE_BITS: u32 = 6;
/// Largest coarse-page width [`EventQueue::with_coarse_bits`] accepts
/// (the smallest is 1): a coarse page may not be wider than the whole
/// fine ring.
pub const MAX_COARSE_BITS: u32 = SLOT_BITS;
/// Number of coarse buckets; coarse horizon ≈ 67 ms.
const NSLOTS2: usize = 1 << 10;
/// Words of the coarse bucket-occupancy bitmap.
const OCC2_WORDS: usize = NSLOTS2 / 64;
/// Log₂ buckets of the page-span histogram in [`WheelProfile`].
pub const SPAN_BUCKETS: usize = 24;

#[inline]
fn page_of(at: Ns) -> u64 {
    at.0 >> SLOT_BITS
}

/// First fine page NOT covered by the fine ring at `window_page`,
/// rounded *down* to a coarse-page boundary so coarse buckets are always
/// either fully inside or fully outside the fine horizon (a straddling
/// bucket would have to be split on cascade).
#[inline]
fn fine_end(window_page: u64, coarse_bits: u32) -> u64 {
    ((window_page + NSLOTS as u64) >> coarse_bits) << coarse_bits
}

/// Scheduling-placement counters and the page-span histogram of a
/// timing wheel — where events landed (run group, current page, fine
/// ring, coarse ring, overflow heap) and how far ahead of the cursor
/// they were scheduled (log₂ page buckets). Dumped by `simbench --smoke`
/// to re-profile the wheel as traffic shifts (flows moved most delivery
/// off the queue and left reaper timers past the fine horizon, which is
/// what motivated the coarse level).
#[derive(Clone, Copy, Debug, Default)]
pub struct WheelProfile {
    /// Same-timestamp appends to the run group.
    pub sched_run: u64,
    /// Inserts into the sorted current page.
    pub sched_cur: u64,
    /// Pushes into the fine ring.
    pub sched_fine: u64,
    /// Pushes into the coarse ring.
    pub sched_coarse: u64,
    /// Pushes into the overflow heap.
    pub sched_overflow: u64,
    /// Histogram of `log₂(1 + page_of(at) - window_page)` at schedule
    /// time: how many pages ahead of the cursor events land.
    pub span_hist: [u64; SPAN_BUCKETS],
}

impl WheelProfile {
    /// Total schedules recorded.
    pub fn total(&self) -> u64 {
        self.sched_run + self.sched_cur + self.sched_fine + self.sched_coarse + self.sched_overflow
    }

    /// Fold another profile into this one (shard-local wheels fan their
    /// placement counters back into one run-wide profile).
    pub fn merge(&mut self, other: &WheelProfile) {
        self.sched_run += other.sched_run;
        self.sched_cur += other.sched_cur;
        self.sched_fine += other.sched_fine;
        self.sched_coarse += other.sched_coarse;
        self.sched_overflow += other.sched_overflow;
        for (a, b) in self.span_hist.iter_mut().zip(other.span_hist.iter()) {
            *a += b;
        }
    }
}

/// An entry in the queue: payload `E` scheduled for time `at`.
struct Entry<E> {
    at: Ns,
    seq: u64,
    ev: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic timing-wheel queue of timed events, popping in exact
/// `(time, sequence)` order.
pub struct EventQueue<E> {
    /// Events at exactly `run_at`, in sequence order (front pops first).
    run: VecDeque<E>,
    /// Timestamp of the events in `run`.
    run_at: Ns,
    /// Events of the current page with `at > run_at`, sorted *descending*
    /// by `(at, seq)` so groups pop O(1) off the tail.
    cur: Vec<Entry<E>>,
    /// Near-future ring; bucket `p % NSLOTS` holds page `p` events,
    /// unsorted, for pages in `(window_page, fine_end(window_page))`.
    slots: Vec<Vec<Entry<E>>>,
    /// Occupancy bitmap over `slots`.
    occ: [u64; OCC_WORDS],
    /// Mid-future ring; bucket `cp % NSLOTS2` holds coarse page `cp`
    /// events, unsorted, for coarse pages in
    /// `[coarse_window, (window_page >> COARSE_BITS) + NSLOTS2)`.
    slots2: Vec<Vec<Entry<E>>>,
    /// Occupancy bitmap over `slots2`.
    occ2: [u64; OCC2_WORDS],
    /// Far-future events (coarse page beyond the coarse horizon), min-heap.
    overflow: BinaryHeap<Entry<E>>,
    /// Page of the wheel cursor (== `page_of(run_at)` while non-empty).
    window_page: u64,
    /// log₂ fine pages per coarse page (default [`COARSE_BITS`]).
    coarse_bits: u32,
    len: usize,
    next_seq: u64,
    now: Ns,
    popped: u64,
    clamped: u64,
    profile: WheelProfile,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at time zero with the default coarse-page width.
    pub fn new() -> Self {
        Self::with_coarse_bits(COARSE_BITS)
    }

    /// An empty queue whose coarse ring uses `2^coarse_bits` fine pages
    /// per bucket (coarse horizon = `NSLOTS2 << (SLOT_BITS + coarse_bits)`
    /// ns). Wider pages extend the horizon at the cost of coarser cascade
    /// batches; pop order is identical for every width (checked against
    /// [`HeapEventQueue`] in the tests). `coarse_bits` may not exceed
    /// [`MAX_COARSE_BITS`] (= `SLOT_BITS`): a coarse page wider than the
    /// whole fine ring would round `fine_end` below the cursor and strand
    /// events in the coarse
    /// ring (the fine ring must always span at least one coarse page so
    /// advancing the window is guaranteed to cascade the minimum bucket).
    pub fn with_coarse_bits(coarse_bits: u32) -> Self {
        assert!(
            (1..=MAX_COARSE_BITS).contains(&coarse_bits),
            "coarse_bits out of range (1..={MAX_COARSE_BITS})"
        );
        EventQueue {
            run: VecDeque::new(),
            run_at: Ns::ZERO,
            cur: Vec::new(),
            slots: (0..NSLOTS).map(|_| Vec::new()).collect(),
            occ: [0; OCC_WORDS],
            slots2: (0..NSLOTS2).map(|_| Vec::new()).collect(),
            occ2: [0; OCC2_WORDS],
            overflow: BinaryHeap::new(),
            window_page: 0,
            coarse_bits,
            len: 0,
            next_seq: 0,
            now: Ns::ZERO,
            popped: 0,
            clamped: 0,
            profile: WheelProfile::default(),
        }
    }

    /// The configured log₂ fine pages per coarse page.
    pub fn coarse_bits(&self) -> u32 {
        self.coarse_bits
    }

    /// Scheduling-placement counters and the page-span histogram (see
    /// [`WheelProfile`]).
    pub fn profile(&self) -> &WheelProfile {
        &self.profile
    }

    /// Buckets currently occupied in the fine and coarse rings.
    pub fn occupancy(&self) -> (usize, usize) {
        let fine: u32 = self.occ.iter().map(|w| w.count_ones()).sum();
        let coarse: u32 = self.occ2.iter().map(|w| w.count_ones()).sum();
        (fine as usize, coarse as usize)
    }

    /// Current simulated time (the time of the last popped event).
    #[inline]
    pub fn now(&self) -> Ns {
        self.now
    }

    /// Total number of events popped so far (a cheap progress metric).
    #[inline]
    pub fn events_processed(&self) -> u64 {
        self.popped
    }

    /// Events that were scheduled in the past and silently clamped to
    /// `now` (release builds only; debug builds panic instead). A nonzero
    /// value indicates a model bug — the smoke tests assert it is zero.
    #[inline]
    pub fn clamped_events(&self) -> u64 {
        self.clamped
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }
    /// Whether no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedule `ev` at absolute time `at`.
    ///
    /// Scheduling in the past is a logic error; debug builds panic,
    /// release builds clamp to `now` (counted in [`clamped_events`]) to
    /// keep long runs alive.
    ///
    /// [`clamped_events`]: EventQueue::clamped_events
    pub fn schedule(&mut self, at: Ns, ev: E) {
        debug_assert!(
            at >= self.now,
            "scheduled into the past: at={at} now={}",
            self.now
        );
        let at = if at < self.now {
            self.clamped += 1;
            self.now
        } else {
            at
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        let page = page_of(at);
        let span = 64 - u64::leading_zeros(page - self.window_page + 1) as usize;
        self.profile.span_hist[span.min(SPAN_BUCKETS - 1)] += 1;
        if at == self.run_at {
            // Same-timestamp fast path: sequence order == insertion order.
            self.profile.sched_run += 1;
            self.run.push_back(ev);
            return;
        }
        if page == self.window_page {
            self.profile.sched_cur += 1;
            insert_desc(&mut self.cur, Entry { at, seq, ev });
        } else if page < fine_end(self.window_page, self.coarse_bits) {
            self.profile.sched_fine += 1;
            let s = page as usize & (NSLOTS - 1);
            self.slots[s].push(Entry { at, seq, ev });
            self.occ[s / 64] |= 1 << (s % 64);
        } else if (page >> self.coarse_bits)
            < (self.window_page >> self.coarse_bits) + NSLOTS2 as u64
        {
            self.profile.sched_coarse += 1;
            let s = (page >> self.coarse_bits) as usize & (NSLOTS2 - 1);
            self.slots2[s].push(Entry { at, seq, ev });
            self.occ2[s / 64] |= 1 << (s % 64);
        } else {
            self.profile.sched_overflow += 1;
            self.overflow.push(Entry { at, seq, ev });
        }
    }

    /// Pop the next event, advancing `now` to its timestamp.
    pub fn pop(&mut self) -> Option<(Ns, E)> {
        loop {
            if let Some(ev) = self.run.pop_front() {
                debug_assert!(
                    self.run_at >= self.now,
                    "wheel returned an out-of-order event"
                );
                self.now = self.run_at;
                self.popped += 1;
                self.len -= 1;
                return Some((self.run_at, ev));
            }
            if !self.cur.is_empty() {
                self.pull_group();
                continue;
            }
            if !self.advance_window() {
                return None;
            }
        }
    }

    /// Timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<Ns> {
        // Each tier strictly precedes the next: fine pages < every
        // coarse page < every overflow page.
        if !self.run.is_empty() {
            return Some(self.run_at);
        }
        if let Some(e) = self.cur.last() {
            return Some(e.at);
        }
        if let Some(d) = self.first_occupied_distance() {
            let s = (self.window_page + d) as usize & (NSLOTS - 1);
            return self.slots[s].iter().map(|e| e.at).min();
        }
        if let Some((s, _)) = self.min_coarse_bucket() {
            return self.slots2[s].iter().map(|e| e.at).min();
        }
        self.overflow.peek().map(|e| e.at)
    }

    /// Remove and return the pending event at time `at` whose payload
    /// satisfies `pred` (the first one in pop order if several do), or
    /// `None` if there is none. Only the tier that the placement rule of
    /// [`schedule`](Self::schedule) puts `at` in is searched, and the
    /// cursor does not move, so a later schedule behind the cancelled
    /// entry is still accepted. The freed sequence number is not reused.
    pub fn cancel(&mut self, at: Ns, mut pred: impl FnMut(&E) -> bool) -> Option<E> {
        let page = page_of(at);
        let ev = if at == self.run_at {
            let i = self.run.iter().position(&mut pred)?;
            self.run.remove(i)?
        } else if page == self.window_page {
            // Descending order: the last match is the earliest seq.
            let i = self.cur.iter().rposition(|e| e.at == at && pred(&e.ev))?;
            self.cur.remove(i).ev
        } else if page < fine_end(self.window_page, self.coarse_bits) {
            let s = page as usize & (NSLOTS - 1);
            let ev = take_match(&mut self.slots[s], at, pred)?;
            if self.slots[s].is_empty() {
                self.occ[s / 64] &= !(1 << (s % 64));
            }
            ev
        } else if (page >> self.coarse_bits)
            < (self.window_page >> self.coarse_bits) + NSLOTS2 as u64
        {
            let s = (page >> self.coarse_bits) as usize & (NSLOTS2 - 1);
            let ev = take_match(&mut self.slots2[s], at, pred)?;
            if self.slots2[s].is_empty() {
                self.occ2[s / 64] &= !(1 << (s % 64));
            }
            ev
        } else {
            heap_cancel(&mut self.overflow, at, pred)?
        };
        self.len -= 1;
        Some(ev)
    }

    /// Move the tail group of `cur` (the earliest timestamp) into `run`.
    fn pull_group(&mut self) {
        let at = self.cur.last().expect("pull_group on empty cur").at;
        self.run_at = at;
        while self.cur.last().is_some_and(|e| e.at == at) {
            // Tail pops of a descending sort yield ascending `seq`.
            let e = self.cur.pop().expect("tail present");
            self.run.push_back(e.ev);
        }
    }

    /// Distance (in pages, 1..NSLOTS) from `window_page` to the first
    /// occupied bucket, scanning the ring in time order.
    fn first_occupied_distance(&self) -> Option<u64> {
        // Circular scan of the bitmap a word at a time, nearest page
        // first: from the slot after the cursor's to the end of its word
        // and on, wrapping around to the bits before it.
        let start = (self.window_page as usize + 1) & (NSLOTS - 1);
        let (w0, b0) = (start / 64, start % 64);
        for i in 0..=OCC_WORDS {
            let w = (w0 + i) % OCC_WORDS;
            let bits = match i {
                0 => self.occ[w] & (!0 << b0),
                OCC_WORDS => self.occ[w] & !(!0 << b0),
                _ => self.occ[w],
            };
            if bits != 0 {
                let s = w * 64 + bits.trailing_zeros() as usize;
                return Some(((s + NSLOTS - start) % NSLOTS) as u64 + 1);
            }
        }
        None
    }

    /// The occupied coarse bucket holding the smallest coarse page, as
    /// `(slot index, coarse page)`. All entries of one bucket share one
    /// coarse page (the live coarse range is narrower than the ring, so
    /// slots never alias), so the page is read off the first entry.
    fn min_coarse_bucket(&self) -> Option<(usize, u64)> {
        let mut best: Option<(usize, u64)> = None;
        for w in 0..OCC2_WORDS {
            let mut bits = self.occ2[w];
            while bits != 0 {
                let s = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let cp = page_of(self.slots2[s][0].at) >> self.coarse_bits;
                if best.is_none_or(|(_, b)| cp < b) {
                    best = Some((s, cp));
                }
            }
        }
        best
    }

    /// Advance the wheel cursor to the next non-empty page, refilling
    /// `cur` (sorted), cascading coarse buckets the fine horizon now
    /// covers, and migrating newly in-coarse-horizon overflow events.
    /// Returns `false` when the queue is exhausted.
    fn advance_window(&mut self) -> bool {
        debug_assert!(self.run.is_empty() && self.cur.is_empty());
        let new_page = if let Some(d) = self.first_occupied_distance() {
            // Fine pages precede every coarse page and every overflow page.
            self.window_page + d
        } else if let Some((s, _)) = self.min_coarse_bucket() {
            self.slots2[s]
                .iter()
                .map(|e| page_of(e.at))
                .min()
                .expect("occupied coarse bucket")
        } else if let Some(e) = self.overflow.peek() {
            page_of(e.at)
        } else {
            return false;
        };
        self.window_page = new_page;
        let s = new_page as usize & (NSLOTS - 1);
        if self.occ[s / 64] & (1 << (s % 64)) != 0 {
            self.cur = std::mem::take(&mut self.slots[s]);
            self.occ[s / 64] &= !(1 << (s % 64));
        }
        // Cascade coarse buckets now fully inside the fine horizon
        // (fine_end is coarse-aligned, so buckets never straddle it).
        let fe = fine_end(new_page, self.coarse_bits);
        let coarse_end = fe >> self.coarse_bits;
        for w in 0..OCC2_WORDS {
            let mut bits = self.occ2[w];
            while bits != 0 {
                let s2 = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if page_of(self.slots2[s2][0].at) >> self.coarse_bits >= coarse_end {
                    continue;
                }
                let drained = std::mem::take(&mut self.slots2[s2]);
                self.occ2[s2 / 64] &= !(1 << (s2 % 64));
                for e in drained {
                    let p = page_of(e.at);
                    debug_assert!(p >= new_page && p < fe, "coarse cascade out of range");
                    if p == new_page {
                        self.cur.push(e);
                    } else {
                        let sf = p as usize & (NSLOTS - 1);
                        self.slots[sf].push(e);
                        self.occ[sf / 64] |= 1 << (sf % 64);
                    }
                }
            }
        }
        // Pull far-future events that the coarse horizon now covers.
        let coarse_horizon_end = (new_page >> self.coarse_bits) + NSLOTS2 as u64;
        while let Some(e) = self.overflow.peek() {
            let p = page_of(e.at);
            if p >> self.coarse_bits >= coarse_horizon_end {
                break;
            }
            let e = self.overflow.pop().expect("peeked entry");
            if p == new_page {
                self.cur.push(e);
            } else if p < fe {
                let sf = p as usize & (NSLOTS - 1);
                self.slots[sf].push(e);
                self.occ[sf / 64] |= 1 << (sf % 64);
            } else {
                let sc = (p >> self.coarse_bits) as usize & (NSLOTS2 - 1);
                self.slots2[sc].push(e);
                self.occ2[sc / 64] |= 1 << (sc % 64);
            }
        }
        debug_assert!(!self.cur.is_empty(), "advanced to an empty page");
        self.cur
            .sort_unstable_by_key(|e| std::cmp::Reverse((e.at, e.seq)));
        true
    }
}

/// Binary insert into a `(at, seq)`-descending vector.
fn insert_desc<E>(v: &mut Vec<Entry<E>>, e: Entry<E>) {
    let pos = v.partition_point(|x| (x.at, x.seq) > (e.at, e.seq));
    v.insert(pos, e);
}

/// Remove the entry of the unsorted bucket `v` at time `at` whose payload
/// satisfies `pred`, the earliest-seq one if several do.
fn take_match<E>(v: &mut Vec<Entry<E>>, at: Ns, mut pred: impl FnMut(&E) -> bool) -> Option<E> {
    let i = (0..v.len())
        .filter(|&i| v[i].at == at && pred(&v[i].ev))
        .min_by_key(|&i| v[i].seq)?;
    Some(v.swap_remove(i).ev)
}

/// [`take_match`] over a heap (rebuilt in O(n); heap order is a total
/// order on `(at, seq)`, so the pop sequence is unaffected).
fn heap_cancel<E>(
    heap: &mut BinaryHeap<Entry<E>>,
    at: Ns,
    pred: impl FnMut(&E) -> bool,
) -> Option<E> {
    let mut v = std::mem::take(heap).into_vec();
    let ev = take_match(&mut v, at, pred);
    *heap = BinaryHeap::from(v);
    ev
}

/// The original global binary-heap event queue.
///
/// Kept in-tree as (a) the reference model the timing wheel is checked
/// against property-test style, and (b) the baseline for the `simbench`
/// throughput comparison. Semantics are identical to [`EventQueue`].
pub struct HeapEventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    now: Ns,
    popped: u64,
    clamped: u64,
}

impl<E> Default for HeapEventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> HeapEventQueue<E> {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        HeapEventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: Ns::ZERO,
            popped: 0,
            clamped: 0,
        }
    }

    /// Current simulated time (the time of the last popped event).
    #[inline]
    pub fn now(&self) -> Ns {
        self.now
    }
    /// Total number of events popped so far.
    #[inline]
    pub fn events_processed(&self) -> u64 {
        self.popped
    }
    /// Events clamped after being scheduled into the past.
    #[inline]
    pub fn clamped_events(&self) -> u64 {
        self.clamped
    }
    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }
    /// Whether no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedule `ev` at absolute time `at` (debug-panics / clamps like
    /// [`EventQueue::schedule`]).
    pub fn schedule(&mut self, at: Ns, ev: E) {
        debug_assert!(
            at >= self.now,
            "scheduled into the past: at={at} now={}",
            self.now
        );
        let at = if at < self.now {
            self.clamped += 1;
            self.now
        } else {
            at
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, ev });
    }

    /// Pop the next event, advancing `now` to its timestamp.
    pub fn pop(&mut self) -> Option<(Ns, E)> {
        let e = self.heap.pop()?;
        debug_assert!(e.at >= self.now, "heap returned an out-of-order event");
        self.now = e.at;
        self.popped += 1;
        Some((e.at, e.ev))
    }

    /// Timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<Ns> {
        self.heap.peek().map(|e| e.at)
    }

    /// Remove and return the pending event at time `at` whose payload
    /// satisfies `pred` (see [`EventQueue::cancel`]).
    pub fn cancel(&mut self, at: Ns, pred: impl FnMut(&E) -> bool) -> Option<E> {
        heap_cancel(&mut self.heap, at, pred)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Ns(30), "c");
        q.schedule(Ns(10), "a");
        q.schedule(Ns(20), "b");
        assert_eq!(q.peek_time(), Some(Ns(10)));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert_eq!(q.now(), Ns(30));
        assert_eq!(q.events_processed(), 3);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(Ns(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        let expect: Vec<i32> = (0..100).collect();
        assert_eq!(order, expect);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "scheduled into the past")]
    fn scheduling_into_past_panics_in_debug() {
        let mut q = EventQueue::new();
        q.schedule(Ns(100), ());
        q.pop();
        q.schedule(Ns(10), ());
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn scheduling_into_past_clamps_and_counts_in_release() {
        let mut q = EventQueue::new();
        q.schedule(Ns(100), ());
        q.pop();
        q.schedule(Ns(10), ());
        assert_eq!(q.clamped_events(), 1);
        assert_eq!(q.pop(), Some((Ns(100), ())));
    }

    #[test]
    fn interleaved_schedule_pop_stays_sorted() {
        let mut q = EventQueue::new();
        q.schedule(Ns(10), 1u32);
        q.schedule(Ns(40), 4);
        assert_eq!(q.pop().unwrap(), (Ns(10), 1));
        q.schedule(Ns(20), 2);
        q.schedule(Ns(30), 3);
        assert_eq!(q.pop().unwrap(), (Ns(20), 2));
        assert_eq!(q.pop().unwrap(), (Ns(30), 3));
        assert_eq!(q.pop().unwrap(), (Ns(40), 4));
        assert!(q.is_empty());
    }

    #[test]
    fn far_future_overflow_round_trips() {
        let mut q = EventQueue::new();
        // Far beyond the wheel horizon (~1 ms): exercises the overflow
        // heap and the migrate-on-advance path.
        q.schedule(Ns::secs(3), "far");
        q.schedule(Ns::millis(2), "mid");
        q.schedule(Ns(5), "near");
        assert_eq!(q.pop().unwrap().1, "near");
        assert_eq!(q.pop().unwrap().1, "mid");
        // While parked at 2 ms, schedule inside the new horizon.
        q.schedule(Ns::millis(2) + Ns(100), "after-mid");
        assert_eq!(q.pop().unwrap(), (Ns::millis(2) + Ns(100), "after-mid"));
        assert_eq!(q.pop().unwrap(), (Ns::secs(3), "far"));
        assert!(q.pop().is_none());
    }

    #[test]
    fn wheel_wraps_many_horizons() {
        let mut q = EventQueue::new();
        let step = Ns((NSLOTS as u64) << (SLOT_BITS - 1)); // half a horizon
        let mut expect = Vec::new();
        for i in 0..64u64 {
            q.schedule(Ns(step.0 * i), i);
            expect.push(i);
        }
        let got: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(got, expect);
    }

    /// Sink-linger-style timers (~2 ms out) overshoot the fine ring's
    /// ~1 ms horizon and must land in the coarse ring — not the overflow
    /// heap — and still pop in exact `(time, seq)` order against the
    /// reference heap after cascading back through the fine ring.
    #[test]
    fn sink_linger_timers_land_in_coarse_ring() {
        let mut wheel = EventQueue::new();
        let mut heap = HeapEventQueue::new();
        let mut id = 0u64;
        // A near event to anchor `now`, then a spray of 2 ms timers with
        // deliberate ties, then a far-future event for the overflow heap.
        for at in [Ns(7), Ns::secs(3)] {
            wheel.schedule(at, id);
            heap.schedule(at, id);
            id += 1;
        }
        for i in 0..200u64 {
            let at = Ns(Ns::millis(2).0 + (i / 2) * 131);
            wheel.schedule(at, id);
            heap.schedule(at, id);
            id += 1;
        }
        let prof = wheel.profile();
        assert!(
            prof.sched_coarse >= 200,
            "2 ms timers must use the coarse ring, not overflow (coarse {}, overflow {})",
            prof.sched_coarse,
            prof.sched_overflow
        );
        assert_eq!(prof.sched_overflow, 1, "only the 3 s event overflows");
        assert_eq!(prof.total(), 202);
        let spans: u64 = prof.span_hist.iter().sum();
        assert_eq!(spans, 202, "every schedule lands in the span histogram");
        let (fine_occ, coarse_occ) = wheel.occupancy();
        assert!(coarse_occ > 0, "coarse bitmap must show occupied buckets");
        assert!(fine_occ <= 1);
        loop {
            assert_eq!(wheel.peek_time(), heap.peek_time());
            let (a, b) = (wheel.pop(), heap.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    /// Pop order is independent of the coarse-page width: a wheel with
    /// 256-page coarse buckets (bits = 8, ~16× the default horizon) must
    /// match the reference heap on the same mixed-band workload — the
    /// safety net behind the `wheel_coarse_bits` config knob.
    #[test]
    fn coarse_width_does_not_change_pop_order() {
        for bits in [1u32, 8, 10] {
            let mut rng = Rng::new(0x000C_0A5E ^ u64::from(bits));
            let mut wheel = EventQueue::with_coarse_bits(bits);
            assert_eq!(wheel.coarse_bits(), bits);
            let mut heap = HeapEventQueue::new();
            let mut id = 0u64;
            for _ in 0..3_000 {
                if rng.chance(0.6) || wheel.is_empty() {
                    let delta = match rng.gen_range(10) {
                        0..=3 => rng.gen_range(1 << SLOT_BITS),
                        4..=6 => rng.gen_range((NSLOTS as u64) << SLOT_BITS),
                        7..=8 => rng.gen_range(1 << (SLOT_BITS + bits.min(20) + 5)),
                        _ => rng.gen_range(1 << 34), // deep future
                    };
                    let at = Ns(wheel.now().0 + delta);
                    wheel.schedule(at, id);
                    heap.schedule(at, id);
                    id += 1;
                } else {
                    assert_eq!(wheel.peek_time(), heap.peek_time(), "bits {bits}");
                    assert_eq!(wheel.pop(), heap.pop(), "bits {bits}");
                }
            }
            loop {
                let (a, b) = (wheel.pop(), heap.pop());
                assert_eq!(a, b, "bits {bits} drain");
                if a.is_none() {
                    break;
                }
            }
        }
    }

    /// The wheel pops the exact `(time, seq)` sequence of the reference
    /// heap under random schedule/pop/cancel interleavings (the in-crate
    /// half of the equivalence property; the umbrella test suite runs a
    /// larger version). Cancels pick a random pending entry, so they hit
    /// every tier, including the run group and the cursor's own page.
    #[test]
    fn matches_reference_heap_randomized() {
        for seed in 0..20u64 {
            let mut rng = Rng::new(0xE7E_ED15 ^ seed.wrapping_mul(0x9E37_79B9));
            let mut wheel = EventQueue::new();
            let mut heap = HeapEventQueue::new();
            let mut live: Vec<(Ns, u64)> = Vec::new();
            let mut id = 0u64;
            for _ in 0..2_000 {
                if rng.chance(0.6) || wheel.is_empty() {
                    // Mix of near, mid and far deltas, with frequent ties.
                    let delta = match rng.gen_range(10) {
                        0..=4 => rng.gen_range(1 << SLOT_BITS), // in-page
                        5..=7 => rng.gen_range((NSLOTS as u64) << SLOT_BITS), // in-horizon
                        8 => 0,                                 // tie with now
                        _ => rng.gen_range(1 << 28),            // far future
                    };
                    let at = Ns(wheel.now().0 + delta);
                    wheel.schedule(at, id);
                    heap.schedule(at, id);
                    live.push((at, id));
                    id += 1;
                } else if rng.chance(0.2) {
                    let (at, victim) = live.swap_remove(rng.gen_range(live.len() as u64) as usize);
                    assert_eq!(
                        wheel.cancel(at, |&e| e == victim),
                        Some(victim),
                        "seed {seed}"
                    );
                    assert_eq!(
                        heap.cancel(at, |&e| e == victim),
                        Some(victim),
                        "seed {seed}"
                    );
                    // A second cancel finds nothing and changes nothing.
                    assert_eq!(wheel.cancel(at, |&e| e == victim), None, "seed {seed}");
                } else {
                    assert_eq!(wheel.peek_time(), heap.peek_time(), "seed {seed}");
                    let popped = wheel.pop();
                    assert_eq!(popped, heap.pop(), "seed {seed}");
                    assert_eq!(wheel.now(), heap.now());
                    let (_, e) = popped.expect("non-empty");
                    let i = live.iter().position(|&(_, l)| l == e).expect("live");
                    live.swap_remove(i);
                }
                assert_eq!(wheel.len(), heap.len());
            }
            loop {
                let (a, b) = (wheel.pop(), heap.pop());
                assert_eq!(a, b, "seed {seed} drain");
                if a.is_none() {
                    break;
                }
            }
        }
    }
}
