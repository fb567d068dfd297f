//! A classic binary buddy allocator over a physical address range.
//!
//! This is the frame allocator behind both kernel models. Its observable
//! behaviour matters for the paper's central optimization: whether a user
//! buffer ends up physically contiguous decides how large the SDMA
//! requests built from it can be (§3.4). A freshly booted LWK hands out
//! long contiguous blocks; a long-running Linux node's memory is
//! fragmented — we reproduce that with [`BuddyAllocator::fragment`].

use crate::addr::{is_aligned, PhysAddr, PAGE_4K};

/// Largest supported order: `4 KiB << 18 = 1 GiB` blocks.
pub const MAX_ORDER: u8 = 18;

/// Allocation failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BuddyError {
    /// No block of the requested order (or larger) is free.
    OutOfMemory,
    /// `free` called with a block that is not aligned / not within the
    /// managed range / overlaps free memory.
    BadFree,
}

/// The free blocks of one order: bit `i` is set while the block at
/// base-relative index `i` (offset `i << (12 + order)`) is free, and
/// summary bit `j` is set while bitmap word `j` is non-zero. Both
/// vectors grow on demand up to the highest word ever set, so an order
/// that never held a free block costs nothing.
#[derive(Clone, Debug, Default)]
struct FreeMap {
    words: Vec<u64>,
    summary: Vec<u64>,
    /// Bits set.
    len: u64,
    /// Every summary word below this index is zero. Allocation scans
    /// from here, so it does not rescan the fully allocated low end of
    /// the range (`fragment` at boot allocates page after page).
    first: usize,
}

impl FreeMap {
    fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn contains(&self, i: u64) -> bool {
        self.words
            .get((i / 64) as usize)
            .is_some_and(|w| w & (1 << (i % 64)) != 0)
    }

    fn insert(&mut self, i: u64) {
        let w = (i / 64) as usize;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
            self.summary.resize(w / 64 + 1, 0);
        }
        let bit = 1 << (i % 64);
        debug_assert!(self.words[w] & bit == 0, "block already free");
        if self.words[w] == 0 {
            self.summary[w / 64] |= 1 << (w % 64);
            self.first = self.first.min(w / 64);
        }
        self.words[w] |= bit;
        self.len += 1;
    }

    /// Clear bit `i`; returns whether it was set.
    fn remove(&mut self, i: u64) -> bool {
        let w = (i / 64) as usize;
        let bit = 1 << (i % 64);
        match self.words.get_mut(w) {
            Some(word) if *word & bit != 0 => {
                *word &= !bit;
                if *word == 0 {
                    self.summary[w / 64] &= !(1 << (w % 64));
                }
                self.len -= 1;
                true
            }
            _ => false,
        }
    }

    /// Remove and return the lowest set index.
    fn pop_lowest(&mut self) -> Option<u64> {
        if self.is_empty() {
            return None;
        }
        while self.summary[self.first] == 0 {
            self.first += 1;
        }
        let w = self.first * 64 + self.summary[self.first].trailing_zeros() as usize;
        let i = w as u64 * 64 + self.words[w].trailing_zeros() as u64;
        self.remove(i);
        Some(i)
    }
}

/// Binary buddy allocator. Each order's free blocks are a bitmap
/// ([`FreeMap`]) and allocation takes the lowest set bit, so the
/// allocator always returns the lowest-addressed block — deterministic
/// across runs.
#[derive(Clone, Debug)]
pub struct BuddyAllocator {
    base: u64,
    size: u64,
    /// `free[o]` holds the free blocks of size `4K << o`.
    free: Vec<FreeMap>,
    allocated: u64,
}

/// Index of the block of order `order` at base-relative offset `off`.
#[inline]
fn block_index(off: u64, order: u8) -> u64 {
    off >> (12 + order as u32)
}

impl BuddyAllocator {
    /// Manage `[base, base+size)`. Both must be 4 KiB aligned and `size`
    /// must be a non-zero multiple of 4 KiB.
    pub fn new(base: PhysAddr, size: u64) -> BuddyAllocator {
        assert!(is_aligned(base.0, PAGE_4K), "base must be page aligned");
        assert!(is_aligned(size, PAGE_4K) && size > 0, "bad size");
        let mut b = BuddyAllocator {
            base: base.0,
            size,
            free: vec![FreeMap::default(); MAX_ORDER as usize + 1],
            allocated: 0,
        };
        // Seed free lists with the largest aligned blocks that tile the range.
        let mut off = 0;
        while off < size {
            let mut order = MAX_ORDER;
            loop {
                let bs = block_size(order);
                if is_aligned(off, bs) && off + bs <= size {
                    break;
                }
                order -= 1;
            }
            b.free[order as usize].insert(block_index(off, order));
            off += block_size(order);
        }
        b
    }

    /// Total managed bytes.
    pub fn capacity(&self) -> u64 {
        self.size
    }
    /// Bytes currently allocated.
    pub fn allocated(&self) -> u64 {
        self.allocated
    }
    /// Bytes currently free.
    pub fn free_bytes(&self) -> u64 {
        self.size - self.allocated
    }

    /// Order needed for an allocation of `bytes`.
    pub fn order_for(bytes: u64) -> u8 {
        let pages = bytes.div_ceil(PAGE_4K).max(1);
        let order = 64 - (pages - 1).leading_zeros() as u8;
        if pages.is_power_of_two() {
            pages.trailing_zeros() as u8
        } else {
            order
        }
    }

    /// Allocate a block of order `order` (size `4K << order`).
    pub fn alloc(&mut self, order: u8) -> Result<PhysAddr, BuddyError> {
        // Take the lowest block of the smallest order ≥ requested.
        let mut o = order;
        let idx = loop {
            if o > MAX_ORDER {
                return Err(BuddyError::OutOfMemory);
            }
            if let Some(i) = self.free[o as usize].pop_lowest() {
                break i;
            }
            o += 1;
        };
        let off = idx << (12 + o as u32);
        // Split down to the requested order, returning upper halves to the
        // free lists.
        while o > order {
            o -= 1;
            self.free[o as usize].insert(block_index(off, o) + 1);
        }
        self.allocated += block_size(order);
        Ok(PhysAddr(self.base + off))
    }

    /// Allocate the smallest block that covers `bytes`.
    pub fn alloc_bytes(&mut self, bytes: u64) -> Result<(PhysAddr, u8), BuddyError> {
        let order = Self::order_for(bytes);
        self.alloc(order).map(|a| (a, order))
    }

    /// Free a block previously obtained with [`alloc`](Self::alloc).
    pub fn free(&mut self, addr: PhysAddr, order: u8) -> Result<(), BuddyError> {
        if order > MAX_ORDER
            || addr.0 < self.base
            || addr.0 - self.base + block_size(order) > self.size
            || !is_aligned(addr.0 - self.base, block_size(order))
        {
            return Err(BuddyError::BadFree);
        }
        let mut off = addr.0 - self.base;
        // Double-free detection: the block (or a coalesced ancestor
        // containing it) must not already be free.
        if (0..=MAX_ORDER).any(|o| self.free[o as usize].contains(block_index(off, o))) {
            return Err(BuddyError::BadFree);
        }
        self.allocated -= block_size(order);
        let mut order = order;
        // Coalesce with the buddy while possible.
        while order < MAX_ORDER {
            let buddy = off ^ block_size(order);
            if buddy + block_size(order) <= self.size
                && self.free[order as usize].remove(block_index(buddy, order))
            {
                off = off.min(buddy);
                order += 1;
            } else {
                break;
            }
        }
        self.free[order as usize].insert(block_index(off, order));
        Ok(())
    }

    /// A copy of this allocator translated by `delta` bytes: same size,
    /// same free-list *shape*, every address shifted. The free bitmaps
    /// are indexed relative to `base`, and every decision the allocator
    /// makes (seeding, split, coalesce, lowest-address choice) is
    /// arithmetic on `addr - base`, so the copy is a plain clone with a
    /// new base. It behaves bit-identically to an allocator constructed
    /// at the shifted base and driven through the same call sequence —
    /// the invariant behind template-boot node cloning.
    pub fn clone_rebased(&self, delta: u64) -> BuddyAllocator {
        BuddyAllocator {
            base: self.base + delta,
            ..self.clone()
        }
    }

    /// The order of the largest currently free block, if any.
    pub fn largest_free_order(&self) -> Option<u8> {
        (0..=MAX_ORDER)
            .rev()
            .find(|&o| !self.free[o as usize].is_empty())
    }

    /// Fragment the allocator to emulate a long-running host: allocates
    /// single 4 KiB pages and frees every other one, leaving a
    /// checkerboard that prevents large contiguous allocations. `fraction`
    /// is the share of total memory to churn (0.0 ..= 1.0).
    ///
    /// Returns the number of pages left allocated.
    pub fn fragment(&mut self, fraction: f64) -> u64 {
        let fraction = fraction.clamp(0.0, 1.0);
        let target_pages = ((self.size as f64 * fraction) / PAGE_4K as f64) as u64;
        let mut taken = Vec::new();
        for _ in 0..target_pages {
            match self.alloc(0) {
                Ok(p) => taken.push(p),
                Err(_) => break,
            }
        }
        // Free every other page: buddies can never coalesce past order 0.
        for &p in taken.iter().skip(1).step_by(2) {
            self.free(p, 0).expect("freeing just-allocated page");
        }
        taken.len().div_ceil(2) as u64
    }
}

/// Size in bytes of a block of the given order.
#[inline]
pub const fn block_size(order: u8) -> u64 {
    PAGE_4K << order
}

/// Copy-on-write frame allocator for flyweight node models: N nodes
/// whose post-boot buddy state is identical up to a per-node physical
/// offset share one [`BuddyAllocator`] image behind an `Arc`, and a
/// node materializes its own rebased copy only at its first mutating
/// touch (a runtime `mmap`/`munmap`; steady-state fast-path traffic
/// never allocates frames). The eager layout stays available as
/// [`Frames::Owned`].
#[derive(Clone, Debug)]
pub enum Frames {
    /// A node-private allocator (the eager reference layout, and the
    /// state of any shared node after its first mutation).
    Owned(BuddyAllocator),
    /// A view of a shared post-boot image, translated by `delta` bytes.
    Shared {
        /// The template node's post-boot allocator.
        image: std::sync::Arc<BuddyAllocator>,
        /// This node's physical offset from the template.
        delta: u64,
    },
}

impl Frames {
    /// Whether this node holds a private (materialized) allocator.
    pub fn is_materialized(&self) -> bool {
        matches!(self, Frames::Owned(_))
    }

    /// Mutable access, materializing a private rebased copy on first
    /// touch of a shared image.
    pub fn get_mut(&mut self) -> &mut BuddyAllocator {
        if let Frames::Shared { image, delta } = self {
            *self = Frames::Owned(image.clone_rebased(*delta));
        }
        match self {
            Frames::Owned(b) => b,
            Frames::Shared { .. } => unreachable!("materialized above"),
        }
    }

    /// Total managed bytes (read-through; never materializes).
    pub fn capacity(&self) -> u64 {
        match self {
            Frames::Owned(b) => b.capacity(),
            Frames::Shared { image, .. } => image.capacity(),
        }
    }

    /// Bytes currently allocated (read-through; never materializes).
    pub fn allocated(&self) -> u64 {
        match self {
            Frames::Owned(b) => b.allocated(),
            Frames::Shared { image, .. } => image.allocated(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(size: u64) -> BuddyAllocator {
        BuddyAllocator::new(PhysAddr(0), size)
    }

    #[test]
    fn alloc_free_round_trip() {
        let mut b = mk(1 << 20); // 1 MiB
        let a = b.alloc(0).unwrap();
        assert_eq!(b.allocated(), PAGE_4K);
        b.free(a, 0).unwrap();
        assert_eq!(b.allocated(), 0);
        // After freeing everything, a maximal block is available again.
        assert_eq!(b.largest_free_order(), Some(8)); // 1 MiB = 4K << 8
    }

    #[test]
    fn returns_lowest_address_first() {
        let mut b = mk(1 << 20);
        let a0 = b.alloc(0).unwrap();
        let a1 = b.alloc(0).unwrap();
        assert_eq!(a0, PhysAddr(0));
        assert_eq!(a1, PhysAddr(PAGE_4K));
    }

    #[test]
    fn split_and_coalesce() {
        let mut b = mk(1 << 20);
        let pages: Vec<_> = (0..4).map(|_| b.alloc(0).unwrap()).collect();
        // Free in reverse order: must coalesce back to an order-2 block.
        for p in pages.iter().rev() {
            b.free(*p, 0).unwrap();
        }
        let big = b.alloc(2).unwrap();
        assert_eq!(big, PhysAddr(0));
    }

    #[test]
    fn order_for_sizes() {
        assert_eq!(BuddyAllocator::order_for(1), 0);
        assert_eq!(BuddyAllocator::order_for(PAGE_4K), 0);
        assert_eq!(BuddyAllocator::order_for(PAGE_4K + 1), 1);
        assert_eq!(BuddyAllocator::order_for(2 << 20), 9);
        assert_eq!(BuddyAllocator::order_for((2 << 20) + 1), 10);
    }

    #[test]
    fn out_of_memory() {
        let mut b = mk(PAGE_4K * 2);
        b.alloc(0).unwrap();
        b.alloc(0).unwrap();
        assert_eq!(b.alloc(0), Err(BuddyError::OutOfMemory));
        assert_eq!(b.alloc(5), Err(BuddyError::OutOfMemory));
    }

    #[test]
    fn bad_and_double_free_detected() {
        let mut b = mk(1 << 20);
        let a = b.alloc(0).unwrap();
        assert_eq!(b.free(PhysAddr(0x123), 0), Err(BuddyError::BadFree));
        assert_eq!(b.free(PhysAddr(2 << 20), 0), Err(BuddyError::BadFree));
        b.free(a, 0).unwrap();
        assert_eq!(b.free(a, 0), Err(BuddyError::BadFree));
    }

    #[test]
    fn fragmentation_prevents_large_blocks() {
        let mut b = mk(16 << 20); // 16 MiB
        assert!(b.largest_free_order().unwrap() >= 10);
        assert_eq!(b.fragment(1.0), 2048);
        // Half the memory is free but only as isolated 4 KiB pages.
        assert_eq!(b.largest_free_order(), Some(0));
        assert!(b.alloc(1).is_err());
        assert!(b.alloc(0).is_ok());
    }

    #[test]
    fn non_power_of_two_region() {
        // 20 KiB region: 16 KiB block + 4 KiB block.
        let mut b = BuddyAllocator::new(PhysAddr(0), 5 * PAGE_4K);
        assert_eq!(b.capacity(), 5 * PAGE_4K);
        let big = b.alloc(2).unwrap();
        assert_eq!(big, PhysAddr(0));
        let small = b.alloc(0).unwrap();
        assert_eq!(small, PhysAddr(4 * PAGE_4K));
        assert_eq!(b.free_bytes(), 0);
    }

    #[test]
    fn offset_base() {
        let mut b = BuddyAllocator::new(PhysAddr(0x10000000), 1 << 20);
        let a = b.alloc(0).unwrap();
        assert_eq!(a, PhysAddr(0x10000000));
        b.free(a, 0).unwrap();
        assert_eq!(b.allocated(), 0);
    }

    #[test]
    fn clone_rebased_tracks_the_shifted_original() {
        // Drive an allocator through a mixed history, clone it with a
        // delta, then drive both through the same tail: every result
        // must match shifted, including free-list choices and errors.
        let delta = 1u64 << 40;
        let mut a = mk(4 << 20);
        let mut shifted = BuddyAllocator::new(PhysAddr(delta), 4 << 20);
        let mut live = Vec::new();
        for i in 0..40u64 {
            let order = (i % 3) as u8;
            let pa = a.alloc(order).unwrap();
            let ps = shifted.alloc(order).unwrap();
            assert_eq!(ps.0, pa.0 + delta);
            live.push((pa, ps, order));
            if i % 4 == 3 {
                let (pa, ps, o) = live.remove(live.len() / 2);
                a.free(pa, o).unwrap();
                shifted.free(ps, o).unwrap();
            }
        }
        let b = a.clone_rebased(delta);
        assert_eq!(format!("{b:?}"), format!("{shifted:?}"));
        assert_eq!(b.allocated(), a.allocated());
    }

    #[test]
    fn frames_materialize_on_first_mutation() {
        let mut a = mk(1 << 20);
        let p = a.alloc(3).unwrap();
        a.free(p, 3).unwrap();
        let delta = 2u64 << 40;
        let image = std::sync::Arc::new(a);
        let mut f = Frames::Shared {
            image: image.clone(),
            delta,
        };
        assert!(!f.is_materialized());
        assert_eq!(f.capacity(), 1 << 20);
        assert_eq!(f.allocated(), 0);
        let got = f.get_mut().alloc(0).unwrap();
        assert!(f.is_materialized());
        assert_eq!(got, PhysAddr(delta));
        // The shared image is untouched.
        assert_eq!(image.allocated(), 0);
    }

    /// The reference allocator: one `BTreeSet` of free block addresses
    /// per order, probed per order for double frees. The bitmap
    /// allocator must agree with it on every call.
    #[derive(Clone)]
    struct TreeBuddy {
        base: u64,
        size: u64,
        free: Vec<std::collections::BTreeSet<u64>>,
        allocated: u64,
    }

    impl TreeBuddy {
        fn new(base: u64, size: u64) -> TreeBuddy {
            let mut b = TreeBuddy {
                base,
                size,
                free: vec![Default::default(); MAX_ORDER as usize + 1],
                allocated: 0,
            };
            let mut cur = base;
            while cur < base + size {
                let mut order = MAX_ORDER;
                while !is_aligned(cur - base, block_size(order))
                    || cur + block_size(order) > base + size
                {
                    order -= 1;
                }
                b.free[order as usize].insert(cur);
                cur += block_size(order);
            }
            b
        }

        fn alloc(&mut self, order: u8) -> Result<PhysAddr, BuddyError> {
            let mut o = order;
            while o <= MAX_ORDER && self.free[o as usize].is_empty() {
                o += 1;
            }
            if o > MAX_ORDER {
                return Err(BuddyError::OutOfMemory);
            }
            let addr = self.free[o as usize].pop_first().unwrap();
            while o > order {
                o -= 1;
                self.free[o as usize].insert(addr + block_size(o));
            }
            self.allocated += block_size(order);
            Ok(PhysAddr(addr))
        }

        fn free(&mut self, addr: PhysAddr, order: u8) -> Result<(), BuddyError> {
            if order > MAX_ORDER
                || addr.0 < self.base
                || addr.0 + block_size(order) > self.base + self.size
                || !is_aligned(addr.0 - self.base, block_size(order))
            {
                return Err(BuddyError::BadFree);
            }
            for o in 0..=MAX_ORDER {
                let container =
                    self.base + crate::addr::align_down(addr.0 - self.base, block_size(o));
                if self.free[o as usize].contains(&container) {
                    return Err(BuddyError::BadFree);
                }
            }
            self.allocated -= block_size(order);
            let (mut addr, mut order) = (addr.0, order);
            while order < MAX_ORDER {
                let buddy = self.base + ((addr - self.base) ^ block_size(order));
                if buddy + block_size(order) <= self.base + self.size
                    && self.free[order as usize].remove(&buddy)
                {
                    addr = addr.min(buddy);
                    order += 1;
                } else {
                    break;
                }
            }
            self.free[order as usize].insert(addr);
            Ok(())
        }

        /// Returns the held pages themselves, for the test to track.
        fn fragment(&mut self, fraction: f64) -> Vec<PhysAddr> {
            let pages = ((self.size as f64 * fraction.clamp(0.0, 1.0)) / PAGE_4K as f64) as u64;
            let taken: Vec<_> = (0..pages).map_while(|_| self.alloc(0).ok()).collect();
            let mut held = Vec::new();
            for (i, p) in taken.into_iter().enumerate() {
                if i % 2 == 1 {
                    self.free(p, 0).unwrap();
                } else {
                    held.push(p);
                }
            }
            held
        }

        fn largest_free_order(&self) -> Option<u8> {
            (0..=MAX_ORDER)
                .rev()
                .find(|&o| !self.free[o as usize].is_empty())
        }
    }

    /// splitmix64: a seeded stream for the property test.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// Every summary bit is set exactly when its bitmap word is non-zero,
    /// every word below `first` is clear, and `len` counts the set bits.
    fn assert_free_maps_consistent(b: &BuddyAllocator) {
        for (o, m) in b.free.iter().enumerate() {
            assert_eq!(m.summary.len(), m.words.len().div_ceil(64), "order {o}");
            for (w, word) in m.words.iter().enumerate() {
                let summary = m.summary[w / 64] & (1 << (w % 64)) != 0;
                assert_eq!(summary, *word != 0, "order {o} word {w}");
                assert!(*word == 0 || w / 64 >= m.first, "order {o} word {w}");
            }
            let bits: u64 = m.words.iter().map(|w| w.count_ones() as u64).sum();
            assert_eq!(bits, m.len, "order {o}");
        }
    }

    /// Seeded random alloc/free histories at mixed orders, with bad
    /// frees, double frees (of live-freed blocks and of blocks inside a
    /// coalesced free parent), fragmentation and rebasing, over
    /// non-power-of-two ranges at offset bases: the bitmap allocator
    /// returns exactly what the `BTreeSet` reference returns.
    #[test]
    fn bitmap_matches_btree_reference() {
        for case in 0..64u64 {
            let mut r = Rng(0x0B0D_D1E5 ^ (case << 32));
            // Mostly small ranges; some past 1 GiB, so that every order,
            // up to MAX_ORDER, holds free blocks.
            let pages = match case % 8 {
                0 => 1 + r.below(1 << 14),
                1 => (1 << 18) + r.below(1 << 18),
                _ => 1 + r.below(3000),
            };
            let size = pages * PAGE_4K;
            let mut base = r.below(1 << 20) * PAGE_4K;
            let mut b = BuddyAllocator::new(PhysAddr(base), size);
            let mut t = TreeBuddy::new(base, size);
            let mut live: Vec<(PhysAddr, u8)> = Vec::new();
            let mut freed: Vec<(PhysAddr, u8)> = Vec::new();
            for step in 0..1500 {
                let ctx = format!("case {case} step {step}");
                match r.below(100) {
                    0..=44 => {
                        let order = match r.below(8) {
                            0 => r.below(MAX_ORDER as u64 + 2) as u8,
                            k => (k as u8 - 1).min(4),
                        };
                        let got = b.alloc(order);
                        assert_eq!(got, t.alloc(order), "{ctx}: alloc({order})");
                        if let Ok(pa) = got {
                            live.push((pa, order));
                        }
                    }
                    45..=79 if !live.is_empty() => {
                        let (pa, o) = live.swap_remove(r.below(live.len() as u64) as usize);
                        assert_eq!(b.free(pa, o), t.free(pa, o), "{ctx}: free");
                        freed.push((pa, o));
                    }
                    80..=85 if !freed.is_empty() => {
                        // Double free, possibly of a block that has since
                        // coalesced into a larger free parent.
                        let (pa, o) = freed[r.below(freed.len() as u64) as usize];
                        if !live.iter().any(|&(l, lo)| {
                            l.0 < pa.0 + block_size(o) && pa.0 < l.0 + block_size(lo)
                        }) {
                            assert_eq!(b.free(pa, o), Err(BuddyError::BadFree), "{ctx}");
                            assert_eq!(t.free(pa, o), Err(BuddyError::BadFree), "{ctx}");
                        }
                    }
                    86..=89 => {
                        // A sub-block inside a free block of the reference.
                        let orders: Vec<usize> = (1..=MAX_ORDER as usize)
                            .filter(|&o| !t.free[o].is_empty())
                            .collect();
                        if let Some(&o) = orders.get(r.below(orders.len().max(1) as u64) as usize) {
                            let parent = *t.free[o].iter().next().unwrap();
                            let sub = r.below(o as u64) as u8;
                            let pa =
                                PhysAddr(parent + r.below(1 << (o as u8 - sub)) * block_size(sub));
                            assert_eq!(b.free(pa, sub), Err(BuddyError::BadFree), "{ctx}");
                            assert_eq!(t.free(pa, sub), Err(BuddyError::BadFree), "{ctx}");
                        }
                    }
                    90..=94 => {
                        // Misaligned, out-of-range or oversized frees.
                        let pa = PhysAddr(match r.below(3) {
                            0 => (base + r.below(size)) | 1,
                            1 => base + size + r.below(8) * PAGE_4K,
                            _ => base.saturating_sub(PAGE_4K * (1 + r.below(4))),
                        });
                        let o = r.below(MAX_ORDER as u64 + 2) as u8;
                        assert_eq!(b.free(pa, o), t.free(pa, o), "{ctx}: bad free");
                    }
                    95..=96 => {
                        // Churn at most ~8k pages.
                        let fraction = (r.below(5) as f64 / 8.0).min(8192.0 / pages as f64);
                        let held = t.fragment(fraction);
                        assert_eq!(b.fragment(fraction), held.len() as u64, "{ctx}");
                        live.extend(held.into_iter().map(|pa| (pa, 0)));
                    }
                    97 => {
                        let delta = r.below(1 << 24) * PAGE_4K;
                        b = b.clone_rebased(delta);
                        t = TreeBuddy {
                            base: t.base + delta,
                            free: t
                                .free
                                .iter()
                                .map(|s| s.iter().map(|a| a + delta).collect())
                                .collect(),
                            ..t
                        };
                        base += delta;
                        for (pa, _) in live.iter_mut().chain(freed.iter_mut()) {
                            *pa = *pa + delta;
                        }
                    }
                    _ => {}
                }
                assert_eq!(b.allocated(), t.allocated, "{ctx}");
                assert_eq!(b.largest_free_order(), t.largest_free_order(), "{ctx}");
            }
            assert_free_maps_consistent(&b);
            // Drain: everything frees and the range coalesces back.
            for (pa, o) in live.drain(..) {
                assert_eq!(b.free(pa, o), t.free(pa, o), "case {case}: drain");
            }
            assert_eq!(b.allocated(), 0, "case {case}");
            assert_eq!(
                b.largest_free_order(),
                t.largest_free_order(),
                "case {case}"
            );
            assert_free_maps_consistent(&b);
        }
    }
}
