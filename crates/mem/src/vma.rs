//! User address spaces and anonymous-mapping policies.
//!
//! The paper's fast-path optimization hinges on *how the LWK backs
//! anonymous memory*: McKernel backs `ANONYMOUS` mappings with physically
//! contiguous memory using large pages whenever possible and pins them;
//! Linux hands out whatever 4 KiB frames the (fragmented) buddy allocator
//! produces. The two policies are [`MapPolicy::Fragmented4k`] and
//! [`MapPolicy::ContiguousLarge`].
//!
//! For the flyweight node model, an [`AddressSpace`] can be frozen into a
//! [`SpaceTemplate`] after boot and instantiated as copy-on-write views:
//! node address spaces in a homogeneous cluster differ only by the
//! constant physical offset of each node's frame pool, so read-only walks
//! (the fast path) shift addresses on the fly and the first mutating
//! operation materializes a private rebased copy.

use crate::addr::{PageSize, PhysAddr, PhysRun, VirtAddr, PAGE_2M, PAGE_4K};
use crate::buddy::{BuddyAllocator, BuddyError};
use crate::pagetable::{flags, PageTable, PtError, Translation};
use std::collections::BTreeMap;
use std::sync::Arc;

/// How anonymous mappings are backed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MapPolicy {
    /// Linux-style: one 4 KiB frame at a time, no contiguity guarantee.
    Fragmented4k,
    /// McKernel-style: greedy largest-block allocation; 2 MiB page-table
    /// leaves where alignment allows; physically contiguous as much as the
    /// frame allocator permits.
    ContiguousLarge,
}

/// Errors from address-space operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MapError {
    /// Frame allocator exhausted.
    OutOfMemory,
    /// Bad arguments (zero length, unmapped range, ...).
    Invalid,
    /// Range is pinned and the operation would violate the pin.
    Pinned,
}

impl From<BuddyError> for MapError {
    fn from(_: BuddyError) -> MapError {
        MapError::OutOfMemory
    }
}
impl From<PtError> for MapError {
    fn from(_: PtError) -> MapError {
        MapError::Invalid
    }
}

/// A physical block owned by a VMA (to return to the buddy on unmap).
#[derive(Clone, Copy, Debug)]
struct OwnedBlock {
    pa: PhysAddr,
    order: u8,
}

/// One virtual memory area.
#[derive(Clone, Debug)]
pub struct Vma {
    /// Start virtual address.
    pub start: VirtAddr,
    /// Length in bytes (multiple of 4 KiB).
    pub len: u64,
    /// Whether the backing frames are pinned (LWK mappings always are).
    pub pinned: bool,
    /// `get_user_pages` pin references currently outstanding.
    pub gup_pins: u64,
    blocks: Vec<OwnedBlock>,
    /// Page-table leaves installed for this VMA.
    leaves: u64,
}

/// Result of a `get_user_pages()` call: the 4 KiB frames backing the range.
#[derive(Clone, Debug)]
pub struct GupPages {
    /// One entry per 4 KiB page, in virtual order.
    pub frames: Vec<PhysAddr>,
}

/// Statistics a mapping operation reports (fed into the cost models).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MapStats {
    /// Page-table leaves installed.
    pub leaves_mapped: u64,
    /// Of which large (2 MiB) leaves.
    pub large_leaves: u64,
    /// Distinct physical blocks allocated.
    pub blocks_allocated: u64,
}

/// The page table and VMA list of an address space — everything whose
/// contents differ between nodes only by the constant physical-frame
/// offset of the node's pool.
#[derive(Debug)]
struct SpaceImage {
    page_table: PageTable,
    vmas: BTreeMap<u64, Vma>,
}

impl SpaceImage {
    /// Deep-copy with every physical address (page-table leaves and
    /// VMA-owned buddy blocks) shifted by `delta`. Virtual layout is
    /// untouched.
    fn rebased(&self, delta: u64) -> SpaceImage {
        let mut vmas = self.vmas.clone();
        if delta != 0 {
            for vma in vmas.values_mut() {
                for b in vma.blocks.iter_mut() {
                    b.pa = b.pa + delta;
                }
            }
        }
        SpaceImage {
            page_table: self.page_table.clone_rebased(delta),
            vmas,
        }
    }
}

/// How an [`AddressSpace`] stores its image.
#[derive(Debug)]
enum SpaceRepr {
    /// This space owns its tables (the eager model, and any flyweight
    /// space after its first mutating touch).
    Owned(SpaceImage),
    /// This space is a view of a booted template's image, with all
    /// physical addresses logically shifted by `delta`. Read-only walks
    /// (the PicoDriver fast path) apply the shift on the fly; the first
    /// mutating operation materializes a rebased private copy.
    Shared { image: Arc<SpaceImage>, delta: u64 },
}

/// An immutable post-boot address-space image shared across the node
/// instances of one OS configuration. Produced by
/// [`AddressSpace::freeze`]; stamped out per node by
/// [`instantiate`](SpaceTemplate::instantiate).
#[derive(Clone, Debug)]
pub struct SpaceTemplate {
    image: Arc<SpaceImage>,
    policy: MapPolicy,
    next_mmap: u64,
}

impl SpaceTemplate {
    /// A flyweight address space whose physical addresses are those of the
    /// template shifted by `delta` (the distance between the template
    /// node's frame pool and this node's). No tables are copied until the
    /// space is first mutated.
    pub fn instantiate(&self, delta: u64) -> AddressSpace {
        AddressSpace {
            repr: SpaceRepr::Shared {
                image: Arc::clone(&self.image),
                delta,
            },
            policy: self.policy,
            next_mmap: self.next_mmap,
        }
    }
}

/// A user process address space: page table + VMA list + bump allocator
/// for `mmap` placement.
#[derive(Debug)]
pub struct AddressSpace {
    repr: SpaceRepr,
    policy: MapPolicy,
    next_mmap: u64,
}

impl AddressSpace {
    /// Create an address space placing mappings from `mmap_base` upward.
    pub fn new(policy: MapPolicy, mmap_base: VirtAddr) -> AddressSpace {
        assert!(
            mmap_base.is_aligned(PAGE_2M),
            "mmap base should be 2M aligned"
        );
        AddressSpace {
            repr: SpaceRepr::Owned(SpaceImage {
                page_table: PageTable::new(),
                vmas: BTreeMap::new(),
            }),
            policy,
            next_mmap: mmap_base.0,
        }
    }

    /// The image and the physical delta reads must add to its addresses.
    #[inline]
    fn image(&self) -> (&SpaceImage, u64) {
        match &self.repr {
            SpaceRepr::Owned(img) => (img, 0),
            SpaceRepr::Shared { image, delta } => (image, *delta),
        }
    }

    /// Private, rebased image — copies the template on first call.
    fn image_mut(&mut self) -> &mut SpaceImage {
        if let SpaceRepr::Shared { image, delta } = &self.repr {
            self.repr = SpaceRepr::Owned(image.rebased(*delta));
        }
        match &mut self.repr {
            SpaceRepr::Owned(img) => img,
            SpaceRepr::Shared { .. } => unreachable!("just materialized"),
        }
    }

    /// Whether this space owns private tables (true for eagerly built
    /// spaces and for flyweight spaces after their first mutation).
    pub fn is_materialized(&self) -> bool {
        matches!(self.repr, SpaceRepr::Owned(_))
    }

    /// Freeze this space into an immutable template other nodes can
    /// instantiate views of. A shared space re-freezes by materializing
    /// its rebased image first.
    pub fn freeze(self) -> SpaceTemplate {
        let image = match self.repr {
            SpaceRepr::Owned(img) => Arc::new(img),
            SpaceRepr::Shared { image, delta } => Arc::new(image.rebased(delta)),
        };
        SpaceTemplate {
            image,
            policy: self.policy,
            next_mmap: self.next_mmap,
        }
    }

    /// The backing policy.
    pub fn policy(&self) -> MapPolicy {
        self.policy
    }

    /// Number of live VMAs.
    pub fn vma_count(&self) -> usize {
        self.image().0.vmas.len()
    }

    /// Number of page-table leaf mappings currently installed.
    pub fn mapped_pages(&self) -> u64 {
        self.image().0.page_table.mapped_pages()
    }

    /// Translate `va` through the page table (delta-adjusted for shared
    /// spaces).
    pub fn translate(&self, va: VirtAddr) -> Result<Translation, PtError> {
        let (img, delta) = self.image();
        let mut t = img.page_table.translate(va)?;
        t.pa = t.pa + delta;
        Ok(t)
    }

    /// Look up the VMA containing `va`.
    pub fn find_vma(&self, va: VirtAddr) -> Option<&Vma> {
        let (img, _) = self.image();
        img.vmas
            .range(..=va.0)
            .next_back()
            .map(|(_, v)| v)
            .filter(|v| va.0 < v.start.0 + v.len)
    }

    /// Map `len` bytes of anonymous memory; frames come from `phys`.
    ///
    /// Returns the chosen virtual address and mapping statistics.
    pub fn mmap_anonymous(
        &mut self,
        phys: &mut BuddyAllocator,
        len: u64,
        pinned: bool,
    ) -> Result<(VirtAddr, MapStats), MapError> {
        if len == 0 {
            return Err(MapError::Invalid);
        }
        let len = crate::addr::align_up(len, PAGE_4K);
        // Reserve VA, 2M aligned so large leaves are possible.
        let va = VirtAddr(self.next_mmap);
        self.next_mmap = crate::addr::align_up(self.next_mmap + len, PAGE_2M) + PAGE_2M;

        let policy = self.policy;
        let img = self.image_mut();
        let mut vma = Vma {
            start: va,
            len,
            pinned,
            gup_pins: 0,
            blocks: Vec::new(),
            leaves: 0,
        };
        let mut stats = MapStats::default();
        let result = match policy {
            MapPolicy::Fragmented4k => {
                populate_fragmented(&mut img.page_table, phys, &mut vma, &mut stats)
            }
            MapPolicy::ContiguousLarge => {
                populate_contiguous(&mut img.page_table, phys, &mut vma, &mut stats)
            }
        };
        if let Err(e) = result {
            // Roll back everything this VMA touched.
            teardown_vma(&mut img.page_table, phys, &vma);
            return Err(e);
        }
        img.vmas.insert(va.0, vma);
        Ok((va, stats))
    }

    /// Unmap the VMA starting at `va` (whole-VMA munmap, the common case
    /// for the buffers we model). Returns the number of page-table leaves
    /// removed (feeds the TLB-shootdown cost model).
    pub fn munmap(&mut self, phys: &mut BuddyAllocator, va: VirtAddr) -> Result<u64, MapError> {
        let img = self.image_mut();
        let vma = img.vmas.remove(&va.0).ok_or(MapError::Invalid)?;
        if vma.gup_pins > 0 {
            // Pages pinned by get_user_pages can't be unmapped from under
            // the device.
            img.vmas.insert(va.0, vma);
            return Err(MapError::Pinned);
        }
        teardown_vma(&mut img.page_table, phys, &vma);
        Ok(vma.leaves)
    }

    /// Linux-style `get_user_pages()`: translate and pin every 4 KiB page
    /// backing `[va, va+len)`. The caller must later call
    /// [`put_user_pages`](Self::put_user_pages).
    pub fn get_user_pages(&mut self, va: VirtAddr, len: u64) -> Result<GupPages, MapError> {
        if len == 0 {
            return Err(MapError::Invalid);
        }
        let start = va.align_down(PAGE_4K);
        let end = (va + len).align_up(PAGE_4K);
        let npages = (end - start) / PAGE_4K;
        // Pinning mutates the VMA refcount, so a shared space materializes
        // here — exactly mirroring the real cost: gup is the slow path.
        let img = self.image_mut();
        let mut frames = Vec::with_capacity(npages as usize);
        for i in 0..npages {
            let t = img.page_table.translate(start + i * PAGE_4K)?;
            frames.push(t.pa.align_down(PAGE_4K));
        }
        // Pin the owning VMA(s).
        let vma = img
            .vmas
            .range_mut(..=start.0)
            .next_back()
            .map(|(_, v)| v)
            .filter(|v| start.0 < v.start.0 + v.len)
            .ok_or(MapError::Invalid)?;
        vma.gup_pins += 1;
        Ok(GupPages { frames })
    }

    /// Release one `get_user_pages` pin on the VMA containing `va`.
    pub fn put_user_pages(&mut self, va: VirtAddr) -> Result<(), MapError> {
        let img = self.image_mut();
        let vma = img
            .vmas
            .range_mut(..=va.0)
            .next_back()
            .map(|(_, v)| v)
            .filter(|v| va.0 < v.start.0 + v.len)
            .ok_or(MapError::Invalid)?;
        if vma.gup_pins == 0 {
            return Err(MapError::Invalid);
        }
        vma.gup_pins -= 1;
        Ok(())
    }

    /// The physically contiguous runs backing `[va, va+len)` and the
    /// page-table levels walked — the PicoDriver fast path. Only valid on
    /// pinned mappings (McKernel guarantees anonymous mappings are pinned;
    /// walking an unpinned range would race with reclaim).
    pub fn contiguous_runs(&self, va: VirtAddr, len: u64) -> Result<(Vec<PhysRun>, u64), MapError> {
        let vma = self.find_vma(va).ok_or(MapError::Invalid)?;
        if !vma.pinned {
            return Err(MapError::Pinned);
        }
        if va.0 + len > vma.start.0 + vma.len {
            return Err(MapError::Invalid);
        }
        let (img, delta) = self.image();
        let (mut runs, levels) = img.page_table.contiguous_runs(va, len)?;
        if delta != 0 {
            for r in runs.iter_mut() {
                r.pa = r.pa + delta;
            }
        }
        Ok((runs, levels))
    }
}

fn populate_fragmented(
    pt: &mut PageTable,
    phys: &mut BuddyAllocator,
    vma: &mut Vma,
    stats: &mut MapStats,
) -> Result<(), MapError> {
    let mut off = 0;
    while off < vma.len {
        let frame = phys.alloc(0)?;
        vma.blocks.push(OwnedBlock {
            pa: frame,
            order: 0,
        });
        stats.blocks_allocated += 1;
        let va = vma.start + off;
        pt.map(va, frame, PageSize::Size4K, user_flags(vma.pinned))?;
        vma.leaves += 1;
        stats.leaves_mapped += 1;
        off += PAGE_4K;
    }
    Ok(())
}

fn populate_contiguous(
    pt: &mut PageTable,
    phys: &mut BuddyAllocator,
    vma: &mut Vma,
    stats: &mut MapStats,
) -> Result<(), MapError> {
    let mut off = 0;
    while off < vma.len {
        let remaining = vma.len - off;
        let va = vma.start + off;
        // Prefer a 2 MiB leaf when both VA alignment and length allow.
        if va.is_aligned(PAGE_2M) && remaining >= PAGE_2M {
            if let Ok(frame) = phys.alloc(9) {
                debug_assert!(frame.is_aligned(PAGE_2M));
                vma.blocks.push(OwnedBlock {
                    pa: frame,
                    order: 9,
                });
                stats.blocks_allocated += 1;
                pt.map(va, frame, PageSize::Size2M, user_flags(vma.pinned))?;
                vma.leaves += 1;
                stats.leaves_mapped += 1;
                stats.large_leaves += 1;
                off += PAGE_2M;
                continue;
            }
        }
        // Otherwise grab the largest power-of-two block ≤ remaining
        // (physically contiguous even if mapped with 4 KiB leaves) and
        // shrink on allocation failure.
        let max_order = order_fitting(remaining).min(9);
        let (frame, order) = alloc_shrinking(phys, max_order)?;
        vma.blocks.push(OwnedBlock { pa: frame, order });
        stats.blocks_allocated += 1;
        let block_len = crate::buddy::block_size(order).min(remaining);
        let mut inner = 0;
        while inner < block_len {
            pt.map(
                va + inner,
                frame + inner,
                PageSize::Size4K,
                user_flags(vma.pinned),
            )?;
            vma.leaves += 1;
            stats.leaves_mapped += 1;
            inner += PAGE_4K;
        }
        off += block_len;
    }
    Ok(())
}

/// Remove the VMA's leaves in one page-table walk and return its blocks
/// to the frame allocator. A leaf count that does not match, or a block
/// the allocator refuses, means the address space and the allocator
/// disagree about who owns what: that is a bug, so it panics.
fn teardown_vma(pt: &mut PageTable, phys: &mut BuddyAllocator, vma: &Vma) {
    let start = vma.start.0;
    let removed = pt
        .unmap_range(vma.start, vma.len)
        .unwrap_or_else(|e| panic!("VMA {start:#x}: unmapping its range failed: {e:?}"));
    assert_eq!(
        removed, vma.leaves,
        "VMA {start:#x}: page table held another leaf count than the VMA installed"
    );
    for b in &vma.blocks {
        phys.free(b.pa, b.order).unwrap_or_else(|e| {
            panic!(
                "VMA {start:#x}: freeing block {:#x} (order {}) failed: {e:?}",
                b.pa.0, b.order
            )
        });
    }
}

fn user_flags(pinned: bool) -> u8 {
    let mut f = flags::USER | flags::WRITE;
    if pinned {
        f |= flags::PINNED;
    }
    f
}

/// Largest order such that `4K << order <= bytes` (0 if bytes < 8 KiB).
fn order_fitting(bytes: u64) -> u8 {
    let pages = (bytes / PAGE_4K).max(1);
    (63 - pages.leading_zeros() as u8).min(crate::buddy::MAX_ORDER)
}

/// Allocate at `max_order`, shrinking the request until success.
fn alloc_shrinking(phys: &mut BuddyAllocator, max_order: u8) -> Result<(PhysAddr, u8), MapError> {
    let mut order = max_order;
    loop {
        match phys.alloc(order) {
            Ok(pa) => return Ok((pa, order)),
            Err(_) if order > 0 => order -= 1,
            Err(_) => return Err(MapError::OutOfMemory),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: VirtAddr = VirtAddr(0x7000_0000_0000);

    fn fresh_phys(mib: u64) -> BuddyAllocator {
        BuddyAllocator::new(PhysAddr(0), mib << 20)
    }

    #[test]
    fn contiguous_policy_uses_large_pages() {
        let mut phys = fresh_phys(64);
        let mut asp = AddressSpace::new(MapPolicy::ContiguousLarge, BASE);
        let (va, stats) = asp.mmap_anonymous(&mut phys, 4 << 20, true).unwrap();
        assert_eq!(stats.large_leaves, 2, "4 MiB should be two 2 MiB leaves");
        let (runs, _) = asp.contiguous_runs(va, 4 << 20).unwrap();
        assert_eq!(runs.len(), 1, "fresh allocator => fully contiguous");
        assert_eq!(runs[0].len, 4 << 20);
    }

    #[test]
    fn fragmented_policy_on_fragmented_buddy_yields_many_runs() {
        let mut phys = fresh_phys(64);
        phys.fragment(0.5);
        let mut asp = AddressSpace::new(MapPolicy::Fragmented4k, BASE);
        let (va, stats) = asp.mmap_anonymous(&mut phys, 1 << 20, true).unwrap();
        assert_eq!(stats.large_leaves, 0);
        assert_eq!(stats.leaves_mapped, 256);
        let (runs, _) = asp.contiguous_runs(va, 1 << 20).unwrap();
        // Checkerboarded physical memory: every page is its own run.
        assert!(
            runs.len() > 200,
            "expected heavy fragmentation, got {} runs",
            runs.len()
        );
    }

    #[test]
    fn contiguous_policy_survives_fragmentation_gracefully() {
        let mut phys = fresh_phys(64);
        phys.fragment(0.5);
        let mut asp = AddressSpace::new(MapPolicy::ContiguousLarge, BASE);
        // No 2M blocks available; falls back to 4K without failing.
        let (va, stats) = asp.mmap_anonymous(&mut phys, 1 << 20, true).unwrap();
        assert_eq!(stats.large_leaves, 0);
        let (runs, _) = asp.contiguous_runs(va, 1 << 20).unwrap();
        assert!(!runs.is_empty());
    }

    #[test]
    fn gup_returns_all_frames_and_pins() {
        let mut phys = fresh_phys(16);
        let mut asp = AddressSpace::new(MapPolicy::Fragmented4k, BASE);
        let (va, _) = asp.mmap_anonymous(&mut phys, 64 * 1024, false).unwrap();
        let gup = asp.get_user_pages(va, 64 * 1024).unwrap();
        assert_eq!(gup.frames.len(), 16);
        // Pinned: munmap must fail until released.
        assert_eq!(asp.munmap(&mut phys, va), Err(MapError::Pinned));
        asp.put_user_pages(va).unwrap();
        assert!(asp.munmap(&mut phys, va).is_ok());
    }

    #[test]
    fn gup_handles_unaligned_ranges() {
        let mut phys = fresh_phys(16);
        let mut asp = AddressSpace::new(MapPolicy::Fragmented4k, BASE);
        let (va, _) = asp.mmap_anonymous(&mut phys, 32 * 1024, false).unwrap();
        // 5000 bytes starting 100 bytes in: touches pages 0 and 1.
        let gup = asp.get_user_pages(va + 100, 5000).unwrap();
        assert_eq!(gup.frames.len(), 2);
        asp.put_user_pages(va).unwrap();
    }

    #[test]
    fn munmap_returns_frames_to_buddy() {
        let mut phys = fresh_phys(16);
        let before = phys.free_bytes();
        let mut asp = AddressSpace::new(MapPolicy::ContiguousLarge, BASE);
        let (va, _) = asp.mmap_anonymous(&mut phys, 2 << 20, true).unwrap();
        assert!(phys.free_bytes() < before);
        let leaves = asp.munmap(&mut phys, va).unwrap();
        assert_eq!(leaves, 1); // one 2M leaf
        assert_eq!(phys.free_bytes(), before);
        assert_eq!(asp.vma_count(), 0);
    }

    #[test]
    fn unpinned_range_rejects_fast_path_walk() {
        let mut phys = fresh_phys(16);
        let mut asp = AddressSpace::new(MapPolicy::Fragmented4k, BASE);
        let (va, _) = asp.mmap_anonymous(&mut phys, PAGE_4K, false).unwrap();
        assert_eq!(asp.contiguous_runs(va, PAGE_4K), Err(MapError::Pinned));
    }

    #[test]
    fn out_of_memory_rolls_back() {
        let mut phys = fresh_phys(1); // 1 MiB only
        let mut asp = AddressSpace::new(MapPolicy::Fragmented4k, BASE);
        let err = asp.mmap_anonymous(&mut phys, 4 << 20, false).unwrap_err();
        assert_eq!(err, MapError::OutOfMemory);
        assert_eq!(asp.vma_count(), 0);
        assert_eq!(
            phys.allocated(),
            0,
            "partial allocation must be rolled back"
        );
        assert_eq!(asp.mapped_pages(), 0);
    }

    #[test]
    fn template_views_shift_physical_addresses_lazily() {
        let mut phys = fresh_phys(64);
        let mut asp = AddressSpace::new(MapPolicy::ContiguousLarge, BASE);
        let (va, _) = asp.mmap_anonymous(&mut phys, 4 << 20, true).unwrap();
        let (runs0, levels0) = asp.contiguous_runs(va, 4 << 20).unwrap();
        let tpl = asp.freeze();

        let delta = 3u64 << 40;
        let view = tpl.instantiate(delta);
        assert!(!view.is_materialized());
        assert_eq!(view.vma_count(), 1);
        assert_eq!(view.policy(), MapPolicy::ContiguousLarge);

        // Read-only fast-path walk: same shape, shifted frames, no copy.
        let (runs, levels) = view.contiguous_runs(va, 4 << 20).unwrap();
        assert_eq!(levels, levels0);
        assert_eq!(runs.len(), runs0.len());
        for (r, r0) in runs.iter().zip(runs0.iter()) {
            assert_eq!(r.len, r0.len);
            assert_eq!(r.pa, r0.pa + delta);
        }
        assert_eq!(
            view.translate(va + 0x123).unwrap().pa,
            PhysAddr(runs0[0].pa.0 + delta + 0x123)
        );
        assert!(!view.is_materialized(), "reads must not materialize");
    }

    #[test]
    fn template_view_materializes_on_mutation_and_matches_eager() {
        let delta = 5u64 << 40;
        let mut phys_t = fresh_phys(64);
        let mut phys_e = BuddyAllocator::new(PhysAddr(delta), 64 << 20);

        // Template booted against a pool at 0; eager twin against `delta`.
        let mut tmpl = AddressSpace::new(MapPolicy::ContiguousLarge, BASE);
        let (va, _) = tmpl.mmap_anonymous(&mut phys_t, 2 << 20, true).unwrap();
        let mut eager = AddressSpace::new(MapPolicy::ContiguousLarge, BASE);
        let (va_e, _) = eager.mmap_anonymous(&mut phys_e, 2 << 20, true).unwrap();
        assert_eq!(va, va_e, "virtual layout is node-invariant");

        let mut view = tmpl.freeze().instantiate(delta);
        // First mutating touch: map another region in both spaces, against
        // buddies with identical (shifted) state.
        let mut phys_v = phys_t.clone_rebased(delta);
        let (va2, s2) = view.mmap_anonymous(&mut phys_v, 1 << 20, true).unwrap();
        assert!(view.is_materialized());
        let (va2e, s2e) = eager.mmap_anonymous(&mut phys_e, 1 << 20, true).unwrap();
        assert_eq!((va2, s2), (va2e, s2e));
        for (a, b) in [(va, va_e), (va2, va2e)] {
            let (ra, la) = view.contiguous_runs(a, 1 << 20).unwrap();
            let (rb, lb) = eager.contiguous_runs(b, 1 << 20).unwrap();
            assert_eq!((ra, la), (rb, lb), "materialized == eagerly booted");
        }
        // And unmap still returns the rebased frames to the right buddy.
        view.munmap(&mut phys_v, va2).unwrap();
        eager.munmap(&mut phys_e, va2e).unwrap();
        assert_eq!(phys_v.free_bytes(), phys_e.free_bytes());
    }

    #[test]
    fn find_vma_boundaries() {
        let mut phys = fresh_phys(16);
        let mut asp = AddressSpace::new(MapPolicy::Fragmented4k, BASE);
        let (va, _) = asp.mmap_anonymous(&mut phys, 2 * PAGE_4K, false).unwrap();
        assert!(asp.find_vma(va).is_some());
        assert!(asp.find_vma(va + 2 * PAGE_4K - 1).is_some());
        assert!(asp.find_vma(va + 2 * PAGE_4K).is_none());
        assert!(asp.find_vma(VirtAddr(va.0 - 1)).is_none());
    }

    #[test]
    fn zero_length_requests_rejected() {
        let mut phys = fresh_phys(16);
        let mut asp = AddressSpace::new(MapPolicy::Fragmented4k, BASE);
        assert_eq!(
            asp.mmap_anonymous(&mut phys, 0, false).unwrap_err(),
            MapError::Invalid
        );
        let (va, _) = asp.mmap_anonymous(&mut phys, PAGE_4K, false).unwrap();
        assert_eq!(asp.get_user_pages(va, 0).unwrap_err(), MapError::Invalid);
    }

    /// Teardown of a mixed 2 MiB + 4 KiB `ContiguousLarge` mapping on a
    /// partly fragmented pool removes exactly that VMA's leaves in one
    /// range walk, returns every block, and leaves its neighbour intact.
    #[test]
    fn munmap_of_mixed_layout_spares_the_neighbour() {
        let mut phys = fresh_phys(64);
        // Checkerboard the low 16 MiB: odd pages free, even pages held.
        assert_eq!(phys.fragment(0.25), 2048);
        let mut asp = AddressSpace::new(MapPolicy::ContiguousLarge, BASE);
        let (a, sa) = asp.mmap_anonymous(&mut phys, 64 << 10, true).unwrap();
        assert_eq!((sa.leaves_mapped, sa.large_leaves), (16, 0));
        let free_before = phys.free_bytes();

        // Two 2 MiB leaves, then a 100 KiB tail as 64 KiB + 32 KiB blocks
        // and one page from the checkerboard.
        let len = 2 * PAGE_2M + (100 << 10);
        let (b, sb) = asp.mmap_anonymous(&mut phys, len, true).unwrap();
        assert_eq!((sb.leaves_mapped, sb.large_leaves), (27, 2));
        assert_eq!(asp.translate(b).unwrap().pa, PhysAddr(18 << 20));
        let last = b + len - PAGE_4K;
        assert_eq!(asp.translate(last).unwrap().pa, PhysAddr(PAGE_4K));
        let tables_with_b = asp.image().0.page_table.tables();

        assert_eq!(asp.munmap(&mut phys, b), Ok(27));
        assert_eq!(phys.free_bytes(), free_before);
        assert_eq!(asp.mapped_pages(), 16);
        let mut off = 0;
        while off < len {
            assert_eq!(asp.translate(b + off), Err(PtError::NotMapped));
            off += PAGE_4K;
        }
        for i in 0..16 {
            let t = asp.translate(a + i * PAGE_4K).unwrap();
            assert_eq!(t.pa, PhysAddr((16 << 20) + i * PAGE_4K));
        }
        // B's tail had a level-1 table of its own.
        assert_eq!(asp.image().0.page_table.tables(), tables_with_b - 1);

        assert_eq!(asp.munmap(&mut phys, a), Ok(16));
        assert_eq!(asp.image().0.page_table.tables(), 1);
        assert_eq!(phys.allocated(), 2048 * PAGE_4K);
    }

    /// A block the frame allocator refuses at teardown is a bug, not an
    /// outcome to ignore: here the frames go back to an allocator that
    /// never handed them out, and that already holds them free.
    #[test]
    #[should_panic(expected = "freeing block 0x0 (order 0) failed: BadFree")]
    fn teardown_panics_on_a_refused_free() {
        let mut phys = fresh_phys(16);
        let mut asp = AddressSpace::new(MapPolicy::Fragmented4k, BASE);
        let (va, _) = asp.mmap_anonymous(&mut phys, PAGE_4K, false).unwrap();
        let _ = asp.munmap(&mut fresh_phys(16), va);
    }
}
