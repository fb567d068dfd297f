//! A 4-level, x86_64-style radix page table.
//!
//! The PicoDriver fast path (§3.4) walks page tables directly — instead of
//! collecting `struct page` references via `get_user_pages()` — to discover
//! physically contiguous runs and build SDMA requests up to 10 KB. This
//! module provides that structure faithfully: 512-entry tables, leaf
//! entries at level 1 (4 KiB), level 2 (2 MiB) and level 3 (1 GiB), and a
//! walker that reports how many levels it touched (the fast-path cost
//! model charges per level).

use crate::addr::{is_aligned, PageSize, PhysAddr, PhysRun, VirtAddr, PAGE_4K};

/// Page-table entry permission/state flags.
pub mod flags {
    /// Entry is valid.
    pub const PRESENT: u8 = 1 << 0;
    /// Writable.
    pub const WRITE: u8 = 1 << 1;
    /// User-accessible.
    pub const USER: u8 = 1 << 2;
    /// Backing frames are pinned (cannot be reclaimed/swapped).
    pub const PINNED: u8 = 1 << 3;
}

/// Errors from page-table operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PtError {
    /// Address not aligned for the requested page size.
    Misaligned,
    /// The range is already (partially) mapped.
    AlreadyMapped,
    /// Attempt to translate an unmapped address.
    NotMapped,
    /// A huge-page leaf sits where a lower-level table is required.
    SplitsHugePage,
    /// Non-canonical virtual address.
    NonCanonical,
}

/// One leaf translation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Translation {
    /// Physical address corresponding to the queried virtual address.
    pub pa: PhysAddr,
    /// Size of the mapping's page.
    pub page_size: PageSize,
    /// Entry flags.
    pub flags: u8,
    /// Levels traversed to find the leaf (1 ..= 4).
    pub levels_walked: u8,
}

#[derive(Debug)]
enum Entry {
    Empty,
    Table(Box<Table>),
    Leaf {
        /// Physical base of the page.
        pa: u64,
        flags: u8,
    },
}

#[derive(Debug)]
struct Table {
    entries: Vec<Entry>, // always 512
    /// Entries that are not `Empty`. A non-root table whose count drops
    /// to zero is freed.
    live: u16,
}

impl Table {
    fn new() -> Box<Table> {
        Box::new(Table {
            entries: (0..512).map(|_| Entry::Empty).collect(),
            live: 0,
        })
    }

    /// Deep-copy the subtree, adding `delta` to every leaf physical base.
    fn clone_rebased(&self, delta: u64) -> Box<Table> {
        Box::new(Table {
            entries: self
                .entries
                .iter()
                .map(|e| match e {
                    Entry::Empty => Entry::Empty,
                    Entry::Table(t) => Entry::Table(t.clone_rebased(delta)),
                    Entry::Leaf { pa, flags } => Entry::Leaf {
                        pa: pa + delta,
                        flags: *flags,
                    },
                })
                .collect(),
            live: self.live,
        })
    }

    /// Empty entry `idx`.
    fn clear(&mut self, idx: usize) {
        self.entries[idx] = Entry::Empty;
        self.live -= 1;
    }

    /// Leaves in this subtree, which sits at `level`. Every live entry
    /// of a level-1 table is a leaf.
    fn leaves(&self, level: u8) -> u64 {
        if level == 1 {
            return self.live as u64;
        }
        self.entries
            .iter()
            .map(|e| match e {
                Entry::Empty => 0,
                Entry::Leaf { .. } => 1,
                Entry::Table(t) => t.leaves(level - 1),
            })
            .sum()
    }

    /// Tables in this subtree, itself included.
    #[cfg(test)]
    fn tables(&self) -> u64 {
        1 + self
            .entries
            .iter()
            .map(|e| match e {
                Entry::Table(t) => t.tables(),
                _ => 0,
            })
            .sum::<u64>()
    }

    /// Remove every leaf wholly inside `[start, end)` below this table,
    /// which sits at `level` and maps the span starting at `base`.
    /// Subtrees the range fully covers are dropped whole; tables the
    /// removal empties are freed. Returns the leaves removed.
    fn unmap_range(&mut self, level: u8, base: u64, start: u64, end: u64) -> u64 {
        let span = 1u64 << (12 + 9 * (level as u32 - 1));
        let first = (start.max(base) - base) / span;
        let last = ((end - 1).min(base + 512 * span - 1) - base) / span;
        let mut removed = 0;
        for i in first as usize..=last as usize {
            let lo = base + i as u64 * span;
            let covered = start <= lo && lo + span <= end;
            match &mut self.entries[i] {
                Entry::Empty => {}
                Entry::Leaf { .. } if covered => {
                    self.clear(i);
                    removed += 1;
                }
                // A huge leaf the range only partly covers stays.
                Entry::Leaf { .. } => {}
                Entry::Table(t) if covered => {
                    removed += t.leaves(level - 1);
                    self.clear(i);
                }
                Entry::Table(t) => {
                    removed += t.unmap_range(level - 1, lo, start, end);
                    if t.live == 0 {
                        self.clear(i);
                    }
                }
            }
        }
        removed
    }
}

/// Index of `va` at `level` (4 = PML4 .. 1 = PT).
#[inline]
fn index(va: u64, level: u8) -> usize {
    ((va >> (12 + 9 * (level - 1) as u64)) & 0x1FF) as usize
}

/// The level at which a leaf of the given size lives.
#[inline]
fn leaf_level(size: PageSize) -> u8 {
    match size {
        PageSize::Size4K => 1,
        PageSize::Size2M => 2,
        PageSize::Size1G => 3,
    }
}

/// A 4-level page table.
#[derive(Debug)]
pub struct PageTable {
    root: Box<Table>,
    mapped_pages: u64,
}

impl Default for PageTable {
    fn default() -> Self {
        Self::new()
    }
}

impl PageTable {
    /// An empty table.
    pub fn new() -> PageTable {
        PageTable {
            root: Table::new(),
            mapped_pages: 0,
        }
    }

    /// Number of leaf mappings currently installed.
    pub fn mapped_pages(&self) -> u64 {
        self.mapped_pages
    }

    /// Deep-copy the table, adding `delta` to every leaf physical address.
    ///
    /// Node address spaces in a homogeneous cluster are identical modulo a
    /// constant physical offset (each node's frame pool starts at
    /// `node_idx << 40`); this is the clone that lets one booted template
    /// stand in for all of them. Virtual addresses — the radix structure —
    /// are untouched.
    pub fn clone_rebased(&self, delta: u64) -> PageTable {
        PageTable {
            root: self.root.clone_rebased(delta),
            mapped_pages: self.mapped_pages,
        }
    }

    /// Page-table pages currently allocated, the root included.
    #[cfg(test)]
    pub(crate) fn tables(&self) -> u64 {
        self.root.tables()
    }

    /// Install a mapping `va -> pa` of the given page size.
    pub fn map(
        &mut self,
        va: VirtAddr,
        pa: PhysAddr,
        size: PageSize,
        fl: u8,
    ) -> Result<(), PtError> {
        if !va.is_canonical() {
            return Err(PtError::NonCanonical);
        }
        if !is_aligned(va.0, size.bytes()) || !is_aligned(pa.0, size.bytes()) {
            return Err(PtError::Misaligned);
        }
        let target = leaf_level(size);
        let mut table = &mut self.root;
        let mut level = 4u8;
        while level > target {
            let idx = index(va.0, level);
            match &mut table.entries[idx] {
                Entry::Empty => {
                    table.entries[idx] = Entry::Table(Table::new());
                    table.live += 1;
                }
                Entry::Leaf { .. } => return Err(PtError::AlreadyMapped),
                Entry::Table(_) => {}
            }
            table = match &mut table.entries[idx] {
                Entry::Table(t) => t,
                _ => unreachable!(),
            };
            level -= 1;
        }
        let idx = index(va.0, target);
        match &table.entries[idx] {
            Entry::Empty => {
                table.entries[idx] = Entry::Leaf {
                    pa: pa.0,
                    flags: fl | flags::PRESENT,
                };
                table.live += 1;
                self.mapped_pages += 1;
                Ok(())
            }
            _ => Err(PtError::AlreadyMapped),
        }
    }

    /// Remove every leaf that lies wholly inside `[va, va+len)` in one
    /// walk that visits each table once and drops subtrees the range
    /// fully covers; returns the number of leaves removed. A huge leaf
    /// the range covers only in part is left in place. Tables the
    /// removal empties are freed (the root stays).
    pub fn unmap_range(&mut self, va: VirtAddr, len: u64) -> Result<u64, PtError> {
        if len == 0 {
            return Ok(0);
        }
        let last = VirtAddr(va.0.wrapping_add(len - 1));
        if !va.is_canonical() || !last.is_canonical() || last.0 < va.0 {
            return Err(PtError::NonCanonical);
        }
        if (va.0 ^ last.0) >> 47 != 0 {
            // The range spans the non-canonical hole.
            return Err(PtError::NonCanonical);
        }
        if !is_aligned(va.0, PAGE_4K) || !is_aligned(len, PAGE_4K) {
            return Err(PtError::Misaligned);
        }
        // The root indexes bits 47..39; drop the sign extension.
        const VA_MASK: u64 = (1 << 48) - 1;
        let start = va.0 & VA_MASK;
        let removed = self.root.unmap_range(4, 0, start, start + len);
        self.mapped_pages -= removed;
        Ok(removed)
    }

    /// Translate `va` to a physical address.
    pub fn translate(&self, va: VirtAddr) -> Result<Translation, PtError> {
        if !va.is_canonical() {
            return Err(PtError::NonCanonical);
        }
        let mut table = &self.root;
        let mut level = 4u8;
        let mut walked = 0u8;
        loop {
            walked += 1;
            let idx = index(va.0, level);
            match &table.entries[idx] {
                Entry::Empty => return Err(PtError::NotMapped),
                Entry::Leaf { pa, flags: fl } => {
                    let size = match level {
                        1 => PageSize::Size4K,
                        2 => PageSize::Size2M,
                        3 => PageSize::Size1G,
                        _ => return Err(PtError::NotMapped),
                    };
                    let offset = va.0 & (size.bytes() - 1);
                    return Ok(Translation {
                        pa: PhysAddr(pa + offset),
                        page_size: size,
                        flags: *fl,
                        levels_walked: walked,
                    });
                }
                Entry::Table(t) => {
                    if level == 1 {
                        return Err(PtError::NotMapped);
                    }
                    table = t;
                    level -= 1;
                }
            }
        }
    }

    /// Walk `[va, va+len)` and return the physically contiguous runs that
    /// back it, merging adjacent physical ranges — exactly what the
    /// PicoDriver fast path does before cutting SDMA requests (§3.4).
    ///
    /// Also returns the total number of page-table levels touched, for the
    /// walk-cost model. Fails if any byte of the range is unmapped.
    pub fn contiguous_runs(&self, va: VirtAddr, len: u64) -> Result<(Vec<PhysRun>, u64), PtError> {
        if len == 0 {
            return Ok((Vec::new(), 0));
        }
        let mut runs: Vec<PhysRun> = Vec::new();
        let mut cursor = va.0;
        let end = va.0 + len;
        let mut levels = 0u64;
        while cursor < end {
            let tr = self.translate(VirtAddr(cursor))?;
            levels += tr.levels_walked as u64;
            let page_end = (cursor & !(tr.page_size.bytes() - 1)) + tr.page_size.bytes();
            let chunk = (end - cursor).min(page_end - cursor);
            match runs.last_mut() {
                Some(last) if last.pa.0 + last.len == tr.pa.0 => {
                    last.len += chunk;
                }
                _ => runs.push(PhysRun {
                    pa: tr.pa,
                    len: chunk,
                }),
            }
            cursor += chunk;
        }
        Ok((runs, levels))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::PAGE_2M;

    #[test]
    fn map_translate_4k() {
        let mut pt = PageTable::new();
        pt.map(
            VirtAddr(0x4000),
            PhysAddr(0x8000),
            PageSize::Size4K,
            flags::WRITE,
        )
        .unwrap();
        let t = pt.translate(VirtAddr(0x4123)).unwrap();
        assert_eq!(t.pa, PhysAddr(0x8123));
        assert_eq!(t.page_size, PageSize::Size4K);
        assert_eq!(t.levels_walked, 4);
        assert!(t.flags & flags::WRITE != 0);
        assert_eq!(pt.mapped_pages(), 1);
    }

    #[test]
    fn map_translate_2m_walks_fewer_levels() {
        let mut pt = PageTable::new();
        pt.map(
            VirtAddr(PAGE_2M),
            PhysAddr(4 * PAGE_2M),
            PageSize::Size2M,
            flags::WRITE | flags::PINNED,
        )
        .unwrap();
        let t = pt.translate(VirtAddr(PAGE_2M + 0x1234)).unwrap();
        assert_eq!(t.pa, PhysAddr(4 * PAGE_2M + 0x1234));
        assert_eq!(t.page_size, PageSize::Size2M);
        assert_eq!(t.levels_walked, 3);
        assert!(t.flags & flags::PINNED != 0);
    }

    #[test]
    fn misaligned_and_overlap_rejected() {
        let mut pt = PageTable::new();
        assert_eq!(
            pt.map(VirtAddr(0x1001), PhysAddr(0), PageSize::Size4K, 0),
            Err(PtError::Misaligned)
        );
        pt.map(VirtAddr(0x1000), PhysAddr(0), PageSize::Size4K, 0)
            .unwrap();
        assert_eq!(
            pt.map(VirtAddr(0x1000), PhysAddr(0x2000), PageSize::Size4K, 0),
            Err(PtError::AlreadyMapped)
        );
        // Mapping a 2M page over an existing PT at the same slot fails.
        assert_eq!(
            pt.map(VirtAddr(0), PhysAddr(0), PageSize::Size2M, 0),
            Err(PtError::AlreadyMapped)
        );
    }

    #[test]
    fn unmap_restores_not_mapped() {
        let mut pt = PageTable::new();
        pt.map(VirtAddr(0x2000), PhysAddr(0x6000), PageSize::Size4K, 0)
            .unwrap();
        assert_eq!(pt.unmap_range(VirtAddr(0x2000), PAGE_4K), Ok(1));
        assert_eq!(pt.translate(VirtAddr(0x2000)), Err(PtError::NotMapped));
        assert_eq!(pt.unmap_range(VirtAddr(0x2000), PAGE_4K), Ok(0));
        assert_eq!(pt.mapped_pages(), 0);
    }

    #[test]
    fn non_canonical_rejected() {
        let mut pt = PageTable::new();
        let bad = VirtAddr(0x0001_0000_0000_0000);
        assert_eq!(
            pt.map(bad, PhysAddr(0), PageSize::Size4K, 0),
            Err(PtError::NonCanonical)
        );
        assert_eq!(pt.translate(bad), Err(PtError::NonCanonical));
    }

    #[test]
    fn contiguous_runs_merge_adjacent_frames() {
        let mut pt = PageTable::new();
        // Three adjacent physical pages, one gap, then one more.
        for (i, pa) in [0x10000u64, 0x11000, 0x12000, 0x20000].iter().enumerate() {
            pt.map(
                VirtAddr(0x4000 + i as u64 * PAGE_4K),
                PhysAddr(*pa),
                PageSize::Size4K,
                0,
            )
            .unwrap();
        }
        let (runs, levels) = pt.contiguous_runs(VirtAddr(0x4000), 4 * PAGE_4K).unwrap();
        assert_eq!(
            runs,
            vec![
                PhysRun {
                    pa: PhysAddr(0x10000),
                    len: 3 * PAGE_4K
                },
                PhysRun {
                    pa: PhysAddr(0x20000),
                    len: PAGE_4K
                },
            ]
        );
        assert_eq!(levels, 16); // 4 pages x 4 levels
    }

    #[test]
    fn contiguous_runs_through_large_page() {
        let mut pt = PageTable::new();
        pt.map(VirtAddr(0), PhysAddr(PAGE_2M), PageSize::Size2M, 0)
            .unwrap();
        // A 100 KiB window starting inside the 2M page is one run and one walk.
        let (runs, levels) = pt.contiguous_runs(VirtAddr(0x3000), 100 * 1024).unwrap();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].pa, PhysAddr(PAGE_2M + 0x3000));
        assert_eq!(runs[0].len, 100 * 1024);
        assert_eq!(levels, 3);
    }

    #[test]
    fn clone_rebased_shifts_leaves_only() {
        let mut pt = PageTable::new();
        pt.map(
            VirtAddr(0x4000),
            PhysAddr(0x10000),
            PageSize::Size4K,
            flags::WRITE,
        )
        .unwrap();
        pt.map(
            VirtAddr(PAGE_2M),
            PhysAddr(4 * PAGE_2M),
            PageSize::Size2M,
            flags::PINNED,
        )
        .unwrap();
        let delta = 7u64 << 40;
        let shifted = pt.clone_rebased(delta);
        assert_eq!(shifted.mapped_pages(), pt.mapped_pages());
        let t = shifted.translate(VirtAddr(0x4123)).unwrap();
        assert_eq!(t.pa, PhysAddr(delta + 0x10123));
        assert_eq!(t.flags, flags::WRITE | flags::PRESENT);
        let t2 = shifted.translate(VirtAddr(PAGE_2M + 0x99)).unwrap();
        assert_eq!(t2.pa, PhysAddr(delta + 4 * PAGE_2M + 0x99));
        assert_eq!(t2.page_size, PageSize::Size2M);
        // The original is untouched and the copy is independent.
        let mut shifted = shifted;
        assert_eq!(shifted.unmap_range(VirtAddr(0x4000), PAGE_4K), Ok(1));
        assert!(pt.translate(VirtAddr(0x4000)).is_ok());
    }

    #[test]
    fn contiguous_runs_partial_unmapped_fails() {
        let mut pt = PageTable::new();
        pt.map(VirtAddr(0x1000), PhysAddr(0x5000), PageSize::Size4K, 0)
            .unwrap();
        assert_eq!(
            pt.contiguous_runs(VirtAddr(0x1000), 2 * PAGE_4K),
            Err(PtError::NotMapped)
        );
        // Zero-length walk is trivially fine.
        let (runs, levels) = pt.contiguous_runs(VirtAddr(0x1000), 0).unwrap();
        assert!(runs.is_empty());
        assert_eq!(levels, 0);
    }

    #[test]
    fn unmapping_everything_leaves_only_the_root() {
        let mut pt = PageTable::new();
        assert_eq!(pt.tables(), 1);
        // 4 KiB leaves across two level-1 tables, a 2 MiB leaf, and a
        // far-away 4 KiB leaf under its own level-3 and level-2 tables.
        let far = 5u64 << 39;
        let mut vas: Vec<u64> = (0..600).map(|i| i * PAGE_4K).collect();
        vas.push(far);
        for &va in &vas {
            pt.map(VirtAddr(va), PhysAddr(va), PageSize::Size4K, 0)
                .unwrap();
        }
        pt.map(VirtAddr(4 * PAGE_2M), PhysAddr(0), PageSize::Size2M, 0)
            .unwrap();
        // root + L3 + L2 + 2 L1 near 0; L3 + L2 + L1 at `far`.
        assert_eq!(pt.tables(), 8);
        // Leaf by leaf: each emptied table goes as its last leaf does.
        for &va in vas.iter().rev() {
            assert_eq!(pt.unmap_range(VirtAddr(va), PAGE_4K), Ok(1));
        }
        assert_eq!(pt.tables(), 3, "the 2 MiB leaf keeps root, L3 and L2");
        assert_eq!(pt.unmap_range(VirtAddr(4 * PAGE_2M), PAGE_2M), Ok(1));
        assert_eq!(pt.mapped_pages(), 0);
        assert_eq!(pt.tables(), 1);
        assert_eq!(pt.translate(VirtAddr(0)), Err(PtError::NotMapped));

        // The same layout again, removed in one range walk.
        for &va in &vas {
            pt.map(VirtAddr(va), PhysAddr(va), PageSize::Size4K, 0)
                .unwrap();
        }
        pt.map(VirtAddr(4 * PAGE_2M), PhysAddr(0), PageSize::Size2M, 0)
            .unwrap();
        assert_eq!(pt.unmap_range(VirtAddr(0), far + PAGE_4K), Ok(602));
        assert_eq!(pt.mapped_pages(), 0);
        assert_eq!(pt.tables(), 1);
    }

    #[test]
    fn unmap_range_removes_exactly_the_leaves_inside() {
        let mut pt = PageTable::new();
        // 4 KiB leaves on both sides of a 2 MiB boundary, a 2 MiB leaf
        // after them, and more 4 KiB leaves after that.
        let small: Vec<u64> = (PAGE_2M - 8 * PAGE_4K..PAGE_2M + 8 * PAGE_4K)
            .step_by(PAGE_4K as usize)
            .chain((3 * PAGE_2M..3 * PAGE_2M + 4 * PAGE_4K).step_by(PAGE_4K as usize))
            .collect();
        for &va in &small {
            pt.map(VirtAddr(va), PhysAddr(va), PageSize::Size4K, 0)
                .unwrap();
        }
        pt.map(VirtAddr(2 * PAGE_2M), PhysAddr(0), PageSize::Size2M, 0)
            .unwrap();
        let mapped = pt.mapped_pages();
        // [2M - 3 pages, 3M + 2 pages): the last 3 pages below 2M, the 8
        // above it, the whole 2 MiB leaf and 2 pages after it.
        let (lo, hi) = (PAGE_2M - 3 * PAGE_4K, 3 * PAGE_2M + 2 * PAGE_4K);
        assert_eq!(pt.unmap_range(VirtAddr(lo), hi - lo), Ok(14));
        assert_eq!(pt.mapped_pages(), mapped - 14);
        for &va in &small {
            let inside = (lo..hi).contains(&va);
            assert_eq!(pt.translate(VirtAddr(va)).is_ok(), !inside, "va {va:#x}");
        }
        assert!(pt.translate(VirtAddr(2 * PAGE_2M)).is_err());
        // The emptied level-1 table above 2 MiB is gone.
        assert_eq!(pt.tables(), 5);

        // A huge leaf the range covers only in part stays mapped.
        pt.map(VirtAddr(2 * PAGE_2M), PhysAddr(0), PageSize::Size2M, 0)
            .unwrap();
        assert_eq!(pt.unmap_range(VirtAddr(2 * PAGE_2M), PAGE_4K), Ok(0));
        assert!(pt.translate(VirtAddr(2 * PAGE_2M)).is_ok());

        assert_eq!(
            pt.unmap_range(VirtAddr(0x1800), PAGE_4K),
            Err(PtError::Misaligned)
        );
        assert_eq!(
            pt.unmap_range(VirtAddr(0x7FFF_FFFF_F000), 2 * PAGE_4K),
            Err(PtError::NonCanonical)
        );
        assert_eq!(pt.unmap_range(VirtAddr(0), 0), Ok(0));
    }
}
