//! The HFI fast paths: LWK-local SDMA `writev` and TID registration.
//!
//! What §3.4 makes possible once memory is pinned and (mostly)
//! physically contiguous:
//!
//! * no `get_user_pages()` — the fast path *iterates page tables*;
//! * SDMA requests up to the **hardware maximum of 10 KB** whenever a
//!   physically contiguous run crosses page boundaries (the Linux driver
//!   stops at 4 KiB);
//! * RcvArray entries covering whole large pages instead of one entry
//!   per 4 KiB page;
//! * an optional TID registration cache, since pinned mappings can only
//!   disappear via explicit `munmap`.

use crate::shadow::HfiShadow;
use crate::ticketlock::LockCostModel;
use pico_hfi1::{ChipError, HfiChip, SdmaSubmission, TidEntry, TidId};
use pico_mem::{MapError, VirtAddr, PAGE_2M};
use pico_sim::Ns;
use std::collections::HashMap;

/// Fast-path errors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FastPathError {
    /// Engine not in `s99_running` (must defer to the Linux slow path).
    EngineNotRunning,
    /// Walking the user range failed (unmapped / not pinned).
    Mem(MapError),
    /// Chip rejected the operation.
    Chip(ChipError),
}

impl From<MapError> for FastPathError {
    fn from(e: MapError) -> Self {
        FastPathError::Mem(e)
    }
}
impl From<ChipError> for FastPathError {
    fn from(e: ChipError) -> Self {
        FastPathError::Chip(e)
    }
}

/// Cost parameters of the LWK fast paths.
#[derive(Clone, Copy, Debug)]
pub struct FastPathCosts {
    /// LWK syscall entry/exit.
    pub syscall_entry: Ns,
    /// Building one SDMA request (no `struct page` juggling).
    pub req_build: Ns,
    /// Page-table walk, per level touched. Sequential fast-path walks
    /// revisit the same upper-level tables, so the amortized per-level
    /// cost is far below a cold translation.
    pub walk_per_level: Ns,
    /// Programming one RcvArray entry.
    pub tid_program: Ns,
    /// Unprogramming one RcvArray entry.
    pub tid_unprogram: Ns,
    /// Cross-kernel ring lock.
    pub lock: LockCostModel,
}

impl Default for FastPathCosts {
    fn default() -> Self {
        FastPathCosts {
            syscall_entry: Ns::nanos(200),
            req_build: Ns::nanos(80),
            walk_per_level: Ns::nanos(8),
            tid_program: Ns::nanos(150),
            tid_unprogram: Ns::nanos(80),
            lock: LockCostModel::default(),
        }
    }
}

/// One cached TID registration.
#[derive(Clone, Debug)]
struct CachedReg {
    tids: Vec<TidId>,
    entries: u64,
}

/// TID registration cache: because McKernel mappings are pinned and only
/// disappear via explicit unmap, a (va, len) registration stays valid
/// until invalidated.
#[derive(Debug, Default)]
pub struct TidCache {
    map: HashMap<(u64, u64), CachedReg>,
    hits: u64,
    misses: u64,
}

impl TidCache {
    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }
    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

/// Result of a fast-path TID registration.
#[derive(Clone, Debug)]
pub struct FastTidRegistration {
    /// The TIDs covering the buffer.
    pub tids: Vec<TidId>,
    /// RcvArray entries consumed (0 on a cache hit).
    pub entries: u64,
    /// LWK CPU time.
    pub cpu: Ns,
    /// Whether the TID cache satisfied the request.
    pub cache_hit: bool,
}

/// The per-node HFI fast path state. The ported shadow — the immutable
/// product of the DWARF extraction pipeline — sits behind an `Arc` so
/// template-boot clones share one copy per OS configuration; everything
/// else (cache, counters) is per-node hot state.
pub struct HfiFastPath {
    shadow: std::sync::Arc<HfiShadow>,
    costs: FastPathCosts,
    /// Maximum SDMA request size the fast path emits (hardware max
    /// 10 KB; ablation benches sweep this).
    pub sdma_cap: u64,
    /// Maximum buffer a single RcvArray entry may cover on this path.
    pub tid_entry_cap: u64,
    tid_cache: Option<TidCache>,
    writev_count: u64,
    reqs_emitted: u64,
}

impl HfiFastPath {
    /// Build the fast path from a ported shadow. `use_tid_cache` enables
    /// the registration cache (on in the paper's deployment).
    pub fn new(shadow: HfiShadow, costs: FastPathCosts, use_tid_cache: bool) -> HfiFastPath {
        HfiFastPath {
            shadow: std::sync::Arc::new(shadow),
            costs,
            sdma_cap: 10 * 1024,
            tid_entry_cap: PAGE_2M,
            tid_cache: use_tid_cache.then(TidCache::default),
            writev_count: 0,
            reqs_emitted: 0,
        }
    }

    /// A fresh fast path sharing this one's ported shadow — the
    /// template-boot clone. Caps and costs carry over; the TID cache and
    /// counters start empty.
    pub fn clone_fresh(&self) -> HfiFastPath {
        HfiFastPath {
            shadow: std::sync::Arc::clone(&self.shadow),
            costs: self.costs,
            sdma_cap: self.sdma_cap,
            tid_entry_cap: self.tid_entry_cap,
            tid_cache: self.tid_cache.is_some().then(TidCache::default),
            writev_count: 0,
            reqs_emitted: 0,
        }
    }

    /// The ported shadow (read-only).
    pub fn shadow(&self) -> &HfiShadow {
        &self.shadow
    }
    /// Cost table.
    pub fn costs(&self) -> FastPathCosts {
        self.costs
    }
    /// The TID cache, if enabled.
    pub fn tid_cache(&self) -> Option<&TidCache> {
        self.tid_cache.as_ref()
    }
    /// Fast-path writev invocations.
    pub fn writev_count(&self) -> u64 {
        self.writev_count
    }
    /// SDMA requests emitted in total.
    pub fn reqs_emitted(&self) -> u64 {
        self.reqs_emitted
    }

    /// Fast-path SDMA `writev`: walk the (pinned) page tables, cut
    /// requests at physically contiguous run boundaries up to
    /// [`sdma_cap`](Self::sdma_cap), submit to a shared engine under the
    /// cross-kernel lock.
    ///
    /// `engine_state` is the raw bytes of the Linux driver's
    /// `sdma_state` for the engine we intend to use — read through the
    /// DWARF-extracted offsets; `waiters` models current lock contention.
    #[allow(clippy::too_many_arguments)]
    pub fn sdma_writev(
        &mut self,
        chip: &mut HfiChip,
        space: &pico_mem::AddressSpace,
        engine_state: &[u8],
        va: VirtAddr,
        len: u64,
        waiters: u64,
    ) -> Result<SdmaSubmission, FastPathError> {
        if !self.shadow.engine_running(engine_state) {
            return Err(FastPathError::EngineNotRunning);
        }
        let (runs, levels) = space.contiguous_runs(va, len)?;
        let cap = self.sdma_cap.min(chip.config().max_sdma_payload);
        let mut nreqs = 0u64;
        for run in &runs {
            nreqs += run.len.div_ceil(cap);
        }
        let engine = chip.reserve_engine();
        let cpu = self.costs.syscall_entry
            + self.costs.walk_per_level * levels
            + self.costs.req_build * nreqs
            + self.costs.lock.acquire_cost(waiters);
        self.writev_count += 1;
        self.reqs_emitted += nreqs;
        Ok(SdmaSubmission {
            engine,
            nreqs,
            bytes: len,
            cpu,
            gup_pages: 0, // no struct-page references taken
        })
    }

    /// Fast-path TID registration: one RcvArray entry per contiguous run
    /// (capped at [`tid_entry_cap`](Self::tid_entry_cap)), no
    /// `get_user_pages`, optional cache.
    pub fn tid_update(
        &mut self,
        chip: &mut HfiChip,
        space: &pico_mem::AddressSpace,
        ctxt: u32,
        va: VirtAddr,
        len: u64,
    ) -> Result<FastTidRegistration, FastPathError> {
        if let Some(cache) = self.tid_cache.as_mut() {
            if let Some(hit) = cache.map.get(&(va.0, len)) {
                cache.hits += 1;
                return Ok(FastTidRegistration {
                    tids: hit.tids.clone(),
                    entries: 0,
                    cpu: self.costs.syscall_entry,
                    cache_hit: true,
                });
            }
            cache.misses += 1;
        }
        let (runs, levels) = space.contiguous_runs(va, len)?;
        let mut segments = Vec::new();
        let mut va_cursor = va.0;
        for run in &runs {
            let mut remaining = run.len;
            while remaining > 0 {
                let chunk = remaining.min(self.tid_entry_cap);
                segments.push(TidEntry {
                    va: va_cursor,
                    len: chunk,
                });
                va_cursor += chunk;
                remaining -= chunk;
            }
        }
        let tids = chip.program_tids(ctxt, &segments)?;
        let entries = tids.len() as u64;
        let cpu = self.costs.syscall_entry
            + self.costs.walk_per_level * levels
            + self.costs.tid_program * entries
            + self.costs.lock.acquire_cost(0);
        if let Some(cache) = self.tid_cache.as_mut() {
            cache.map.insert(
                (va.0, len),
                CachedReg {
                    tids: tids.clone(),
                    entries,
                },
            );
        }
        Ok(FastTidRegistration {
            tids,
            entries,
            cpu,
            cache_hit: false,
        })
    }

    /// Fast-path TID free. Cached registrations are left programmed (the
    /// cache owns them) unless `force` or the cache is off.
    pub fn tid_free(
        &mut self,
        chip: &mut HfiChip,
        ctxt: u32,
        va: VirtAddr,
        len: u64,
        tids: &[TidId],
        force: bool,
    ) -> Result<Ns, FastPathError> {
        if !force {
            if let Some(cache) = self.tid_cache.as_ref() {
                if cache.map.contains_key(&(va.0, len)) {
                    // Registration stays cached; freeing is deferred.
                    return Ok(self.costs.syscall_entry);
                }
            }
        }
        chip.unprogram_tids(ctxt, tids)?;
        if let Some(cache) = self.tid_cache.as_mut() {
            cache.map.remove(&(va.0, len));
        }
        Ok(self.costs.syscall_entry + self.costs.tid_unprogram * tids.len() as u64)
    }

    /// Invalidate every cached registration overlapping an unmapped
    /// range (called from the LWK `munmap` path).
    pub fn invalidate_range(
        &mut self,
        chip: &mut HfiChip,
        ctxt: u32,
        va: VirtAddr,
        len: u64,
    ) -> Result<u64, FastPathError> {
        let Some(cache) = self.tid_cache.as_mut() else {
            return Ok(0);
        };
        let keys: Vec<(u64, u64)> = cache
            .map
            .keys()
            .filter(|&&(cva, clen)| cva < va.0 + len && va.0 < cva + clen)
            .copied()
            .collect();
        let mut freed = 0;
        for k in keys {
            let reg = cache.map.remove(&k).expect("key just listed");
            chip.unprogram_tids(ctxt, &reg.tids)?;
            freed += reg.entries;
        }
        Ok(freed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pico_hfi1::structs::LayoutSet;
    use pico_hfi1::{Hfi1Driver, HfiChipConfig, HfiDriverCosts};
    use pico_mem::{AddressSpace, BuddyAllocator, MapPolicy, PhysAddr};

    const BASE: VirtAddr = VirtAddr(0x7000_0000_0000);

    struct Rig {
        fp: HfiFastPath,
        chip: HfiChip,
        driver: Hfi1Driver,
        space: AddressSpace,
        frames: BuddyAllocator,
    }

    fn rig(tid_cache: bool) -> Rig {
        let layouts = LayoutSet::v10_8();
        let module = layouts.emit_module_binary();
        let shadow = HfiShadow::port(&module).unwrap();
        Rig {
            fp: HfiFastPath::new(shadow, FastPathCosts::default(), tid_cache),
            chip: HfiChip::new(HfiChipConfig::default(), 8),
            driver: Hfi1Driver::new(layouts, HfiDriverCosts::default(), 16),
            space: AddressSpace::new(MapPolicy::ContiguousLarge, BASE),
            frames: BuddyAllocator::new(PhysAddr(0), 128 << 20),
        }
    }

    #[test]
    fn fast_path_emits_10k_requests_on_contiguous_memory() {
        let mut r = rig(false);
        let (va, _) = r
            .space
            .mmap_anonymous(&mut r.frames, 4 << 20, true)
            .unwrap();
        let sub =
            r.fp.sdma_writev(
                &mut r.chip,
                &r.space,
                r.driver.sdma_state(0).bytes(),
                va,
                4 << 20,
                0,
            )
            .unwrap();
        // 4 MiB fully contiguous: ceil(4Mi/10K) = 420 requests...
        assert_eq!(sub.nreqs, (4u64 << 20).div_ceil(10 * 1024));
        assert_eq!(sub.gup_pages, 0);
        // ...while the Linux driver needs 1024.
        assert!(sub.nreqs < 1024 / 2);
    }

    #[test]
    fn linux_driver_needs_2_4x_more_requests_for_the_same_buffer() {
        let mut r = rig(false);
        let lc = pico_linux::LinuxCosts::default();
        let (va, _) = r
            .space
            .mmap_anonymous(&mut r.frames, 1 << 20, true)
            .unwrap();
        let (h, _, _) = r.driver.open(&mut r.chip).unwrap();
        let slow = r
            .driver
            .sdma_writev(&mut r.chip, &mut r.space, h, va, 1 << 20, &lc)
            .unwrap();
        let fast =
            r.fp.sdma_writev(
                &mut r.chip,
                &r.space,
                r.driver.sdma_state(0).bytes(),
                va,
                1 << 20,
                0,
            )
            .unwrap();
        assert_eq!(slow.nreqs, 256);
        assert_eq!(fast.nreqs, (1u64 << 20).div_ceil(10 * 1024)); // 103
        assert!(fast.cpu < slow.cpu, "fast {} slow {}", fast.cpu, slow.cpu);
    }

    #[test]
    fn engine_not_running_defers_to_slow_path() {
        let mut r = rig(false);
        let (va, _) = r.space.mmap_anonymous(&mut r.frames, 4096, true).unwrap();
        r.driver.sdma_state_mut(0).set("go_s99_running", 0);
        let err =
            r.fp.sdma_writev(
                &mut r.chip,
                &r.space,
                r.driver.sdma_state(0).bytes(),
                va,
                4096,
                0,
            )
            .unwrap_err();
        assert_eq!(err, FastPathError::EngineNotRunning);
    }

    #[test]
    fn tid_registration_uses_few_entries_on_large_pages() {
        let mut r = rig(false);
        let lc = pico_linux::LinuxCosts::default();
        let (va, _) = r
            .space
            .mmap_anonymous(&mut r.frames, 4 << 20, true)
            .unwrap();
        let (h, ctxt, _) = r.driver.open(&mut r.chip).unwrap();
        // Linux path: 1024 entries.
        let mut lin_space = AddressSpace::new(MapPolicy::Fragmented4k, BASE);
        let (lva, _) = lin_space
            .mmap_anonymous(&mut r.frames, 4 << 20, false)
            .unwrap();
        let slow = r
            .driver
            .tid_update(&mut r.chip, &mut lin_space, h, lva, 4 << 20, &lc)
            .unwrap();
        assert_eq!(slow.entries, 1024);
        // Fast path: 2 entries (two 2 MiB runs... actually 1 run capped
        // at 2 MiB per entry => 2 entries).
        let fast =
            r.fp.tid_update(&mut r.chip, &r.space, ctxt, va, 4 << 20)
                .unwrap();
        assert_eq!(fast.entries, 2);
        assert!(fast.cpu < slow.cpu);
    }

    #[test]
    fn tid_cache_hits_after_first_registration() {
        let mut r = rig(true);
        let (va, _) = r
            .space
            .mmap_anonymous(&mut r.frames, 256 << 10, true)
            .unwrap();
        let (_, ctxt, _) = r.driver.open(&mut r.chip).unwrap();
        let first =
            r.fp.tid_update(&mut r.chip, &r.space, ctxt, va, 256 << 10)
                .unwrap();
        assert!(!first.cache_hit);
        let second =
            r.fp.tid_update(&mut r.chip, &r.space, ctxt, va, 256 << 10)
                .unwrap();
        assert!(second.cache_hit);
        assert_eq!(second.entries, 0);
        assert!(second.cpu < first.cpu);
        assert_eq!(r.fp.tid_cache().unwrap().hits(), 1);
        // Deferred free keeps the registration programmed.
        let cpu =
            r.fp.tid_free(&mut r.chip, ctxt, va, 256 << 10, &first.tids, false)
                .unwrap();
        assert_eq!(cpu, r.fp.costs().syscall_entry);
        let third =
            r.fp.tid_update(&mut r.chip, &r.space, ctxt, va, 256 << 10)
                .unwrap();
        assert!(third.cache_hit);
    }

    #[test]
    fn munmap_invalidates_cached_registrations() {
        let mut r = rig(true);
        let (va, _) = r
            .space
            .mmap_anonymous(&mut r.frames, 256 << 10, true)
            .unwrap();
        let (_, ctxt, _) = r.driver.open(&mut r.chip).unwrap();
        let reg =
            r.fp.tid_update(&mut r.chip, &r.space, ctxt, va, 256 << 10)
                .unwrap();
        let freed =
            r.fp.invalidate_range(&mut r.chip, ctxt, va, 256 << 10)
                .unwrap();
        assert_eq!(freed, reg.entries);
        // After invalidation a new registration is a miss again.
        let again =
            r.fp.tid_update(&mut r.chip, &r.space, ctxt, va, 256 << 10)
                .unwrap();
        assert!(!again.cache_hit);
    }

    #[test]
    fn fragmented_memory_degrades_gracefully() {
        // Even under the LWK policy, if physical memory is fragmented the
        // fast path still works — requests just get smaller.
        let mut r = rig(false);
        r.frames.fragment(1.0); // checkerboard the whole range
        let (va, stats) = r
            .space
            .mmap_anonymous(&mut r.frames, 1 << 20, true)
            .unwrap();
        assert_eq!(stats.large_leaves, 0);
        let sub =
            r.fp.sdma_writev(
                &mut r.chip,
                &r.space,
                r.driver.sdma_state(0).bytes(),
                va,
                1 << 20,
                0,
            )
            .unwrap();
        assert!(sub.nreqs >= 200, "mostly 4K requests: {}", sub.nreqs);
    }

    #[test]
    fn lock_contention_raises_cpu_cost() {
        let mut r = rig(false);
        let (va, _) = r
            .space
            .mmap_anonymous(&mut r.frames, 64 << 10, true)
            .unwrap();
        let quiet =
            r.fp.sdma_writev(
                &mut r.chip,
                &r.space,
                r.driver.sdma_state(0).bytes(),
                va,
                64 << 10,
                0,
            )
            .unwrap();
        let contended =
            r.fp.sdma_writev(
                &mut r.chip,
                &r.space,
                r.driver.sdma_state(0).bytes(),
                va,
                64 << 10,
                8,
            )
            .unwrap();
        assert!(contended.cpu > quiet.cpu);
    }
}
