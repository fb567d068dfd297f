//! One node's kernel model: the Linux model, the McKernel model, the HFI1
//! chip + unmodified driver and, in the PicoDriver configuration, the
//! fast path, plus the kernel-side state of every rank on the node.
//!
//! PicoDriver's split is a per-call routing decision, and McKernel's
//! [`SyscallTable`] is the one place that makes it: the LWK runs the fast
//! path (`writev` and the TID `ioctl`s) and its own memory management
//! locally, and every other call is offloaded to the unmodified Linux
//! driver. Linux has no table; every call runs in place. The three OS
//! configurations differ only in that table, in the anonymous-mm cost
//! model (Linux or LWK) and in whether the fast path booted. Each
//! executor below picks a route, calls the driver or the fast path once,
//! and charges the cost through [`Node::syscall`].
//!
//! Time accounting rules:
//!
//! * a kernel-visible operation advances the issuing rank's clock by the
//!   route-dependent cost: local handling (Linux, the LWK's own mm, the
//!   fast path) or the full offload round trip including queueing at the
//!   node's few Linux service cores;
//! * device-file calls (`open`, `close`, the device-region `mmap`s) reach
//!   the Linux driver even on McKernel, where an anonymous `mmap` is
//!   local;
//! * SDMA completion IRQs are serviced by those same Linux cores, so IRQ
//!   load and offloaded syscalls contend — a second-order effect the
//!   paper's UMT collapse depends on.

use crate::config::{ClusterConfig, OsConfig};
use crate::world::shrink_scratch;
use pico_apps::AppSpec;
use pico_hfi1::structs::LayoutSet;
use pico_hfi1::{Hfi1Driver, HfiChip, HfiChipConfig, HfiDriverCosts};
use pico_ihk::{Delegator, LwkPid, OffloadGrant, ProxyRegistry, SyscallRoute, Sysno};
use pico_linux::{LinuxCosts, NoiseConfig, Vfs};
use pico_mckernel::{BlockId, HfiIoctlCmd, MckMmCosts, ScalableAllocator, SyscallTable};
use pico_mem::{
    AddressSpace, BuddyAllocator, Frames, MapPolicy, PhysAddr, SpaceTemplate, VirtAddr,
};
use pico_mpi::{BufTable, HostOp};
use pico_sim::{transfer_time, FastMap, Ns, TimeByKey};
use picodriver::{CallbackKind, CallbackRef, CallbackTable, HfiFastPath, UnifiedKernelSpace};
use std::sync::Arc;

const MMAP_BASE: VirtAddr = VirtAddr(0x7000_0000_0000);

/// One node's kernel + device complex. Under the flyweight model
/// (`ClusterConfig::eager_node_model` off) exactly one template node per
/// OS configuration boots for real; every instance then shares the
/// template's immutable post-boot images — frame pool (`Frames::Shared`),
/// driver reset registers and layouts (inside [`Hfi1Driver`]), the ported
/// shadow (inside [`HfiFastPath`]), and the `Arc`ed unified kernel space
/// and callback table — while carrying only compact private hot state
/// (open files, TID store, per-core block pools).
pub(crate) struct Node {
    frames: Frames,
    vfs: Vfs,
    dev: pico_linux::DevId,
    pub(crate) chip: HfiChip,
    driver: Hfi1Driver,
    /// The PicoDriver, booted in the McKernel+HFI1 configuration only.
    pico: Option<Pico>,
    delegator: Delegator,
    proxies: ProxyRegistry,
}

/// The PicoDriver pieces of one node: the fast path and, for its SDMA
/// completion callback, the unified kernel space, the callback table and
/// the LWK per-core metadata pools. The space and the table are
/// immutable after boot (queries and invocations are `&self`), so
/// flyweight nodes share one allocation of each per run.
struct Pico {
    fast: HfiFastPath,
    unified: Arc<UnifiedKernelSpace>,
    callbacks: Arc<CallbackTable>,
    cb_ref: CallbackRef,
    lwk_alloc: ScalableAllocator,
}

/// The kernel-side state of one MPI rank: its process, address space,
/// open device file and per-syscall profile.
pub(crate) struct RankKernel {
    /// The rank's LWK process (its global rank id), which owns the proxy.
    pid: LwkPid,
    /// The rank's core on its node (its LWK per-core pool).
    local: u32,
    space: AddressSpace,
    dev_handle: u64,
    ctxt: u32,
    scratch: Vec<(VirtAddr, u64)>,
    pub(crate) kprof: TimeByKey<Sysno>,
    /// In-flight SDMA completion metadata, keyed `(msg_id, window)`.
    /// Hot-path insert/remove per pipelined window — open-addressed
    /// splitmix64 map, not SipHash.
    meta: FastMap<(u64, u32), BlockId>,
}

/// Where a node's calls run and what they cost: the per-run constants of
/// the kernel model, copied into every world.
#[derive(Clone, Copy)]
pub(crate) struct Kernel {
    /// McKernel's routing table; `None` on Linux, where every call runs
    /// in place and anonymous memory costs what Linux's mm charges.
    syscalls: Option<SyscallTable>,
    lc: LinuxCosts,
    mmc: MckMmCosts,
    pico_init_cost: Ns,
}

/// What the wire and the sender's completion IRQ need from one submitted
/// SDMA window.
pub(crate) struct SdmaWindow {
    /// Wire requests the window was split into.
    pub(crate) nreqs: u64,
    /// When the window can leave the NIC: once the submitting kernel has
    /// run the driver's `writev`.
    pub(crate) wire_at: Ns,
    /// Linux-side handling of its completion IRQ.
    pub(crate) irq_cpu: Ns,
}

/// Boot every node of the run and give every rank, in global rank order,
/// its kernel half and its buffer table.
pub(crate) fn boot(
    cfg: &ClusterConfig,
    spec: &AppSpec,
) -> (Vec<Node>, Vec<(RankKernel, BufTable)>) {
    let shape = cfg.shape;
    let rpn = shape.ranks_per_node;
    let mut nodes = Vec::with_capacity(shape.nodes as usize);
    let mut ranks = Vec::with_capacity(shape.nranks() as usize);
    let rank = |g: u32, (space, bufs): (AddressSpace, BufTable)| {
        let kernel = RankKernel {
            pid: g,
            local: g % rpn,
            space,
            dev_handle: 0,
            ctxt: 0,
            scratch: Vec::new(),
            kprof: TimeByKey::new(),
            meta: FastMap::new(),
        };
        (kernel, bufs)
    };
    if cfg.eager_node_model {
        nodes.extend((0..shape.nodes).map(|n| build_node(cfg, n)));
        for g in 0..shape.nranks() {
            let frames = &mut nodes[(g / rpn) as usize].frames;
            ranks.push(rank(g, boot_space(cfg, spec, frames)));
        }
        return (nodes, ranks);
    }
    // Template boot: one real node per OS configuration. Its ranks'
    // address spaces are booted for real against its frame pool, then
    // everything immutable-after-boot is frozen behind `Arc` and every
    // node instance (including node 0, for uniform copy-on-write
    // behavior) becomes a flyweight view. The VA layout a boot produces
    // is node-invariant, and the physical layout is node-invariant up to
    // the node's `node_idx << 40` base.
    let mut template = build_node(cfg, 0);
    let spaces: Vec<(SpaceTemplate, BufTable)> = (0..rpn)
        .map(|_| {
            let (space, bufs) = boot_space(cfg, spec, &mut template.frames);
            (space.freeze(), bufs)
        })
        .collect();
    let booted = std::mem::replace(
        &mut template.frames,
        Frames::Owned(BuddyAllocator::new(PhysAddr(0), 4096)),
    );
    let image = match booted {
        Frames::Owned(b) => Arc::new(b),
        Frames::Shared { .. } => unreachable!("template node boots eagerly"),
    };
    for n in 0..shape.nodes {
        nodes.push(clone_node(cfg, &template, &image, n));
        for (local, (tpl, bufs)) in spaces.iter().enumerate() {
            let space = tpl.instantiate((n as u64) << 40);
            ranks.push(rank(n * rpn + local as u32, (space, bufs.clone())));
        }
    }
    (nodes, ranks)
}

/// Boot the address space of one local rank: buffers + scratch mmapped
/// from the node's frame pool. The LWK maps large pages when it has the
/// contiguity guarantee and pins what it maps; Linux maps 4 KiB pages.
fn boot_space(
    cfg: &ClusterConfig,
    spec: &AppSpec,
    frames: &mut Frames,
) -> (AddressSpace, BufTable) {
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
}

/// OS noise on an application core: `nohz_full` Linux or the LWK.
pub(crate) fn noise_config(cfg: &ClusterConfig) -> NoiseConfig {
    cfg.noise_override.unwrap_or(match cfg.os {
        OsConfig::Linux => NoiseConfig::linux_nohz_full(),
        _ => NoiseConfig::mckernel(),
    })
}

/// Boot one node for real: buddy allocator, chip, driver probe, and — in
/// the PicoDriver configuration — the DWARF port, the unified VA space,
/// and the callback table. The eager model calls this per node; the
/// flyweight model calls it exactly once per OS configuration and stamps
/// the rest out with [`clone_node`].
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
    let pico = (cfg.os == OsConfig::McKernelHfi).then(|| {
        let module = layouts.emit_module_binary();
        let shadow = picodriver::HfiShadow::port(&module).expect("DWARF port failed");
        let mut fast = HfiFastPath::new(shadow, Default::default(), cfg.tid_cache);
        fast.sdma_cap = cfg.sdma_cap;
        let unified = UnifiedKernelSpace::boot().expect("VA unification failed");
        let mut table = CallbackTable::new(&unified);
        let cb_ref = table.register(CallbackKind::SdmaCompleteLwkFree);
        Pico {
            fast,
            unified: Arc::new(unified),
            callbacks: Arc::new(table),
            cb_ref,
            lwk_alloc: lwk_pools(cfg),
        }
    });
    Node {
        frames: Frames::Owned(frames),
        vfs,
        dev,
        chip,
        driver,
        pico,
        delegator: Delegator::new(cfg.ikc, cfg.service_cores),
        proxies: ProxyRegistry::new(),
    }
}

/// The LWK per-core pools the fast path allocates completion metadata
/// from: one per rank of the node.
fn lwk_pools(cfg: &ClusterConfig) -> ScalableAllocator {
    ScalableAllocator::new(cfg.shape.ranks_per_node as usize, 8192)
}

/// Stamp out node `node_idx` from the booted template: share every
/// immutable post-boot image (`Arc` clones — the frame pool view is
/// shifted by the node's physical base) and build only the compact
/// private hot state fresh. This is the whole per-node boot cost of the
/// flyweight model.
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
        pico: template.pico.as_ref().map(|p| Pico {
            fast: p.fast.clone_fresh(),
            unified: Arc::clone(&p.unified),
            callbacks: Arc::clone(&p.callbacks),
            cb_ref: p.cb_ref,
            lwk_alloc: lwk_pools(cfg),
        }),
        delegator: Delegator::new(cfg.ikc, cfg.service_cores),
        proxies: ProxyRegistry::new(),
    }
}

impl Node {
    /// Charge one call issued at `now` whose kernel-side handling takes
    /// `service`: in place on the issuing core (`Local`, `FastPath`), or
    /// over IKC through the node's delegator (`Offloaded`), queueing at
    /// its Linux service cores. The call's whole latency lands in the
    /// rank's profile under `sysno`, and `now` advances to when the rank
    /// resumes (`complete`).
    fn syscall(
        &mut self,
        rank: &mut RankKernel,
        route: SyscallRoute,
        sysno: Sysno,
        service: Ns,
        now: &mut Ns,
    ) -> OffloadGrant {
        let grant = match route {
            SyscallRoute::Offloaded => self.delegator.offload(*now, service),
            SyscallRoute::Local | SyscallRoute::FastPath => OffloadGrant {
                arrive: *now,
                start: *now,
                linux_done: *now + service,
                complete: *now + service,
            },
        };
        rank.kprof.record(sysno, grant.complete - *now);
        *now = grant.complete;
        grant
    }

    /// The node's offload accounting: calls offloaded and their queueing
    /// at the Linux service cores.
    pub(crate) fn delegator(&self) -> &Delegator {
        &self.delegator
    }
}

impl Kernel {
    /// The kernel model of `cfg.os`.
    pub(crate) fn new(cfg: &ClusterConfig) -> Kernel {
        Kernel {
            syscalls: match cfg.os {
                OsConfig::Linux => None,
                OsConfig::McKernel => Some(SyscallTable::base()),
                OsConfig::McKernelHfi => Some(SyscallTable::with_hfi_picodriver()),
            },
            lc: LinuxCosts::default(),
            mmc: MckMmCosts::default(),
            pico_init_cost: cfg.pico_init_cost,
        }
    }

    /// Where a call runs: `pick` asks McKernel's table; on Linux every
    /// call runs in place.
    fn route(&self, pick: impl FnOnce(SyscallTable) -> SyscallRoute) -> SyscallRoute {
        self.syscalls.map_or(SyscallRoute::Local, pick)
    }

    /// Linux entry for a call on a file: trap plus VFS dispatch.
    fn vfs_entry(&self) -> Ns {
        self.lc.syscall_entry + self.lc.vfs_dispatch
    }

    /// `ioctl(TID_UPDATE)`: register `[va, va + len)` as an
    /// expected-receive buffer; returns the programmed TIDs.
    pub(crate) fn tid_register(
        &self,
        node: &mut Node,
        rank: &mut RankKernel,
        va: VirtAddr,
        len: u64,
        now: &mut Ns,
    ) -> Vec<u16> {
        let route = self.route(|t| t.route_ioctl(HfiIoctlCmd::TidUpdate));
        let (tids, service) = if route == SyscallRoute::FastPath {
            let pico = node.pico.as_mut().expect("fast path present");
            let reg = pico
                .fast
                .tid_update(&mut node.chip, &rank.space, rank.ctxt, va, len)
                .expect("fast TID registration failed");
            (reg.tids, reg.cpu)
        } else {
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
            (reg.tids, self.vfs_entry() + reg.cpu)
        };
        node.syscall(rank, route, Sysno::Ioctl, service, now);
        tids
    }

    /// `ioctl(TID_FREE)`: release the TIDs of `[va, va + len)`.
    pub(crate) fn tid_unregister(
        &self,
        node: &mut Node,
        rank: &mut RankKernel,
        (va, len): (VirtAddr, u64),
        tids: &[u16],
        now: &mut Ns,
    ) {
        let route = self.route(|t| t.route_ioctl(HfiIoctlCmd::TidFree));
        let service = if route == SyscallRoute::FastPath {
            let pico = node.pico.as_mut().expect("fast path present");
            pico.fast
                .tid_free(&mut node.chip, rank.ctxt, va, len, tids, false)
                .expect("fast TID free failed")
        } else {
            let cpu = node
                .driver
                .tid_free(&mut node.chip, &mut rank.space, rank.dev_handle, va, tids)
                .expect("TID free failed");
            self.vfs_entry() + cpu
        };
        node.syscall(rank, route, Sysno::Ioctl, service, now);
    }

    /// `writev` on the device file: submit the SDMA window `key =
    /// (msg_id, window)` of `[va, va + len)`.
    pub(crate) fn sdma_send(
        &self,
        node: &mut Node,
        rank: &mut RankKernel,
        key: (u64, u32),
        va: VirtAddr,
        len: u64,
        now: &mut Ns,
    ) -> SdmaWindow {
        let route = self.route(|t| t.route_device(Sysno::Writev));
        let (nreqs, service) = if route == SyscallRoute::FastPath {
            let pico = node.pico.as_mut().expect("fast path present");
            // Cross-kernel read of the live driver engine state via
            // DWARF-extracted offsets.
            let state = node.driver.sdma_state(0).bytes();
            let sub = pico
                .fast
                .sdma_writev(&mut node.chip, &rank.space, state, va, len, 0)
                .expect("fast writev failed");
            // Allocate completion metadata from the LWK per-core pool
            // (freed later from a Linux CPU via the ported callback).
            if let Ok(block) = pico.lwk_alloc.alloc(rank.local as usize) {
                rank.meta.insert(key, block);
            }
            (sub.nreqs, sub.cpu)
        } else {
            let sub = node
                .driver
                .sdma_writev(
                    &mut node.chip,
                    &mut rank.space,
                    rank.dev_handle,
                    va,
                    len,
                    &self.lc,
                )
                .expect("writev failed");
            (sub.nreqs, self.vfs_entry() + sub.cpu)
        };
        let grant = node.syscall(rank, route, Sysno::Writev, service, now);
        SdmaWindow {
            nreqs,
            wire_at: grant.linux_done,
            // Handled on the Linux service cores: McKernel handles no
            // device interrupts.
            irq_cpu: node.driver.costs().completion + self.lc.kmalloc_pair,
        }
    }

    /// Kernel/driver half of the SDMA completion IRQ of window `key` at
    /// `va` (everything but the endpoint progress update): the callback
    /// of whichever `writev` path submitted it.
    pub(crate) fn sdma_complete(
        &self,
        node: &mut Node,
        rank: &mut RankKernel,
        key: (u64, u32),
        va: u64,
    ) {
        if self.route(|t| t.route_device(Sysno::Writev)) != SyscallRoute::FastPath {
            // The original completion callback: unpin + Linux kfree.
            let va = VirtAddr(va);
            let _ = node
                .driver
                .sdma_complete(&mut rank.space, rank.dev_handle, va, &self.lc);
            return;
        }
        // The duplicated callback in McKernel TEXT, invoked from the Linux
        // IRQ context: frees LWK metadata remotely.
        if let Some(block) = rank.meta.remove(&key) {
            let pico = node.pico.as_ref().expect("fast path present");
            pico.callbacks
                .invoke_from_linux(&pico.unified, pico.cb_ref, &pico.lwk_alloc, 0, block)
                .expect("completion callback failed");
        }
    }

    /// Service the completion IRQ of an SDMA window that left the NIC at
    /// `injected` ([`SdmaWindow::irq_cpu`] of handling) on `node`'s Linux
    /// service cores, where it contends with offloaded calls; returns
    /// when the handler finishes.
    pub(crate) fn sdma_irq(&self, node: &mut Node, injected: Ns, irq_cpu: Ns) -> Ns {
        node.delegator
            .service(injected + self.lc.irq_entry, irq_cpu)
            .finish
    }

    /// Run a host (non-PSM) operation issued at `now`, advancing `now` to
    /// when the rank resumes.
    pub(crate) fn host_op(&self, node: &mut Node, rank: &mut RankKernel, op: HostOp, now: &mut Ns) {
        let (lc, mmc) = (&self.lc, &self.mmc);
        match op {
            HostOp::InitDevice => {
                // Proxy process + device open + 6 device-region mmaps.
                let pid = node.proxies.spawn(rank.pid);
                let (handle, ctxt, cpu) = node
                    .driver
                    .open(&mut node.chip)
                    .expect("device open failed");
                let fd = node
                    .vfs
                    .open(pid, node.dev, handle)
                    .expect("vfs open failed");
                debug_assert!(fd >= 3);
                rank.dev_handle = handle;
                rank.ctxt = ctxt;
                let open = (Sysno::Open, self.vfs_entry() + cpu);
                let mmap = (Sysno::Mmap, lc.syscall_entry + node.driver.dev_mmap());
                for (sysno, service) in std::iter::once(open).chain([mmap; 6]) {
                    let route = self.route(|t| t.route_device(sysno));
                    node.syscall(rank, route, sysno, service, now);
                }
                if node.pico.is_some() {
                    // LWK-side initialization of the driver-internal
                    // mappings and the DWARF-ported structures.
                    *now += self.pico_init_cost;
                }
            }
            HostOp::FiniDevice => {
                let service = node
                    .driver
                    .close(&mut node.chip, rank.dev_handle)
                    .unwrap_or(Ns::ZERO)
                    + lc.syscall_entry;
                node.proxies.reap(rank.pid);
                let route = self.route(|t| t.route_device(Sysno::Close));
                node.syscall(rank, route, Sysno::Close, service, now);
            }
            HostOp::MmapScratch { bytes } => {
                let (va, stats) = rank
                    .space
                    .mmap_anonymous(node.frames.get_mut(), bytes, self.syscalls.is_some())
                    .expect("scratch mmap failed");
                rank.scratch.push((va, bytes));
                // Linux maps lazily and uses THP: charge per 2 MiB
                // granule, not per populated 4 KiB leaf.
                let (thp, leaves) = (bytes.div_ceil(2 << 20), stats.leaves_mapped);
                let service = match self.syscalls {
                    None => lc.syscall_entry + lc.mmap_base + lc.mmap_per_page * thp,
                    Some(_) => mmc.syscall_entry + mmc.mmap_base + mmc.mmap_per_leaf * leaves,
                };
                let route = self.route(|t| t.route(Sysno::Mmap));
                node.syscall(rank, route, Sysno::Mmap, service, now);
            }
            HostOp::MunmapScratch => {
                let Some((va, len)) = rank.scratch.pop() else {
                    return;
                };
                shrink_scratch(&mut rank.scratch);
                if let Some(pico) = node.pico.as_mut() {
                    // Invalidate cached TID registrations overlapping the
                    // unmapped range before teardown.
                    let _ = pico
                        .fast
                        .invalidate_range(&mut node.chip, rank.ctxt, va, len);
                }
                let leaves = rank
                    .space
                    .munmap(node.frames.get_mut(), va)
                    .expect("scratch munmap failed");
                let thp = len.div_ceil(2 << 20);
                let service = match self.syscalls {
                    None => lc.syscall_entry + lc.munmap_base + lc.munmap_per_page * thp,
                    // McKernel munmap: teardown + cross-kernel TLB
                    // shootdown — the QBOX-dominating cost (Fig. 9).
                    Some(_) => {
                        mmc.syscall_entry
                            + mmc.munmap_base
                            + mmc.munmap_per_leaf * leaves
                            + mmc.tlb_shootdown
                    }
                };
                let route = self.route(|t| t.route(Sysno::Munmap));
                node.syscall(rank, route, Sysno::Munmap, service, now);
            }
            HostOp::ReadInput { bytes } => {
                let open = self.vfs_entry();
                let read = lc.syscall_entry + transfer_time(bytes, 2.0e9);
                for (sysno, service) in [
                    (Sysno::Open, open),
                    (Sysno::Read, read),
                    (Sysno::Close, open),
                ] {
                    let route = self.route(|t| t.route(sysno));
                    node.syscall(rank, route, sysno, service, now);
                }
            }
            HostOp::Nanosleep(d) => {
                // Local on both kernels; kernel handling is tiny, the
                // sleep itself is idle time.
                let route = self.route(|t| t.route(Sysno::Nanosleep));
                node.syscall(rank, route, Sysno::Nanosleep, Ns::micros(1), now);
                *now += d;
            }
        }
    }
}
