//! Replay of the OS configuration's public SDMA submit path at the
//! workload's rendezvous sizes: `HfiFastPath::sdma_writev` over
//! contiguous large pages for McKernel+HFI1, and the vendor driver's
//! `Hfi1Driver::sdma_writev` + `sdma_complete` over fragmented 4 KiB
//! pages for Linux and McKernel.

use crate::trace::Tracer;
use pico_cluster::OsConfig;
use pico_hfi1::structs::LayoutSet;
use pico_hfi1::{Hfi1Driver, HfiChip, HfiChipConfig, HfiDriverCosts};
use pico_linux::LinuxCosts;
use pico_mem::{AddressSpace, BuddyAllocator, MapPolicy, PhysAddr, VirtAddr};
use pico_mpi::Op;
use pico_psm::PsmConfig;
use picodriver::{FastPathCosts, HfiFastPath, HfiShadow};
use std::hint::black_box;
use std::time::{Duration, Instant};

const BASE: VirtAddr = VirtAddr(0x7000_0000_0000);

/// Record the SDMA request sizes a program's messages produce: each
/// message above the eager threshold is cut into PSM windows. Eager
/// messages are kept apart, for workloads that never rendezvous.
#[derive(Clone, Debug, Default)]
pub struct SizeSet {
    pub rendezvous: Vec<u64>,
    pub eager: Vec<u64>,
}

impl SizeSet {
    pub fn add_program(&mut self, program: &[Op]) {
        let psm = PsmConfig::default();
        for op in program {
            let bytes = match *op {
                Op::Isend { bytes, .. } | Op::Send { bytes, .. } | Op::Bcast { bytes, .. } => bytes,
                Op::Alltoallv { bytes_per_peer, .. } => bytes_per_peer,
                _ => continue,
            };
            if bytes > psm.eager_threshold {
                let mut left = bytes;
                while left > 0 {
                    let w = left.min(psm.window);
                    insert(&mut self.rendezvous, w);
                    left -= w;
                }
            } else if bytes > 0 {
                insert(&mut self.eager, bytes);
            }
        }
    }

    /// The sizes to replay: the rendezvous windows, or the eager sizes
    /// when the workload sends nothing above the eager threshold.
    pub fn replay_sizes(&self) -> &[u64] {
        if self.rendezvous.is_empty() {
            &self.eager
        } else {
            &self.rendezvous
        }
    }
}

fn insert(v: &mut Vec<u64>, x: u64) {
    if let Err(i) = v.binary_search(&x) {
        v.insert(i, x);
    }
}

/// One submit-path instance with a mapped buffer of `size` bytes.
enum Path {
    Fast {
        fp: HfiFastPath,
        chip: HfiChip,
        driver: Hfi1Driver,
        space: AddressSpace,
        va: VirtAddr,
    },
    Driver {
        driver: Hfi1Driver,
        chip: HfiChip,
        space: AddressSpace,
        va: VirtAddr,
        handle: u64,
        lc: LinuxCosts,
    },
}

impl Path {
    fn new(os: OsConfig, size: u64) -> Path {
        let layouts = LayoutSet::v10_8();
        let chip = HfiChip::new(HfiChipConfig::default(), 4);
        let mut frames =
            BuddyAllocator::new(PhysAddr(0), (size.max(1 << 20) * 4).next_power_of_two());
        match os {
            OsConfig::McKernelHfi => {
                let shadow = HfiShadow::port(&layouts.emit_module_binary()).expect("DWARF port");
                let fp = HfiFastPath::new(shadow, FastPathCosts::default(), false);
                let driver = Hfi1Driver::new(layouts, HfiDriverCosts::default(), 16);
                let mut space = AddressSpace::new(MapPolicy::ContiguousLarge, BASE);
                let (va, _) = space.mmap_anonymous(&mut frames, size, true).expect("mmap");
                Path::Fast {
                    fp,
                    chip,
                    driver,
                    space,
                    va,
                }
            }
            OsConfig::Linux | OsConfig::McKernel => {
                let mut driver = Hfi1Driver::new(layouts, HfiDriverCosts::default(), 16);
                let mut chip = chip;
                let mut space = AddressSpace::new(MapPolicy::Fragmented4k, BASE);
                let (va, _) = space
                    .mmap_anonymous(&mut frames, size, false)
                    .expect("mmap");
                let (handle, _, _) = driver.open(&mut chip).expect("device open");
                Path::Driver {
                    driver,
                    chip,
                    space,
                    va,
                    handle,
                    lc: LinuxCosts::default(),
                }
            }
        }
    }

    /// One submit (and, on the driver path, its completion).
    fn call(&mut self, size: u64, tracer: &mut Tracer) {
        match self {
            Path::Fast {
                fp,
                chip,
                driver,
                space,
                va,
            } => {
                tracer.enter("core.fastpath_sdma_writev");
                let sub = fp
                    .sdma_writev(chip, space, driver.sdma_state(0).bytes(), *va, size, 0)
                    .expect("fast-path writev");
                tracer.exit();
                black_box(sub.nreqs);
            }
            Path::Driver {
                driver,
                chip,
                space,
                va,
                handle,
                lc,
            } => {
                tracer.enter("hfi1.sdma_writev");
                let sub = driver
                    .sdma_writev(chip, space, *handle, *va, size, lc)
                    .expect("driver writev");
                tracer.exit();
                tracer.enter("hfi1.sdma_complete");
                driver
                    .sdma_complete(space, *handle, *va, lc)
                    .expect("driver completion");
                tracer.exit();
                black_box(sub.nreqs);
            }
        }
    }
}

/// How long the replay of one `(os, size)` pair runs.
#[derive(Clone, Copy, Debug)]
pub enum Length {
    /// For about this much host time.
    Time(Duration),
    /// Exactly this many calls (the traced replay, whose span count must
    /// stay bounded).
    Calls(u64),
}

/// Host nanoseconds per submit call, averaged over every `(os, size)`
/// pair.
pub fn sdma_submit_ns(
    oses: &[OsConfig],
    sizes: &[u64],
    length: Length,
    tracer: &mut Tracer,
) -> f64 {
    let mut per_call = Vec::new();
    for &os in oses {
        for &size in sizes {
            let mut path = Path::new(os, size);
            // One untimed call warms the path's lazily built state.
            path.call(size, &mut Tracer::new(false));
            tracer.enter("bench.replay");
            let t0 = Instant::now();
            let mut calls = 0u64;
            loop {
                for _ in 0..16 {
                    path.call(size, tracer);
                }
                calls += 16;
                let done = match length {
                    Length::Calls(n) => calls >= n,
                    Length::Time(d) => t0.elapsed() >= d,
                };
                if done {
                    break;
                }
            }
            let ns = t0.elapsed().as_nanos() as f64 / calls as f64;
            tracer.exit();
            per_call.push(ns);
        }
    }
    if per_call.is_empty() {
        0.0
    } else {
        per_call.iter().sum::<f64>() / per_call.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendezvous_messages_split_into_windows() {
        let mut s = SizeSet::default();
        let big = PsmConfig::default().window * 2 + 4096;
        s.add_program(&[
            Op::Isend {
                dst: 1,
                tag: 0,
                bytes: big,
                buf: Default::default(),
            },
            Op::Isend {
                dst: 1,
                tag: 0,
                bytes: 512,
                buf: Default::default(),
            },
        ]);
        assert_eq!(s.rendezvous, vec![4096, PsmConfig::default().window]);
        assert_eq!(s.eager, vec![512]);
        assert_eq!(s.replay_sizes(), &s.rendezvous[..]);
    }

    #[test]
    fn both_paths_replay() {
        for os in OsConfig::ALL {
            let ns = sdma_submit_ns(
                &[os],
                &[128 * 1024],
                Length::Calls(32),
                &mut Tracer::new(false),
            );
            assert!(ns > 0.0);
        }
    }
}
