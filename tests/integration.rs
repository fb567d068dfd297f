//! Cross-crate integration tests: the whole stack, exercised end to end
//! through the umbrella crate's re-exported APIs.

use pico_apps::{App, JobShape};
use pico_cluster::{paper_config, run_app, ClusterConfig, OsConfig};
use pico_dwarf::extract_struct;
use pico_hfi1::structs::LayoutSet;
use pico_ihk::Sysno;
use picodriver::{PicoPort, UnifiedKernelSpace};

/// The full §3 pipeline: module binary → DWARF port → fast path reading
/// live driver state — across both driver versions.
#[test]
fn port_pipeline_is_version_robust() {
    for layouts in [LayoutSet::v10_8(), LayoutSet::v10_9()] {
        let module = layouts.emit_module_binary();
        let (port, shadow) = PicoPort::port_hfi1(&module).expect("port");
        assert_eq!(port.fastpath_syscalls.len(), 2);
        let driver = pico_hfi1::Hfi1Driver::new(layouts, pico_hfi1::HfiDriverCosts::default(), 16);
        for e in 0..16 {
            assert!(shadow.engine_running(driver.sdma_state(e).bytes()));
        }
        assert_eq!(shadow.num_sdma(driver.devdata().bytes()), 16);
    }
}

/// Listing 1, byte for byte at the structural level.
#[test]
fn listing1_header_from_real_extraction() {
    let module = LayoutSet::v10_8().emit_module_binary();
    let s = extract_struct(
        &module,
        "sdma_state",
        &["current_state", "go_s99_running", "previous_state"],
    )
    .unwrap();
    let hdr = s.to_c_header();
    for needle in [
        "char whole_struct[64];",
        "char padding0[40];",
        "enum sdma_states current_state;",
        "char padding1[48];",
        "unsigned int go_s99_running;",
        "char padding2[52];",
        "enum sdma_states previous_state;",
    ] {
        assert!(hdr.contains(needle), "missing `{needle}` in:\n{hdr}");
    }
}

/// §3.1 invariants hold for the booted unified space and fail for the
/// original layout.
#[test]
fn unification_invariants() {
    let u = UnifiedKernelSpace::boot().unwrap();
    assert!(u.lwk_can_deref(pico_mem::layout::LINUX_DIRECT_MAP.start + 42));
    assert!(u.linux_can_call(u.lwk_image().start + 16));
    let bad = UnifiedKernelSpace::from_layouts(
        pico_mem::layout::linux_x86_64(),
        pico_mem::layout::mckernel_original(),
    );
    assert!(bad.is_err());
}

/// End-to-end data integrity: a backed 4 MiB rendezvous transfer crosses
/// kernels, SDMA, TID placement and fabric, and arrives intact.
#[test]
fn backed_rendezvous_end_to_end() {
    for os in OsConfig::ALL {
        let app = App::PingPong {
            bytes: 2 << 20,
            reps: 2,
        };
        let mut cfg = paper_config(os, app, 2, Some(1));
        cfg.backed = true;
        let res = run_app(cfg, app, 1);
        assert_eq!(res.ranks_done, 2, "{os:?}");
        assert!(res.delivered_payloads >= 4, "{os:?}: payloads must arrive");
        assert!(res.tid_programs > 0);
    }
}

/// The headline result, end to end: UMT2013 collapses under offloading
/// and the PicoDriver restores (and beats) Linux performance.
#[test]
fn headline_umt_result() {
    let shape = JobShape {
        nodes: 2,
        ranks_per_node: 16,
    };
    let wall = |os| {
        let cfg = ClusterConfig::paper(os, shape);
        // Steady-state: difference of two run lengths cancels init.
        let short = run_app(cfg.clone(), App::Umt2013, 4).wall_time;
        let long = run_app(cfg, App::Umt2013, 8).wall_time;
        long - short
    };
    let linux = wall(OsConfig::Linux);
    let mck = wall(OsConfig::McKernel);
    let hfi = wall(OsConfig::McKernelHfi);
    assert!(
        mck.as_secs_f64() > 1.2 * linux.as_secs_f64(),
        "offloading must hurt: mck {mck} vs linux {linux}"
    );
    assert!(
        hfi.as_secs_f64() < 1.05 * linux.as_secs_f64(),
        "fast path must restore Linux-level performance: hfi {hfi} vs linux {linux}"
    );
    assert!(hfi < mck);
}

/// The Figure 8 claim in miniature: the fast path collapses kernel time,
/// and writev/ioctl shares shrink.
#[test]
fn kernel_time_collapses_with_fast_path() {
    let shape = JobShape {
        nodes: 2,
        ranks_per_node: 16,
    };
    let run = |os| {
        let cfg = ClusterConfig::paper(os, shape);
        run_app(cfg, App::Umt2013, 6)
    };
    let mck = run(OsConfig::McKernel);
    let hfi = run(OsConfig::McKernelHfi);
    let ratio = hfi.kernel_time().as_secs_f64() / mck.kernel_time().as_secs_f64();
    assert!(
        ratio < 0.35,
        "kernel time should collapse (paper: ~7%), got {ratio:.2}"
    );
    // writev+ioctl dominate McKernel kernel time...
    let share = |r: &pico_cluster::RunResult| {
        let (_, w) = r.kernel_profile.get(&Sysno::Writev);
        let (_, i) = r.kernel_profile.get(&Sysno::Ioctl);
        (w + i).as_secs_f64() / r.kernel_time().as_secs_f64()
    };
    assert!(share(&mck) > 0.5, "mck share {}", share(&mck));
    // ...and much less of the (already tiny) +HFI kernel time.
    assert!(share(&hfi) < share(&mck));
}

/// Weak-scaling LAMMPS is unaffected by the driver architecture — the
/// "no regression" guarantee of Figure 5.
#[test]
fn lammps_no_regression() {
    let shape = JobShape {
        nodes: 2,
        ranks_per_node: 16,
    };
    let wall = |os| {
        let cfg = ClusterConfig::paper(os, shape);
        let short = run_app(cfg.clone(), App::Lammps, 4).wall_time;
        let long = run_app(cfg, App::Lammps, 8).wall_time;
        (long - short).as_secs_f64()
    };
    let linux = wall(OsConfig::Linux);
    let hfi = wall(OsConfig::McKernelHfi);
    let rel = linux / hfi;
    assert!(
        (0.9..1.15).contains(&rel),
        "LAMMPS should be within a few % of Linux, got {rel:.3}"
    );
}

/// Determinism across the whole stack: same seed, same everything.
#[test]
fn full_stack_determinism() {
    let run = || {
        let mut cfg = ClusterConfig::paper(
            OsConfig::McKernelHfi,
            JobShape {
                nodes: 2,
                ranks_per_node: 8,
            },
        );
        cfg.record_per_rank = true;
        run_app(cfg, App::Qbox, 3)
    };
    let (a, b) = (run(), run());
    assert_eq!(a.wall_time, b.wall_time);
    assert_eq!(a.rank_finish, b.rank_finish);
    assert!(!a.rank_finish.is_empty());
    assert_eq!(a.finish.digest(), b.finish.digest());
    assert_eq!(a.arrival_latency.digest(), b.arrival_latency.digest());
    assert_eq!(a.fabric_bytes, b.fabric_bytes);
    assert_eq!(a.kernel_time(), b.kernel_time());
}

/// QBOX at 2 nodes × 4 ranks, one iteration, pinned to golden digests on
/// every OS configuration. Each rank maps and unmaps 16 MiB of scratch
/// four times, so the runs go through the Linux 4 KiB and the McKernel
/// large-page mmap/munmap paths, whose leaf counts set the simulated
/// syscall costs. The values were captured at commit e53856e, before the
/// bitmap frame allocator, page-table reclaim and range teardown; any
/// change in what those paths allocate or count moves them.
#[test]
fn qbox_digests_pinned() {
    let golden = [
        (
            OsConfig::Linux,
            1,
            0x3362_4095_2147_af25,
            0x737f_43de_1b5e_92b1,
            0x1ba1_ee06_abc9_4060,
        ),
        (
            OsConfig::Linux,
            2,
            0x761e_b414_5c3a_fb3f,
            0xbb79_8d02_ba4e_3eb4,
            0x8fb8_c6a4_f8a0_bf61,
        ),
        (
            OsConfig::McKernel,
            1,
            0x2e30_63ab_375d_1545,
            0xbc8f_5291_ddb7_6a2e,
            0x583d_677e_f730_bcd1,
        ),
        (
            OsConfig::McKernel,
            2,
            0x8e6a_c158_1d75_e456,
            0xba50_21cb_f3e9_a924,
            0xf8e5_c02d_1a42_426d,
        ),
        (
            OsConfig::McKernelHfi,
            1,
            0xe74f_053e_913f_7c25,
            0x6635_ce77_1b41_1e30,
            0x9e32_9191_fe64_2b2b,
        ),
        (
            OsConfig::McKernelHfi,
            2,
            0x8359_f911_b266_1956,
            0x3ddf_3ee5_a7f2_6033,
            0xa3cb_89f0_295d_5ebe,
        ),
    ];
    for (os, seed, finish, arrival, bulk) in golden {
        let mut cfg = paper_config(os, App::Qbox, 2, Some(4));
        cfg.seed = seed;
        let r = run_app(cfg, App::Qbox, 1);
        assert_eq!(r.ranks_done, 8, "{os:?} seed {seed}");
        assert_eq!(
            (r.finish.digest(), r.arrival_digest, r.arrival_digest_bulk),
            (finish, arrival, bulk),
            "{os:?} seed {seed}"
        );
    }
}

/// A small eager incast pinned to golden digests. Every root receives
/// 28 senders × 16 reps and its unexpected queue peaks at ~420 entries,
/// so the PSM tag matching runs deep queues end to end. The values were
/// captured at commit 481a4fe, with the linear-scan matched queue that
/// the per-source indexed queue replaced; any change in matching order
/// or timing moves them.
#[test]
fn incast_digests_pinned() {
    let app = App::Incast {
        bytes: 4096,
        reps: 16,
        roots: 4,
    };
    let golden = [
        (
            1,
            0x3771_5be2_1a8a_93e9,
            0x49f8_9f7d_cc03_18b4,
            0x2c2c_48b4_112b_54b8,
        ),
        (
            2,
            0x7698_edce_5528_6160,
            0x7373_0e7a_00fe_1723,
            0x46a9_d37c_0a44_6583,
        ),
    ];
    for (seed, finish, arrival, bulk) in golden {
        let mut cfg = paper_config(OsConfig::McKernelHfi, app, 32, Some(1));
        cfg.seed = seed;
        let r = run_app(cfg, app, 1);
        assert_eq!(r.ranks_done, 32, "seed {seed}");
        assert_eq!(
            (r.finish.digest(), r.arrival_digest, r.arrival_digest_bulk),
            (finish, arrival, bulk),
            "seed {seed}"
        );
    }
}

/// The bipartite fan-ins of the `simbench` incast gate, pinned to golden
/// digests: the classic 7-to-1 at 8 nodes and nine superimposed 9-to-1
/// fan-ins at 18 nodes (linger 4 ms). The bulk digest hashes every
/// ≥1 KiB wire arrival, so it is the world-level witness that the
/// destination-rooted sink merge stays FIFO-exact. The values were
/// captured at commit dc9afe2, where the gate still proved both bulk
/// digests equal to the per-link flow model. On the 8-node fan-in the
/// bulk digest also equals the per-packet reference (`simbench` gates
/// that); on the 18-node incast it differs from the reference, as the
/// per-link flow and per-flush train models did.
#[test]
fn fanin_digests_pinned() {
    let bytes = 8 * 1024;
    let golden = [
        (
            App::Incast {
                bytes,
                reps: 256,
                roots: 1,
            },
            8,
            None,
            0xfc29_96e5_8ac0_3b15,
            0x266d_8c27_9299_a00d,
            0x80d6_b772_ea27_a371,
        ),
        (
            App::Incast {
                bytes,
                reps: 64,
                roots: 9,
            },
            18,
            Some(pico_sim::Ns::micros(4000)),
            0xb7ab_c6b3_270d_fae9,
            0x8eac_3c89_a2ce_cb93,
            0xa4e2_34e1_01de_cefd,
        ),
    ];
    for (app, nodes, linger, finish, arrival, bulk) in golden {
        let mut cfg = paper_config(OsConfig::McKernelHfi, app, nodes, Some(1));
        if let Some(lg) = linger {
            cfg.flow_linger_ns = lg;
        }
        let r = run_app(cfg, app, 1);
        assert_eq!(r.ranks_done, nodes, "{nodes} nodes");
        assert_eq!(r.clamped_events, 0, "{nodes} nodes");
        assert_eq!(
            (r.finish.digest(), r.arrival_digest, r.arrival_digest_bulk),
            (finish, arrival, bulk),
            "{nodes} nodes"
        );
    }
}
