//! Property-based tests on the core data structures and invariants.
//!
//! Driven by the in-tree deterministic [`Rng`] (seeded per case) rather
//! than an external property-testing framework, so they run fully
//! offline. Each property loops over many generated cases; a failure
//! message includes the case seed, which reproduces the input exactly.

use pico_dwarf::leb128;
use pico_mem::{AddressSpace, BuddyAllocator, MapPolicy, PhysAddr, VirtAddr, PAGE_4K};
use pico_mpi::coll;
use pico_sim::{EventQueue, HeapEventQueue, Ns, Rng, ServerPool};

/// Per-case RNG: one master seed per property, split by case index.
fn case_rng(master: u64, case: u64) -> Rng {
    Rng::new(master ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// LEB128 round-trips for arbitrary integers.
#[test]
fn leb128_round_trip() {
    let edges_u = [0u64, 1, 127, 128, u64::MAX];
    let edges_s = [0i64, -1, 63, -64, 64, i64::MIN, i64::MAX];
    let mut cases: Vec<(u64, i64)> = edges_u
        .iter()
        .flat_map(|&v| edges_s.iter().map(move |&s| (v, s)))
        .collect();
    for case in 0..256 {
        let mut r = case_rng(0x001E_B128, case);
        cases.push((r.next_u64(), r.next_u64() as i64));
    }
    for (v, s) in cases {
        let mut buf = Vec::new();
        leb128::write_uleb128(&mut buf, v);
        let mut pos = 0;
        assert_eq!(leb128::read_uleb128(&buf, &mut pos).unwrap(), v);
        assert_eq!(pos, buf.len());

        let mut buf = Vec::new();
        leb128::write_sleb128(&mut buf, s);
        let mut pos = 0;
        assert_eq!(leb128::read_sleb128(&buf, &mut pos).unwrap(), s, "sleb {s}");
    }
}

/// The buddy allocator conserves memory under arbitrary alloc/free
/// interleavings and never double-allocates a region.
#[test]
fn buddy_conservation() {
    for case in 0..64 {
        let mut r = case_rng(0x000B_0DD7, case);
        let nops = 1 + r.gen_range(200) as usize;
        let mut b = BuddyAllocator::new(PhysAddr(0), 16 << 20);
        let cap = b.capacity();
        let mut live: Vec<(PhysAddr, u8)> = Vec::new();
        for _ in 0..nops {
            let order = r.gen_range(6) as u8;
            let do_free = r.chance(0.5);
            if do_free && !live.is_empty() {
                let (pa, o) = live.swap_remove(live.len() / 2);
                assert!(b.free(pa, o).is_ok(), "case {case}");
            } else if let Ok(pa) = b.alloc(order) {
                // No overlap with any live block.
                let size = pico_mem::buddy::block_size(order);
                for &(lpa, lo) in &live {
                    let lsize = pico_mem::buddy::block_size(lo);
                    assert!(
                        pa.0 + size <= lpa.0 || lpa.0 + lsize <= pa.0,
                        "case {case} overlap: {pa:?}+{size} vs {lpa:?}+{lsize}"
                    );
                }
                live.push((pa, order));
            }
            let live_bytes: u64 = live
                .iter()
                .map(|&(_, o)| pico_mem::buddy::block_size(o))
                .sum();
            assert_eq!(b.allocated(), live_bytes, "case {case}");
            assert_eq!(b.free_bytes(), cap - live_bytes, "case {case}");
        }
        for (pa, o) in live {
            assert!(b.free(pa, o).is_ok(), "case {case}");
        }
        assert_eq!(b.allocated(), 0, "case {case}");
    }
}

/// Whatever the allocation policy and mapping size, the physically
/// contiguous runs of a mapping exactly tile its length, and every
/// byte translates to where the run walk says it is.
#[test]
fn contiguous_runs_tile_mappings() {
    for case in 0..48 {
        let mut r = case_rng(0x00C0_4716, case);
        let kb = 4 + r.gen_range(508);
        let contiguous = case % 2 == 0;
        let frag = (case / 2) % 2 == 0;
        let mut frames = BuddyAllocator::new(PhysAddr(0), 64 << 20);
        if frag {
            frames.fragment(0.5);
        }
        let policy = if contiguous {
            MapPolicy::ContiguousLarge
        } else {
            MapPolicy::Fragmented4k
        };
        let mut asp = AddressSpace::new(policy, VirtAddr(0x7000_0000_0000));
        let len = kb * 1024;
        let (va, _) = asp.mmap_anonymous(&mut frames, len, true).unwrap();
        let (runs, _) = asp.contiguous_runs(va, len).unwrap();
        let total: u64 = runs.iter().map(|r| r.len).sum();
        assert_eq!(total, len, "case {case}");
        // Runs are maximal: adjacent runs are not physically contiguous.
        for w in runs.windows(2) {
            assert_ne!(w[0].pa.0 + w[0].len, w[1].pa.0, "case {case}");
        }
        // Spot-check translations at run boundaries.
        let mut off = 0;
        for run in &runs {
            let t = asp.translate(va + off).unwrap();
            assert_eq!(t.pa, run.pa, "case {case}");
            off += run.len;
        }
    }
}

/// Request counting: the number of SDMA requests for a buffer is
/// exactly sum(ceil(run/cap)) and is monotonically non-increasing in
/// the cap.
#[test]
fn request_counts_monotone_in_cap() {
    for case in 0..32 {
        let mut r = case_rng(0x5D3A, case);
        let kb = 64 + r.gen_range(960);
        let mut frames = BuddyAllocator::new(PhysAddr(0), 64 << 20);
        let mut asp = AddressSpace::new(MapPolicy::ContiguousLarge, VirtAddr(0x7000_0000_0000));
        let len = kb * 1024;
        let (va, _) = asp.mmap_anonymous(&mut frames, len, true).unwrap();
        let (runs, _) = asp.contiguous_runs(va, len).unwrap();
        let count = |cap: u64| -> u64 { runs.iter().map(|r| r.len.div_ceil(cap)).sum() };
        let c4 = count(4 * 1024);
        let c8 = count(8 * 1024);
        let c10 = count(10 * 1024);
        assert!(c4 >= c8 && c8 >= c10, "case {case}");
        assert_eq!(c4, len.div_ceil(PAGE_4K).max(1), "case {case}");
    }
}

/// Every collective schedule pairs up: if a sends to b in round k,
/// b receives from a in round k (for arbitrary job sizes).
#[test]
fn collective_schedules_pair() {
    for case in 0..64 {
        let mut rng = case_rng(0x00C0_11EC, case);
        let n = 2 + rng.gen_range(68) as u32;
        let root = rng.gen_range(n as u64) as u32;
        for round in 0..coll::dissemination_rounds(n) {
            for r in 0..n {
                let x = coll::dissemination_round(r, n, round);
                if let Some(dst) = x.send_to {
                    assert_eq!(
                        coll::dissemination_round(dst, n, round).recv_from,
                        Some(r),
                        "case {case}"
                    );
                }
            }
        }
        for round in 0..coll::bcast_rounds(n) {
            for r in 0..n {
                let x = coll::bcast_round(r, n, root, round);
                if let Some(dst) = x.send_to {
                    assert_eq!(
                        coll::bcast_round(dst, n, root, round).recv_from,
                        Some(r),
                        "case {case}"
                    );
                }
            }
        }
        for round in 0..coll::scan_rounds(n) {
            for r in 0..n {
                let x = coll::scan_round(r, n, round);
                if let Some(dst) = x.send_to {
                    assert_eq!(
                        coll::scan_round(dst, n, round).recv_from,
                        Some(r),
                        "case {case}"
                    );
                }
            }
        }
    }
}

/// The FIFO server pool never starts a job before its submission,
/// never overlaps more jobs than servers, and work is conserved.
#[test]
fn server_pool_sanity() {
    for case in 0..48 {
        let mut r = case_rng(0x0005_E4E5, case);
        let servers = 1 + r.gen_range(7) as usize;
        let njobs = 1 + r.gen_range(99) as usize;
        let mut pool = ServerPool::new(servers);
        let mut total = Ns::ZERO;
        let mut intervals = Vec::new();
        let mut t = 0u64;
        for _ in 0..njobs {
            let gap = r.gen_range(1000);
            let service = 1 + r.gen_range(499);
            t += gap;
            let g = pool.submit(Ns(t), Ns(service));
            assert!(g.start >= Ns(t), "case {case}");
            assert_eq!(g.finish - g.start, Ns(service), "case {case}");
            assert!(g.server < servers, "case {case}");
            total += Ns(service);
            intervals.push((g.server, g.start, g.finish));
        }
        assert_eq!(pool.busy_time(), total, "case {case}");
        // Per-server intervals never overlap.
        for s in 0..servers {
            let mut iv: Vec<_> = intervals.iter().filter(|&&(sv, _, _)| sv == s).collect();
            iv.sort_by_key(|&&(_, st, _)| st);
            for w in iv.windows(2) {
                assert!(w[0].2 <= w[1].1, "case {case} server {s} overlap");
            }
        }
    }
}

/// RNG distributions stay in range for arbitrary seeds.
#[test]
fn rng_ranges() {
    for case in 0..256 {
        let mut r = case_rng(0x4A6D_5EED, case);
        let bound = 1 + r.next_u64() % 1_000_000;
        for _ in 0..100 {
            assert!(r.gen_range(bound) < bound);
            let u = r.unit_f64();
            assert!((0.0..1.0).contains(&u));
        }
    }
}

/// The timing-wheel [`EventQueue`] pops the exact `(time, seq)` sequence
/// of the reference binary-heap model under arbitrary schedule/pop
/// interleavings — near, same-timestamp, cross-page, coarse-ring and
/// far-future deltas, including draining to empty and refilling
/// (window resets).
#[test]
fn wheel_pops_heap_sequence() {
    for case in 0..32 {
        let mut r = case_rng(0x0003_EE10_FEA9, case);
        let mut wheel: EventQueue<u32> = EventQueue::new();
        let mut heap: HeapEventQueue<u32> = HeapEventQueue::new();
        let mut next_id = 0u32;
        for _ in 0..4000 {
            if r.chance(0.55) {
                let dt = match r.gen_range(6) {
                    0 => 0,                                // same-timestamp storm
                    1 => r.gen_range(1024),                // same page
                    2 => r.gen_range(1 << 20),             // fine horizon
                    3 => (1 << 20) + r.gen_range(1 << 24), // coarse ring
                    4 => (1 << 26) + r.gen_range(1 << 28), // overflow heap
                    _ => r.gen_range(64),                  // near
                };
                let at = Ns(wheel.now().0 + dt);
                wheel.schedule(at, next_id);
                heap.schedule(at, next_id);
                next_id += 1;
            } else {
                assert_eq!(wheel.pop(), heap.pop(), "case {case}");
            }
            assert_eq!(wheel.len(), heap.len(), "case {case}");
            assert_eq!(wheel.peek_time(), heap.peek_time(), "case {case}");
        }
        while let Some(got) = wheel.pop() {
            assert_eq!(Some(got), heap.pop(), "case {case} drain");
        }
        assert!(heap.pop().is_none(), "case {case}");
        assert_eq!(wheel.events_processed(), heap.events_processed());
    }
}

/// Packet trains, persistent flows, and destination-rooted sinks are
/// pure event-count optimizations: every coalescing mode must produce
/// the same physics as the per-packet reference model. Wall time must
/// match within the documented tolerance (DESIGN.md "Packet trains" /
/// "Fabric flows": 0.1% on these configs; coalesced delivery can
/// reorder library entry against unrelated events, so bit-equality is
/// not guaranteed for every workload), and the conserved quantities —
/// ranks finished, payloads delivered, fabric bytes/messages — must be
/// exactly equal.
#[test]
fn packet_trains_match_per_packet_reference() {
    use pico_apps::{App, JobShape};
    use pico_cluster::{ClusterConfig, FabricMode, OsConfig, World};

    let apps = [
        (
            App::PingPong {
                bytes: 8 * 1024,
                reps: 6,
            },
            1,
            1u32,
        ), // eager PIO
        (
            App::PingPong {
                bytes: 256 * 1024,
                reps: 4,
            },
            1,
            1,
        ), // 1-window rendezvous
        (
            App::PingPong {
                bytes: 2 << 20,
                reps: 3,
            },
            1,
            1,
        ), // 4-window train
        (App::Umt2013, 2, 2), // halo exchange
        (App::Hacc, 2, 2),    // overlapped isends
        (App::Nekbone, 2, 1), // CG allreduce
        (App::Lammps, 2, 1),  // neighbor exchange
        (
            App::PingPong {
                bytes: 4 << 20,
                reps: 2,
            },
            1,
            1,
        ), // 8-window train
    ];
    let mut case = 0u64;
    for (app, rpn, iters) in apps {
        for os in OsConfig::ALL {
            let seed = case_rng(0x7124_1145, case).next_u64();
            case += 1;
            let shape = JobShape {
                nodes: 2,
                ranks_per_node: rpn,
            };
            let mut cfg = ClusterConfig::paper(os, shape);
            cfg.seed = seed;
            cfg.batch_fabric = FabricMode::Trains;
            // Exact per-rank vectors ride along so every run below also
            // witnesses FinishSketch ≡ record_per_rank on min/max/sum.
            cfg.record_per_rank = true;
            let mut unbatched = cfg.clone();
            unbatched.batch_fabric = FabricMode::PerPacket;
            let mut flowed = cfg.clone();
            flowed.batch_fabric = FabricMode::Flows;
            let mut sunk = cfg.clone();
            sunk.batch_fabric = FabricMode::Incast;
            let off = World::new(unbatched, app, iters).run();
            for (mode, res) in [
                ("trains", World::new(cfg, app, iters).run()),
                ("flows", World::new(flowed, app, iters).run()),
                ("incast", World::new(sunk, app, iters).run()),
            ] {
                let label = format!("case {case} {:?} {} [{mode}]", app, os.label());
                // The streaming sketch must agree *exactly* with the
                // recorded vector on its exact fields, for every app ×
                // OS × fabric mode in the equivalence mix.
                assert_eq!(res.finish.count(), res.rank_finish.len() as u64, "{label}");
                assert_eq!(
                    res.finish.sum(),
                    res.rank_finish.iter().map(|t| t.0).sum::<u64>(),
                    "{label}"
                );
                assert_eq!(
                    res.finish.min(),
                    res.rank_finish.iter().map(|t| t.0).min(),
                    "{label}"
                );
                assert_eq!(
                    res.finish.max(),
                    res.rank_finish.iter().map(|t| t.0).max(),
                    "{label}"
                );
                assert_eq!(res.wall_time.0, res.finish.max().unwrap(), "{label}");
                assert_eq!(res.ranks_done, off.ranks_done, "{label}");
                assert_eq!(res.delivered_payloads, off.delivered_payloads, "{label}");
                assert_eq!(res.fabric_bytes, off.fabric_bytes, "{label}");
                assert_eq!(res.fabric_messages, off.fabric_messages, "{label}");
                assert_eq!(res.clamped_events, 0, "{label}");
                assert_eq!(off.clamped_events, 0, "{label}");
                let dev = (res.wall_time.0 as f64 - off.wall_time.0 as f64).abs()
                    / off.wall_time.0.max(1) as f64;
                assert!(
                    dev <= 0.001,
                    "{label}: wall {} (coalesced) vs {} (reference), deviation {:.4}%",
                    res.wall_time,
                    off.wall_time,
                    dev * 100.0
                );
                assert!(
                    res.sim_events <= off.sim_events,
                    "{label}: batching must not add events ({} vs {})",
                    res.sim_events,
                    off.sim_events
                );
            }
        }
    }
}

/// A full simulated run is byte-identical across repeated runs and
/// across `par_map` worker counts (the sweep fan-out must not leak
/// nondeterminism into results).
#[test]
fn sweeps_identical_across_thread_counts() {
    use pico_apps::App;
    use pico_cluster::{paper_config, run_app, OsConfig};
    use pico_sim::par_map_threads;

    let digest = |os: OsConfig| -> String {
        let app = App::PingPong {
            bytes: 64 * 1024,
            reps: 4,
        };
        let mut cfg = paper_config(os, app, 2, Some(1));
        cfg.record_per_rank = true;
        let res = run_app(cfg, app, 1);
        assert_eq!(res.clamped_events, 0, "no event may be clamped to `now`");
        // events_per_sec is wall-clock derived and deliberately excluded;
        // the MPI profile is digested through its sorted view (the raw
        // HashMap's iteration order is not stable).
        format!(
            "{:?}|{}|{}|{:?}|{:#x}|{:#x}|{:?}",
            res.wall_time,
            res.ranks_done,
            res.sim_events,
            res.rank_finish,
            res.finish.digest(),
            res.arrival_latency.digest(),
            res.mpi_profile.sorted_desc()
        )
    };
    let configs: Vec<OsConfig> = OsConfig::ALL.to_vec();
    let serial: Vec<String> = configs.iter().map(|&os| digest(os)).collect();
    for threads in [1usize, 4] {
        let par = par_map_threads(threads, configs.clone(), digest);
        assert_eq!(par, serial, "thread count {threads} changed results");
    }
}

/// Everything the *simulated system* determines, bit-for-bit: wall
/// time, per-rank finish times, arrival digests, fabric traffic,
/// delivery and syscall totals. Excludes engine bookkeeping — event /
/// pause / soft-dispatch counts — which the two engines spend
/// differently on the same physics (the sharded engine defers greedy
/// train continuation at window horizons; see DESIGN.md).
#[cfg(test)]
fn physical_digest(res: &pico_cluster::RunResult) -> String {
    assert_eq!(res.clamped_events, 0, "no event may be clamped to `now`");
    format!(
        "{:?}|{}|{}|{}|{:#x}|{:#x}|{}|{}|{}|{}|{}|{}|{:?}|{:#x}|{:?}",
        res.wall_time,
        res.ranks_done,
        res.delivered_payloads,
        res.payload_errors,
        res.arrival_digest,
        res.arrival_digest_bulk,
        res.fabric_bytes,
        res.fabric_messages,
        res.fabric_sink_members,
        res.pio_sends,
        res.tid_programs,
        res.offloaded_calls,
        res.rank_finish,
        res.finish.digest(),
        res.mpi_profile.sorted_desc(),
    )
}

/// [`physical_digest`] plus every engine bookkeeping counter: within
/// one engine these are deterministic too, so runs differing only in
/// worker thread count must agree on all of them.
#[cfg(test)]
fn engine_digest(res: &pico_cluster::RunResult) -> String {
    format!(
        "{}|{}|{}|{}|{}|{}|{}|{}|{:#x}",
        physical_digest(res),
        res.sim_events,
        res.soft_deliveries,
        res.fabric_sinks,
        res.fabric_sink_pauses,
        res.fabric_max_sink,
        res.fabric_trains,
        res.fabric_resplits,
        // Latency is measured commit → arrival, so it depends on the
        // engine's dispatch schedule — deterministic *within* an engine,
        // hence part of the engine digest, not the physical one.
        res.arrival_latency.digest(),
    )
}

/// Everything *conserved* by the physics — traffic, deliveries, payload
/// integrity, syscall and doorbell totals — as one exact string. Both
/// engines must agree on these bit-for-bit on every workload: deferring
/// a greedy sink continuation moves timestamps, never bytes.
#[cfg(test)]
fn conserved_digest(res: &pico_cluster::RunResult) -> String {
    assert_eq!(res.clamped_events, 0, "no event may be clamped to `now`");
    format!(
        "{}|{}|{}|{}|{}|{}|{}|{}|{}",
        res.ranks_done,
        res.delivered_payloads,
        res.payload_errors,
        res.fabric_bytes,
        res.fabric_messages,
        res.fabric_sink_members,
        res.pio_sends,
        res.tid_programs,
        res.offloaded_calls,
    )
}

/// The conservative-lookahead sharded engine against the single-queue
/// incast engine, across the application mix and all three OS configs.
///
/// The single-queue engine's greedy sink continuation is *non-causal*:
/// a delivery dispatch at `t` consumes members whose arrivals lie
/// arbitrarily far past `t` — including members merged by commits that
/// other nodes emit *after* `t`. A conservative parallel engine cannot
/// reproduce that bit-for-bit (it would have to see other shards'
/// same-window emissions before they happen), so the sharded engine
/// pauses continuations at its window horizon and resumes them with
/// complete state (see DESIGN.md). The contract verified here is the
/// same shape as `packet_trains_match_per_packet_reference`: conserved
/// quantities exactly equal, timing within a tight tolerance (worst
/// observed deviation across this mix is 0.81%).
#[test]
fn sharded_engine_matches_single_queue() {
    use pico_apps::{App, JobShape};
    use pico_cluster::{ClusterConfig, EngineMode, FabricMode, OsConfig, World};

    let apps = [
        (
            App::PingPong {
                bytes: 8 * 1024,
                reps: 6,
            },
            2,
            1,
            1u32,
        ), // eager PIO
        (
            App::PingPong {
                bytes: 2 << 20,
                reps: 3,
            },
            2,
            1,
            1,
        ), // 4-window train
        (App::Umt2013, 4, 2, 2), // halo exchange, 4 shards
        (App::Hacc, 4, 2, 2),    // overlapped isends, 4 shards
        (App::Nekbone, 4, 2, 1), // CG allreduce, 4 shards
        (App::Lammps, 2, 2, 1),  // neighbor exchange
    ];
    const TOL: f64 = 0.01; // 1% timing tolerance; worst observed 0.81%
    let mut case = 0u64;
    for (app, nodes, rpn, iters) in apps {
        for os in OsConfig::ALL {
            let seed = case_rng(0x5AAD_ED01, case).next_u64();
            case += 1;
            let shape = JobShape {
                nodes,
                ranks_per_node: rpn,
            };
            let mut cfg = ClusterConfig::paper(os, shape);
            cfg.seed = seed;
            cfg.batch_fabric = FabricMode::Incast;
            cfg.record_per_rank = true;
            let mut sharded = cfg.clone();
            sharded.engine = EngineMode::Sharded;
            sharded.threads = Some(2);
            // Pin one shard per node: these jobs are far below the auto
            // heuristic's ~32-ranks-per-shard floor, and the point here
            // is to exercise the cross-shard machinery.
            sharded.shards = Some(nodes as usize);
            let single = World::new(cfg, app, iters).run();
            let shard = World::new(sharded, app, iters).run();
            let label = format!("case {case} {:?} {} nodes {nodes}", app, os.label());
            assert_eq!(shard.shards, nodes, "{label}");
            assert_eq!(single.shards, 1, "{label}");
            assert_eq!(single.rank_finish.len(), (nodes * rpn) as usize, "{label}");
            assert_eq!(shard.rank_finish.len(), (nodes * rpn) as usize, "{label}");
            assert_eq!(
                conserved_digest(&shard),
                conserved_digest(&single),
                "{label}: conserved quantities"
            );
            let wall_dev = (shard.wall_time.0 as f64 - single.wall_time.0 as f64).abs()
                / single.wall_time.0 as f64;
            assert!(
                wall_dev <= TOL,
                "{label}: wall {:?} vs {:?} ({:.3}% > {:.1}%)",
                shard.wall_time,
                single.wall_time,
                wall_dev * 100.0,
                TOL * 100.0
            );
            for (r, (a, b)) in single
                .rank_finish
                .iter()
                .zip(&shard.rank_finish)
                .enumerate()
            {
                let dev = (b.0 as f64 - a.0 as f64).abs() / a.0.max(1) as f64;
                assert!(
                    dev <= TOL,
                    "{label}: rank {r} finish {b:?} vs {a:?} ({:.3}%)",
                    dev * 100.0
                );
            }
        }
    }
}

/// Workloads whose sink deliveries never straddle a window horizon —
/// eager ping-pong, the rendezvous train ping-pong and the LAMMPS
/// neighbor exchange — take the deferral path zero times, so there the
/// sharded engine *is* a bit-exact identity over the single-queue
/// engine: wall time, per-rank finishes, arrival digests, everything.
#[test]
fn sharded_engine_bit_identical_without_deferral() {
    use pico_apps::{App, JobShape};
    use pico_cluster::{ClusterConfig, EngineMode, FabricMode, OsConfig, World};

    let apps = [
        (
            App::PingPong {
                bytes: 8 * 1024,
                reps: 6,
            },
            2,
            1,
            1u32,
        ),
        (
            App::PingPong {
                bytes: 2 << 20,
                reps: 3,
            },
            2,
            1,
            1,
        ),
        (App::Lammps, 2, 2, 1),
    ];
    let mut case = 0u64;
    for (app, nodes, rpn, iters) in apps {
        for os in OsConfig::ALL {
            let seed = case_rng(0xB17E_AC71, case).next_u64();
            case += 1;
            let shape = JobShape {
                nodes,
                ranks_per_node: rpn,
            };
            let mut cfg = ClusterConfig::paper(os, shape);
            cfg.seed = seed;
            cfg.batch_fabric = FabricMode::Incast;
            cfg.record_per_rank = true;
            let mut sharded = cfg.clone();
            sharded.engine = EngineMode::Sharded;
            sharded.threads = Some(2);
            sharded.shards = Some(nodes as usize);
            let single = World::new(cfg, app, iters).run();
            let shard = World::new(sharded, app, iters).run();
            let label = format!("case {case} {app:?} {}", os.label());
            assert_eq!(
                physical_digest(&shard),
                physical_digest(&single),
                "{label}: sharded vs single-queue"
            );
        }
    }
}

/// The sharded engine's partition depends only on the shard count, so
/// the worker thread count is invisible in the results: 1, 2, 4 and 8
/// threads produce byte-identical digests.
#[test]
fn sharded_identical_across_thread_counts() {
    use pico_apps::{App, JobShape};
    use pico_cluster::{ClusterConfig, EngineMode, FabricMode, OsConfig, World};

    let shape = JobShape {
        nodes: 4,
        ranks_per_node: 2,
    };
    let mut cfg = ClusterConfig::paper(OsConfig::McKernelHfi, shape);
    cfg.batch_fabric = FabricMode::Incast;
    cfg.engine = EngineMode::Sharded;
    cfg.record_per_rank = true;
    cfg.shards = Some(4);
    let run = |threads: usize| {
        let mut c = cfg.clone();
        c.threads = Some(threads);
        let res = World::new(c, App::Umt2013, 2).run();
        assert_eq!(res.shards, 4, "threads {threads}");
        engine_digest(&res)
    };
    let one = run(1);
    for threads in [2usize, 4, 8] {
        assert_eq!(run(threads), one, "thread count {threads} changed results");
    }
}

/// Data integrity under the sharded engine: a backed CORAL run carries
/// real payloads across the shard boundary — every delivered payload
/// must still pass the wrapping-increment self-check.
#[test]
fn backed_coral_sharded_smoke() {
    use pico_apps::{App, JobShape};
    use pico_cluster::{ClusterConfig, EngineMode, FabricMode, OsConfig, World};

    let shape = JobShape {
        nodes: 4,
        ranks_per_node: 2,
    };
    let mut cfg = ClusterConfig::paper(OsConfig::McKernelHfi, shape);
    cfg.batch_fabric = FabricMode::Incast;
    cfg.engine = EngineMode::Sharded;
    cfg.backed = true;
    cfg.shards = Some(4);
    let res = World::new(cfg, App::Umt2013, 2).run();
    assert_eq!(res.ranks_done, 8);
    assert_eq!(res.payload_errors, 0, "payload corrupted crossing shards");
    assert!(res.delivered_payloads > 0, "backed run must carry payloads");
    assert_eq!(res.clamped_events, 0);
}

/// Any permutation of shard merges produces a bit-identical sketch:
/// the log-bucket merge is a commutative, associative fold, so the
/// order workers join in can never perturb the result.
#[test]
fn sketch_merge_order_invariant() {
    use pico_sim::Sketch;

    for case in 0..32u64 {
        let mut rng = case_rng(0x5E7C_4E36, case);
        let nshards = 2 + (rng.next_u64() % 7) as usize;
        let shards: Vec<Sketch> = (0..nshards)
            .map(|_| {
                let mut s = Sketch::new();
                let n = rng.next_u64() % 200;
                let shift = rng.next_u64() % 48;
                for _ in 0..n {
                    s.record(rng.next_u64() >> shift);
                }
                s
            })
            .collect();
        // Reference: merge in index order.
        let mut reference = Sketch::new();
        for s in &shards {
            reference.merge(s);
        }
        // Rng-driven permutations (Fisher–Yates) plus reverse order.
        let mut order: Vec<usize> = (0..nshards).collect();
        for perm in 0..8 {
            if perm == 0 {
                order.reverse();
            } else {
                for i in (1..nshards).rev() {
                    let j = (rng.next_u64() % (i as u64 + 1)) as usize;
                    order.swap(i, j);
                }
            }
            let mut merged = Sketch::new();
            for &i in &order {
                merged.merge(&shards[i]);
            }
            assert_eq!(merged, reference, "case {case} perm {perm}: {order:?}");
            assert_eq!(merged.digest(), reference.digest(), "case {case}");
        }
    }
}

/// The sketch's quantiles stay within the documented error envelope of
/// the exact sample quantile: exact below 16, and at most one 1/16
/// sub-bucket above the true value everywhere else — while min, max,
/// sum and count are exact for any input.
#[test]
fn sketch_quantile_error_bound() {
    use pico_sim::Sketch;

    for case in 0..48u64 {
        let mut rng = case_rng(0x5E7C_0B0D, case);
        // Vary the magnitude regime per case: timestamps, latencies,
        // small counts — the shift walks the whole bucket range.
        let shift = rng.next_u64() % 56;
        let n = 100 + (rng.next_u64() % 2000) as usize;
        let mut exact: Vec<u64> = (0..n).map(|_| rng.next_u64() >> shift).collect();
        let mut sketch = Sketch::new();
        for &v in &exact {
            sketch.record(v);
        }
        exact.sort_unstable();
        assert_eq!(sketch.count(), n as u64, "case {case}");
        assert_eq!(sketch.min(), Some(exact[0]), "case {case}");
        assert_eq!(sketch.max(), Some(exact[n - 1]), "case {case}");
        assert_eq!(
            sketch.sum(),
            exact.iter().fold(0u64, |a, &v| a.wrapping_add(v)),
            "case {case}"
        );
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
            let truth = exact[rank - 1];
            let got = sketch.quantile(q).unwrap();
            let ceiling = truth.saturating_add(truth / 16).saturating_add(1);
            assert!(
                got >= truth && got <= ceiling,
                "case {case} q={q}: sketch {got} vs exact {truth}"
            );
        }
    }
}

/// The shard-local sparse state layout against the full-cluster dense
/// reference (`cfg.dense_shard_state`), across the same application mix
/// and OS configs as the engine equivalence test, at 1/2/4/8 workers.
///
/// The sparse layout sizes each shard's fabric gates, `node_pending`
/// maps and sink roots to the shard's own node range (remote gate
/// state created on first touch); the dense layout preallocates all of
/// them for the whole cluster in every shard. A fresh bandwidth gate
/// is bit-identical to a preallocated untouched one, so the two must
/// agree on *every* engine counter — and the gate-state observables
/// must show the sparse layout allocating exactly the cluster's nodes
/// once in total, versus shards × nodes under the dense layout.
#[test]
fn sparse_shard_state_matches_dense_layout() {
    use pico_apps::{App, JobShape};
    use pico_cluster::{ClusterConfig, EngineMode, FabricMode, OsConfig, World};

    let apps = [
        (
            App::PingPong {
                bytes: 8 * 1024,
                reps: 6,
            },
            2,
            1,
            1u32,
        ),
        (
            App::PingPong {
                bytes: 2 << 20,
                reps: 3,
            },
            2,
            1,
            1,
        ),
        (App::Umt2013, 4, 2, 2),
        (App::Hacc, 4, 2, 2),
        (App::Nekbone, 4, 2, 1),
        (App::Lammps, 2, 2, 1),
    ];
    let mut case = 0u64;
    for (app, nodes, rpn, iters) in apps {
        for os in OsConfig::ALL {
            let seed = case_rng(0x5BAF_5E11, case).next_u64();
            case += 1;
            let shape = JobShape {
                nodes,
                ranks_per_node: rpn,
            };
            let mut cfg = ClusterConfig::paper(os, shape);
            cfg.seed = seed;
            cfg.batch_fabric = FabricMode::Incast;
            cfg.record_per_rank = true;
            cfg.engine = EngineMode::Sharded;
            cfg.threads = Some(2);
            cfg.shards = Some(nodes as usize);
            assert!(!cfg.dense_shard_state, "sparse is the default");
            let mut dense_cfg = cfg.clone();
            dense_cfg.dense_shard_state = true;
            let sparse = World::new(cfg, app, iters).run();
            let dense = World::new(dense_cfg, app, iters).run();
            let label = format!("case {case} {app:?} {} nodes {nodes}", os.label());
            assert_eq!(
                engine_digest(&sparse),
                engine_digest(&dense),
                "{label}: sparse vs dense shard state"
            );
            // Gate-state observables: the sparse run materializes each
            // node's gates exactly once across all shards (no shard
            // ever touched a remote node's gates — the inject/commit
            // split keeps every gate access shard-local); the dense
            // run pays nodes × shards.
            assert_eq!(sparse.shard_gate_nodes, nodes as u64, "{label}");
            assert_eq!(dense.shard_gate_nodes, (nodes * nodes) as u64, "{label}");
            assert!(
                sparse.shard_state_bytes < dense.shard_state_bytes,
                "{label}: sparse {} >= dense {}",
                sparse.shard_state_bytes,
                dense.shard_state_bytes
            );
        }
    }

    // Worker sweep: both layouts are worker-count-invariant and equal
    // to each other at every thread count.
    let shape = JobShape {
        nodes: 4,
        ranks_per_node: 2,
    };
    let mut cfg = ClusterConfig::paper(OsConfig::McKernelHfi, shape);
    cfg.batch_fabric = FabricMode::Incast;
    cfg.engine = EngineMode::Sharded;
    cfg.record_per_rank = true;
    cfg.shards = Some(4);
    let run = |threads: usize, dense: bool| {
        let mut c = cfg.clone();
        c.threads = Some(threads);
        c.dense_shard_state = dense;
        engine_digest(&World::new(c, App::Umt2013, 2).run())
    };
    let reference = run(1, false);
    for threads in [1usize, 2, 4, 8] {
        assert_eq!(run(threads, false), reference, "sparse, {threads} threads");
        assert_eq!(run(threads, true), reference, "dense, {threads} threads");
    }
}

/// A shard never allocates gate state for a remote node it exchanged no
/// traffic with — and in the sharded engine's inject/commit split, not
/// even for the remote nodes it *did* exchange traffic with (the source
/// half runs on the source's shard, the commit half on the
/// destination's, so every gate access is to a shard-owned node). The
/// all-to-all UMT halo exchange is the adversarial workload: every node
/// talks to every other, yet the per-shard gate population stays at
/// exactly the shard's own nodes.
#[test]
fn shards_allocate_no_remote_gate_state() {
    use pico_apps::{App, JobShape};
    use pico_cluster::{ClusterConfig, EngineMode, FabricMode, OsConfig, World};

    let shape = JobShape {
        nodes: 4,
        ranks_per_node: 2,
    };
    let mut cfg = ClusterConfig::paper(OsConfig::McKernelHfi, shape);
    cfg.batch_fabric = FabricMode::Incast;
    cfg.engine = EngineMode::Sharded;
    cfg.shards = Some(4);
    let res = World::new(cfg.clone(), App::Umt2013, 2).run();
    assert_eq!(res.shards, 4);
    assert!(res.fabric_bytes > 0, "halo exchange must move traffic");
    assert_eq!(
        res.shard_gate_nodes, 4,
        "a shard materialized gate state for a node it does not own"
    );

    // The single-queue engine spans every node in its one world.
    cfg.engine = EngineMode::SingleQueue;
    cfg.shards = None;
    let single = World::new(cfg, App::Umt2013, 2).run();
    assert_eq!(single.shard_gate_nodes, 4);
}

/// The auto shard heuristic never reads the run's worker count, so two
/// runs differing only in `threads` (with `shards: None`) pick the same
/// partition and produce byte-identical digests — the PR 6 invariance,
/// now holding through the sizing heuristic instead of a flat constant.
#[test]
fn auto_shard_heuristic_independent_of_worker_count() {
    use pico_apps::{App, JobShape};
    use pico_cluster::{auto_shard_count, ClusterConfig, EngineMode, FabricMode, OsConfig, World};

    // 8 nodes x 8 ranks: above the ~32-ranks-per-shard floor on any
    // host (by_ranks = 2, by_workers >= 2), so the heuristic yields 2
    // shards everywhere and this test is machine-independent.
    assert_eq!(auto_shard_count(8, 8), 2);
    // Floor: tiny jobs collapse to one shard (the single-queue walk).
    assert_eq!(auto_shard_count(4, 2), 1);
    // Ceilings: never more shards than nodes, never more than 64.
    assert!(auto_shard_count(2, 64) <= 2);
    assert!(auto_shard_count(65536, 64) <= 64);
    // Nodes-per-shard floor: a shard owns at least ~4 nodes once the
    // cluster has them, so rank-heavy small clusters don't shatter into
    // slivers (7 nodes x 64 rpn would otherwise split by ranks alone)...
    assert_eq!(auto_shard_count(7, 64), 1);
    assert!(auto_shard_count(64, 64) <= 16);
    // ...while large clusters still reach the 64-shard ceiling.
    assert!(auto_shard_count(16384, 1) >= auto_shard_count(4096, 1));

    let shape = JobShape {
        nodes: 8,
        ranks_per_node: 8,
    };
    let mut cfg = ClusterConfig::paper(OsConfig::McKernelHfi, shape);
    cfg.batch_fabric = FabricMode::Incast;
    cfg.engine = EngineMode::Sharded;
    cfg.record_per_rank = true;
    assert!(cfg.shards.is_none(), "this test exercises the heuristic");
    let run = |threads: usize| {
        let mut c = cfg.clone();
        c.threads = Some(threads);
        let res = World::new(c, App::Nekbone, 1).run();
        assert_eq!(res.shards, 2, "threads {threads}");
        engine_digest(&res)
    };
    let one = run(1);
    assert_eq!(run(2), one, "worker count changed the partition/results");
}

/// The flyweight node model (template-boot cloning + lazy cold state)
/// against the eager per-node boot (`cfg.eager_node_model`), across the
/// application mix and all three OS configs, sharded at 2 workers plus
/// a 1/2/4/8-worker sweep.
///
/// The flyweight model boots exactly one node per OS configuration and
/// stamps the rest out as `Arc`-shared views of its post-boot images —
/// frame pool, address-space tables, driver reset registers, the ported
/// shadow, unified kernel space and callback table — materializing
/// private copies only on first mutating touch. The eager model builds
/// every node privately. A fresh view is bit-identical to a fresh
/// private boot (node state is node-invariant up to the `node << 40`
/// physical base, which every read-only walk applies on the fly), so
/// the two models must agree on every engine counter, every finish
/// time, and every arrival digest.
#[test]
fn flyweight_node_model_matches_eager_boot() {
    use pico_apps::{App, JobShape};
    use pico_cluster::{ClusterConfig, EngineMode, FabricMode, OsConfig, World};

    let apps = [
        (
            App::PingPong {
                bytes: 8 * 1024,
                reps: 6,
            },
            2,
            1,
            1u32,
        ),
        (App::Umt2013, 4, 2, 2),
        (App::Hacc, 4, 2, 2),
        (App::Nekbone, 4, 2, 1),
        (App::Qbox, 2, 2, 1),
    ];
    let mut case = 0u64;
    for (app, nodes, rpn, iters) in apps {
        for os in OsConfig::ALL {
            let seed = case_rng(0xF1E9_B007, case).next_u64();
            case += 1;
            let shape = JobShape {
                nodes,
                ranks_per_node: rpn,
            };
            let mut cfg = ClusterConfig::paper(os, shape);
            cfg.seed = seed;
            cfg.batch_fabric = FabricMode::Incast;
            cfg.record_per_rank = true;
            cfg.engine = EngineMode::Sharded;
            cfg.threads = Some(2);
            cfg.shards = Some(nodes as usize);
            assert!(!cfg.eager_node_model, "flyweight is the default");
            let mut eager_cfg = cfg.clone();
            eager_cfg.eager_node_model = true;
            let fly = World::new(cfg, app, iters).run();
            let eager = World::new(eager_cfg, app, iters).run();
            let label = format!("case {case} {app:?} {} nodes {nodes}", os.label());
            assert_eq!(
                engine_digest(&fly),
                engine_digest(&eager),
                "{label}: flyweight vs eager node model"
            );
            assert_eq!(
                fly.kernel_profile.sorted_desc(),
                eager.kernel_profile.sorted_desc(),
                "{label}: kernel syscall profile"
            );
        }
    }

    // Worker sweep: both node models are worker-count-invariant and
    // equal to each other at every thread count.
    let shape = JobShape {
        nodes: 4,
        ranks_per_node: 2,
    };
    let mut cfg = ClusterConfig::paper(OsConfig::McKernelHfi, shape);
    cfg.batch_fabric = FabricMode::Incast;
    cfg.engine = EngineMode::Sharded;
    cfg.record_per_rank = true;
    cfg.shards = Some(4);
    let run = |threads: usize, eager: bool| {
        let mut c = cfg.clone();
        c.threads = Some(threads);
        c.eager_node_model = eager;
        engine_digest(&World::new(c, App::Umt2013, 2).run())
    };
    let reference = run(1, true);
    for threads in [1usize, 2, 4, 8] {
        assert_eq!(
            run(threads, false),
            reference,
            "flyweight, {threads} threads"
        );
        assert_eq!(run(threads, true), reference, "eager, {threads} threads");
    }
}

/// Toy-scale first-touch coverage: a flyweight node dragged through
/// *every* syscall and offload path — device open / 6 device mmaps /
/// close, scratch mmap + munmap churn (Qbox materializes the shared
/// frame pool and address spaces), TID programming and SDMA writev
/// (UMT exercises the fast path's read-only walks over shared tables),
/// completion callbacks through the shared callback table, and backed
/// payloads end to end — finishes bit-identical to an eagerly booted
/// node, in every OS configuration, on the single-queue reference
/// engine.
#[test]
fn flyweight_first_touch_paths_match_eager() {
    use pico_apps::{App, JobShape};
    use pico_cluster::{ClusterConfig, OsConfig, World};

    let shape = JobShape {
        nodes: 2,
        ranks_per_node: 2,
    };
    // Qbox: mmap/munmap churn (frame-pool + page-table materialization,
    // TLB shootdowns). UMT: SDMA pipeline, TID registration, LWK block
    // pool and cross-kernel completion callbacks. PingPong (backed):
    // real payloads through PIO and the receive copy-out.
    let apps = [
        (App::Qbox, 1u32),
        (App::Umt2013, 2),
        (
            App::PingPong {
                bytes: 64 * 1024,
                reps: 4,
            },
            2,
        ),
    ];
    for (app, iters) in apps {
        for os in OsConfig::ALL {
            let mut cfg = ClusterConfig::paper(os, shape);
            cfg.record_per_rank = true;
            cfg.backed = true;
            assert!(!cfg.eager_node_model, "flyweight is the default");
            let mut eager_cfg = cfg.clone();
            eager_cfg.eager_node_model = true;
            let fly = World::new(cfg, app, iters).run();
            let eager = World::new(eager_cfg, app, iters).run();
            let label = format!("{app:?} {}", os.label());
            assert_eq!(fly.payload_errors, 0, "{label}");
            assert_eq!(
                engine_digest(&fly),
                engine_digest(&eager),
                "{label}: flyweight vs eager"
            );
            assert_eq!(
                fly.kernel_profile.sorted_desc(),
                eager.kernel_profile.sorted_desc(),
                "{label}: kernel syscall profile"
            );
            assert_eq!(
                fly.offload_queue_wait, eager.offload_queue_wait,
                "{label}: delegator queueing"
            );
        }
    }
}
