//! Engine throughput regression gate.
//!
//! Three measurements, written to `results/BENCH_sim.json`:
//!
//! 1. **Raw event-queue throughput** — events/sec through the timing-wheel
//!    [`EventQueue`] vs the reference binary-heap [`HeapEventQueue`], on a
//!    schedule/pop mix modeled on the cluster simulator's traffic (mostly
//!    near-future wakes and packet deliveries, same-timestamp storms, a
//!    tail of far-future timers). The wheel must hold a ≥2× advantage
//!    in the best of three interleaved wheel/heap rounds.
//! 2. **Fabric coalescing** — `FabricMode::Incast` against the
//!    per-packet reference: on a 4 MB rendezvous ping-pong wall time and
//!    arrival digest must match exactly with ≥20× fewer simulator events;
//!    on Qbox wall time within 0.1% with ≥5× fewer events; on the fan-in
//!    patterns bit-identical data-plane arrivals (8-node fan-in), ≥40×
//!    fewer events (18-node incast) and ≤N sinks (alltoall). Every
//!    comparison also requires the conserved quantities to match exactly
//!    and records the wall-time deviation next to its bound.
//! 3. **End-to-end sweep wall time** — the Figure 6a UMT2013 weak-scaling
//!    sweep (1..8 nodes), the simulator's own events/sec included.
//!
//! Run with `cargo run --release -p pico-bench --bin simbench`. Pass
//! `--smoke` for the reduced CI variant: smaller churn and sweep, same
//! gates (every run still asserts `clamped_events == 0`). Pass `--full`
//! for the nightly superset: the 256-node sharded-engine speedup gate
//! (≥2× wall clock at 4+ workers over the same engine's single-worker
//! walk), the 1024/4096/16384/65536-node weak-scaling sweep with
//! per-run peak memory, the streaming-stat memory gate (resident stat
//! bytes at 1024 nodes must sit ≥4× below the per-rank-vector layout
//! the sketches replaced), the shard-local state gate (resident
//! fabric+node state at 4096 nodes must be equal at 4 and 64 shards and
//! sit ≥8× below the analytic O(shards × total_nodes) layout), and
//! the node-model gate (the flyweight template-boot model at 16,384
//! nodes must pay ≥4× less peak heap and build its world ≥3× faster
//! than the eager per-node boot, bit-identical digests).

use pico_apps::App;
use pico_cluster::{paper_config, run_app, EngineMode, FabricMode, OsConfig, RunResult, World};
use pico_sim::memalloc::{self, CountingAlloc};
use pico_sim::{default_threads, EventQueue, HeapEventQueue, Json, Ns, Rng, WheelProfile};
use std::hint::black_box;
use std::time::Instant;

/// Counting allocator: the scale sweep reports true per-run peak heap
/// (`RunResult::peak_alloc_bytes`), not just the accounted stat bytes.
/// The counter is a pair of relaxed atomics over the system allocator —
/// noise on the timed gates is negligible next to run-to-run variance.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// One synthetic churn round: `n` live events, `total` schedule+pop pairs.
///
/// The traffic mix mirrors the cluster hot loop: ~70% of schedules land
/// within a few microseconds (wakes, packet hops), ~20% are same-timestamp
/// storms (collective fan-out), ~10% are far-future timers (noise ticks).
fn churn_wheel(n: usize, total: u64, seed: u64) -> (f64, u64, WheelProfile, (usize, usize)) {
    let mut q: EventQueue<u32> = EventQueue::new();
    let mut rng = Rng::new(seed);
    for i in 0..n {
        q.schedule(Ns(rng.gen_range(4096)), i as u32);
    }
    let start = Instant::now();
    let mut processed = 0u64;
    while processed < total {
        let (t, ev) = q.pop().expect("queue never empties");
        black_box(ev);
        let dt = match rng.gen_range(10) {
            0..=6 => rng.gen_range(3000) + 1,
            7..=8 => 0,
            _ => 100_000 + rng.gen_range(2_000_000),
        };
        q.schedule(Ns(t.0 + dt), ev);
        processed += 1;
    }
    let secs = start.elapsed().as_secs_f64();
    (
        processed as f64 / secs,
        q.events_processed(),
        *q.profile(),
        q.occupancy(),
    )
}

/// Dump the wheel's placement counters, page-span histogram, and final
/// slot occupancy from the churn run — the profile that motivated (and
/// now monitors) the coarse second level.
fn wheel_profile_dump(prof: &WheelProfile, occ: (usize, usize)) -> Json {
    let total = prof.total().max(1);
    let pct = |c: u64| 100.0 * c as f64 / total as f64;
    println!(
        "wheel profile: run {:.1}% cur {:.1}% fine {:.1}% coarse {:.1}% overflow {:.1}% ({} schedules)",
        pct(prof.sched_run),
        pct(prof.sched_cur),
        pct(prof.sched_fine),
        pct(prof.sched_coarse),
        pct(prof.sched_overflow),
        prof.total(),
    );
    let last = prof.span_hist.iter().rposition(|&c| c > 0).unwrap_or(0);
    print!("  page-span log2 hist:");
    for (i, &c) in prof.span_hist.iter().take(last + 1).enumerate() {
        print!(" {i}:{c}");
    }
    println!();
    println!(
        "  final occupancy: {} fine slots, {} coarse buckets",
        occ.0, occ.1
    );
    Json::obj([
        ("sched_run", Json::UInt(prof.sched_run)),
        ("sched_cur", Json::UInt(prof.sched_cur)),
        ("sched_fine", Json::UInt(prof.sched_fine)),
        ("sched_coarse", Json::UInt(prof.sched_coarse)),
        ("sched_overflow", Json::UInt(prof.sched_overflow)),
        (
            "span_hist",
            Json::Arr(
                prof.span_hist
                    .iter()
                    .take(last + 1)
                    .map(|&c| Json::UInt(c))
                    .collect(),
            ),
        ),
        ("occupied_fine_slots", Json::UInt(occ.0 as u64)),
        ("occupied_coarse_buckets", Json::UInt(occ.1 as u64)),
    ])
}

/// Same churn against the reference heap (same seed → same event stream).
fn churn_heap(n: usize, total: u64, seed: u64) -> f64 {
    let mut q: HeapEventQueue<u32> = HeapEventQueue::new();
    let mut rng = Rng::new(seed);
    for i in 0..n {
        q.schedule(Ns(rng.gen_range(4096)), i as u32);
    }
    let start = Instant::now();
    let mut processed = 0u64;
    while processed < total {
        let (t, ev) = q.pop().expect("queue never empties");
        black_box(ev);
        let dt = match rng.gen_range(10) {
            0..=6 => rng.gen_range(3000) + 1,
            7..=8 => 0,
            _ => 100_000 + rng.gen_range(2_000_000),
        };
        q.schedule(Ns(t.0 + dt), ev);
        processed += 1;
    }
    processed as f64 / start.elapsed().as_secs_f64()
}

/// The quantities coalescing must conserve exactly against the
/// per-packet reference: ranks finished, payloads delivered, fabric
/// bytes and messages, PIO sends, TID programs, offloaded syscalls.
fn conserved(r: &RunResult) -> [u64; 7] {
    [
        r.ranks_done as u64,
        r.delivered_payloads,
        r.fabric_bytes,
        r.fabric_messages,
        r.pio_sends,
        r.tid_programs,
        r.offloaded_calls,
    ]
}

/// Signed wall-time deviation of `r` from the per-packet `reference`,
/// as a fraction of the reference wall time.
fn wall_dev(r: &RunResult, reference: &RunResult) -> f64 {
    (r.wall_time.0 as f64 - reference.wall_time.0 as f64) / reference.wall_time.0.max(1) as f64
}

/// Run `app` under `cfg` twice — `FabricMode::Incast` and the
/// `FabricMode::PerPacket` reference — and return `(incast, reference)`,
/// with zero clamped events asserted on both.
fn against_reference(
    label: &str,
    cfg: pico_cluster::ClusterConfig,
    app: App,
    iters: u32,
) -> (RunResult, RunResult) {
    let mut sinks = cfg;
    sinks.batch_fabric = FabricMode::Incast;
    let mut off = sinks.clone();
    off.batch_fabric = FabricMode::PerPacket;
    let ri = run_app(sinks, app, iters);
    let roff = run_app(off, app, iters);
    assert_eq!(ri.clamped_events, 0, "{label}: incast run clamped events");
    assert_eq!(
        roff.clamped_events, 0,
        "{label}: reference run clamped events"
    );
    (ri, roff)
}

/// Print a gate failure and exit non-zero.
fn regression(msg: String) -> ! {
    eprintln!("REGRESSION: {msg}");
    std::process::exit(1);
}

/// "EQ" / "NE" for a printed equality check.
fn eq_label(eq: bool) -> &'static str {
    if eq {
        "EQ"
    } else {
        "NE"
    }
}

/// The coalescing gate: `Incast` vs the per-packet reference on a 4 MB
/// rendezvous ping-pong. The wall time and the full arrival digest must
/// equal the reference exactly, the conserved quantities too, and the
/// coalesced run must spend ≥20× fewer queue events. Returns one JSON
/// row per OS config.
fn train_gate(reps: u32) -> Vec<Json> {
    let app = App::PingPong {
        bytes: 4 << 20,
        reps,
    };
    let mut rows = Vec::new();
    for os in OsConfig::ALL {
        let (ri, roff) = against_reference(os.label(), paper_config(os, app, 2, Some(1)), app, 1);
        let ratio = roff.sim_events as f64 / ri.sim_events as f64;
        let dev = wall_dev(&ri, &roff);
        let digest_match = ri.arrival_digest == roff.arrival_digest;
        let conserved_match = conserved(&ri) == conserved(&roff);
        println!(
            "coalescing gate {:14} {reps} reps: {} -> {} events ({ratio:.2}x, gate >= 20x), \
             wall dev {:+.4}% (gate: exact), arrival digest {} (gate: EQ), conserved {} \
             (gate: EQ), {} trains, {} members, max {}, {} soft",
            os.label(),
            roff.sim_events,
            ri.sim_events,
            dev * 100.0,
            eq_label(digest_match),
            eq_label(conserved_match),
            ri.fabric_trains,
            ri.fabric_train_members,
            ri.fabric_max_train,
            ri.soft_deliveries,
        );
        if ri.wall_time != roff.wall_time || !digest_match || !conserved_match {
            regression(format!(
                "coalesced ping-pong diverges from the per-packet reference ({os:?}): wall {} vs \
                 {}, digest {:#x} vs {:#x}",
                ri.wall_time, roff.wall_time, ri.arrival_digest, roff.arrival_digest
            ));
        }
        if ratio < 20.0 {
            regression(format!(
                "coalescing event reduction {ratio:.2}x below the 20x gate ({os:?})"
            ));
        }
        rows.push(Json::obj([
            ("os", Json::str(os.label())),
            ("reps", Json::UInt(reps as u64)),
            ("events_reference", Json::UInt(roff.sim_events)),
            ("events_incast", Json::UInt(ri.sim_events)),
            ("event_reduction_vs_reference", Json::Num(ratio)),
            ("fabric_trains", Json::UInt(ri.fabric_trains)),
            ("fabric_train_members", Json::UInt(ri.fabric_train_members)),
            ("fabric_max_train", Json::UInt(ri.fabric_max_train)),
            ("soft_deliveries", Json::UInt(ri.soft_deliveries)),
            ("fabric_resplits", Json::UInt(ri.fabric_resplits)),
            ("fabric_sink_pauses", Json::UInt(ri.fabric_sink_pauses)),
            ("wall_dev_vs_reference", Json::Num(dev)),
            ("wall_time_s", Json::Num(ri.wall_time.as_secs_f64())),
        ]));
    }
    rows
}

/// The Qbox resplit gate: Qbox is the workload whose overlapping
/// many-rank bursts resplit the most. Against the per-packet reference
/// the coalesced run must conserve every conserved quantity exactly,
/// stay within 0.1% of the reference wall time, and spend ≥5× fewer
/// queue events; resplits and lazy sink pauses are recorded.
fn qbox_resplit_gate(iters: u32) -> Json {
    let app = App::Qbox;
    let cfg = paper_config(OsConfig::McKernelHfi, app, 2, Some(8));
    let (ri, roff) = against_reference("qbox", cfg, app, iters);
    let ratio = roff.sim_events as f64 / ri.sim_events as f64;
    let dev = wall_dev(&ri, &roff);
    let conserved_match = conserved(&ri) == conserved(&roff);
    println!(
        "qbox gate {iters} iters: {} -> {} events ({ratio:.2}x, gate >= 5x), wall dev {:+.4}% \
         (gate: within 0.1%), conserved {} (gate: EQ), {} resplits, {} sink pauses, {} sinks, \
         max {}",
        roff.sim_events,
        ri.sim_events,
        dev * 100.0,
        eq_label(conserved_match),
        ri.fabric_resplits,
        ri.fabric_sink_pauses,
        ri.fabric_sinks,
        ri.fabric_max_sink,
    );
    if !conserved_match {
        regression(format!(
            "qbox conserved quantities diverge from the per-packet reference: {:?} vs {:?}",
            conserved(&ri),
            conserved(&roff)
        ));
    }
    if dev.abs() > 0.001 {
        regression(format!(
            "qbox wall {} deviates {:+.4}% from the reference {} (gate: 0.1%)",
            ri.wall_time,
            dev * 100.0,
            roff.wall_time
        ));
    }
    if ratio < 5.0 {
        regression(format!(
            "qbox event reduction {ratio:.2}x below the 5x gate"
        ));
    }
    Json::obj([
        ("app", Json::str("Qbox")),
        ("iters", Json::UInt(iters as u64)),
        ("events_reference", Json::UInt(roff.sim_events)),
        ("events_incast", Json::UInt(ri.sim_events)),
        ("event_reduction_vs_reference", Json::Num(ratio)),
        ("resplits", Json::UInt(ri.fabric_resplits)),
        ("sink_pauses", Json::UInt(ri.fabric_sink_pauses)),
        ("fabric_sinks", Json::UInt(ri.fabric_sinks)),
        ("fabric_max_sink", Json::UInt(ri.fabric_max_sink)),
        ("wall_dev_vs_reference", Json::Num(dev)),
        ("wall_reference_s", Json::Num(roff.wall_time.as_secs_f64())),
        ("wall_incast_s", Json::Num(ri.wall_time.as_secs_f64())),
    ])
}

/// The destination-rooted sink gate: `Incast` vs the per-packet
/// reference on the fan-in patterns the sink graph exists for. Three
/// fixed configs (same in smoke and full runs — the assertions are
/// behavioral, not timed), each required to conserve every conserved
/// quantity exactly:
///
/// 1. `fanin` — the classic (N−1)-to-1 incast at 8 nodes. Data-plane
///    arrivals must be bit-identical to the reference.
/// 2. `incast` — nine superimposed 9-to-1 fan-ins at 18 nodes, the
///    traffic shape of an alltoall round: must show ≥40× fewer queue
///    events. Its bulk digest differs from the reference (so did the
///    per-flush train and per-link flow models'); the tier-1 test
///    `fanin_digests_pinned` pins it instead.
/// 3. `alltoall` — one real alltoall(v) round at 8 nodes: the sinks
///    opened must stay ≤N, one per destination.
///
/// "Bit-identical" is asserted on [`arrival_digest_bulk`], the
/// commutative hash over every ≥1 KiB wire arrival: eager control
/// messages (barrier hops, rendezvous handshakes) ride the run-ahead
/// flush order that the sinks only approximate, so full-digest and wall
/// equality are only expected where control traffic happens to tie out
/// — the JSON rows record both, and the wall deviation, so trending can
/// watch them.
///
/// [`arrival_digest_bulk`]: pico_cluster::RunResult::arrival_digest_bulk
fn incast_gate() -> Vec<Json> {
    let bytes = 8 * 1024u64;
    // (pattern, app, nodes, ranks/node, linger, min event ratio,
    //  assert bulk-digest equality)
    let configs = [
        (
            "fanin",
            App::Incast {
                bytes,
                reps: 256,
                roots: 1,
            },
            8u32,
            Some(1),
            None,
            None,
            true,
        ),
        (
            "incast",
            App::Incast {
                bytes,
                reps: 64,
                roots: 9,
            },
            18,
            Some(1),
            Some(Ns::micros(4000)),
            Some(40.0),
            false,
        ),
        (
            "alltoall",
            App::Alltoall { bytes, reps: 8 },
            8,
            None,
            None,
            None,
            false,
        ),
    ];
    let mut rows = Vec::new();
    for (pattern, app, nodes, rpn, linger, min_ratio, want_digest) in configs {
        let mut cfg = paper_config(OsConfig::McKernelHfi, app, nodes, rpn);
        if let Some(lg) = linger {
            cfg.flow_linger_ns = lg;
        }
        let (ri, roff) = against_reference(pattern, cfg, app, 1);
        let ratio = roff.sim_events as f64 / ri.sim_events as f64;
        let dev = wall_dev(&ri, &roff);
        let bulk_match = ri.arrival_digest_bulk == roff.arrival_digest_bulk;
        let conserved_match = conserved(&ri) == conserved(&roff);
        let nn = nodes as u64;
        println!(
            "incast gate {pattern:8} {nodes:2} nodes: {} -> {} events ({ratio:.2}x, {}), {} sinks \
             (gate <= {nn}), {} members, max {}, {} pauses, bulk digest {} ({}), conserved {} \
             (gate: EQ), wall dev {:+.4}% (recorded, not gated)",
            roff.sim_events,
            ri.sim_events,
            min_ratio.map_or("not gated".to_string(), |m| format!("gate >= {m}x")),
            ri.fabric_sinks,
            ri.fabric_sink_members,
            ri.fabric_max_sink,
            ri.fabric_sink_pauses,
            eq_label(bulk_match),
            if want_digest { "gate: EQ" } else { "recorded" },
            eq_label(conserved_match),
            dev * 100.0,
        );
        if !conserved_match {
            regression(format!(
                "{pattern} conserved quantities diverge from the per-packet reference: {:?} vs \
                 {:?}",
                conserved(&ri),
                conserved(&roff)
            ));
        }
        if want_digest && !bulk_match {
            regression(format!(
                "{pattern} data-plane arrivals diverge between Incast and the per-packet \
                 reference (bulk digest {:#x} vs {:#x})",
                ri.arrival_digest_bulk, roff.arrival_digest_bulk
            ));
        }
        if let Some(min) = min_ratio {
            if ratio < min {
                regression(format!(
                    "{pattern} event reduction {ratio:.2}x below the {min}x gate vs the \
                     per-packet reference"
                ));
            }
        }
        if ri.fabric_sinks > nn {
            regression(format!(
                "{pattern} sinks must stay one per destination, <= {nn}, got {}",
                ri.fabric_sinks
            ));
        }
        rows.push(Json::obj([
            ("pattern", Json::str(pattern)),
            ("nodes", Json::UInt(nn)),
            ("events_reference", Json::UInt(roff.sim_events)),
            ("events_incast", Json::UInt(ri.sim_events)),
            ("event_reduction_vs_reference", Json::Num(ratio)),
            ("fabric_sinks", Json::UInt(ri.fabric_sinks)),
            ("fabric_sink_members", Json::UInt(ri.fabric_sink_members)),
            ("fabric_max_sink", Json::UInt(ri.fabric_max_sink)),
            ("fabric_sink_pauses", Json::UInt(ri.fabric_sink_pauses)),
            ("arrival_digest_bulk_match", Json::Bool(bulk_match)),
            (
                "arrival_digest_match",
                Json::Bool(ri.arrival_digest == roff.arrival_digest),
            ),
            ("wall_match", Json::Bool(ri.wall_time == roff.wall_time)),
            ("wall_dev_vs_reference", Json::Num(dev)),
            ("wall_time_s", Json::Num(ri.wall_time.as_secs_f64())),
        ]));
    }
    rows
}

/// One sharded UMT2013 run at `threads` workers; the config the
/// parallel gate and the weak-scaling smoke share.
fn sharded_umt(nodes: u32, rpn: u32, threads: Option<usize>) -> pico_cluster::ClusterConfig {
    let mut cfg = paper_config(OsConfig::McKernelHfi, App::Umt2013, nodes, Some(rpn));
    cfg.batch_fabric = FabricMode::Incast;
    cfg.engine = EngineMode::Sharded;
    cfg.threads = threads;
    cfg
}

/// Everything a worker count is forbidden to change, as one string:
/// the exact per-rank finish vector (the gate configs opt in via
/// `record_per_rank`), both streaming sketch digests, and the arrival
/// hashes.
fn sharded_digest(r: &RunResult) -> String {
    assert_eq!(r.clamped_events, 0, "parallel gate: clamped events");
    format!(
        "{:?}|{}|{}|{}|{:#x}|{:#x}|{:#x}|{:#x}|{:?}",
        r.wall_time,
        r.ranks_done,
        r.sim_events,
        r.fabric_sink_members,
        r.arrival_digest,
        r.arrival_digest_bulk,
        r.finish.digest(),
        r.arrival_latency.digest(),
        r.rank_finish,
    )
}

/// The node-sharded engine gate: the conservative-lookahead engine at
/// `hw.min(8)` workers against its own single-worker walk on a UMT2013
/// point — bit-identical results (always asserted), and when `enforce`
/// is set (the nightly 256-node run) at least a 2× wall-clock speedup
/// whenever the host grants 4+ workers. The smoke/default variants run
/// a smaller point and only report the ratio: short runs on loaded CI
/// hosts make wall-clock enforcement there pure noise.
fn parallel_gate(nodes: u32, iters: u32, enforce: bool) -> Json {
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let workers = hw.clamp(2, 8);
    // The digest compares exact per-rank finish times, not just the
    // sketch: opt in to the full vector for the gate runs.
    let gate_cfg = |threads: usize| {
        let mut cfg = sharded_umt(nodes, 2, Some(threads));
        cfg.record_per_rank = true;
        cfg
    };
    // Warmup: the first run pays the allocator and page-fault cost for
    // everyone after it; measuring it as the baseline would inflate the
    // speedup and hide regressions.
    run_app(gate_cfg(1), App::Umt2013, 1);
    let t0 = Instant::now();
    let serial = run_app(gate_cfg(1), App::Umt2013, iters);
    let serial_secs = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let par = run_app(gate_cfg(workers), App::Umt2013, iters);
    let par_secs = t1.elapsed().as_secs_f64();
    assert!(
        !serial.rank_finish.is_empty(),
        "parallel gate: record_per_rank must populate the exact vector"
    );
    assert_eq!(
        sharded_digest(&serial),
        sharded_digest(&par),
        "worker count changed sharded-engine results ({nodes} nodes)"
    );
    let speedup = serial_secs / par_secs;
    println!(
        "parallel gate ({nodes} nodes, {} shards): 1 worker {serial_secs:.2}s, \
         {workers} workers {par_secs:.2}s, {speedup:.2}x on {hw} host cores{}",
        par.shards,
        if enforce { "" } else { " (report only)" },
    );
    if enforce && hw >= 4 && speedup < 2.0 {
        eprintln!(
            "REGRESSION: sharded-engine speedup {speedup:.2}x below the 2x gate \
             ({nodes} nodes, {workers} workers)"
        );
        std::process::exit(1);
    }
    Json::obj([
        ("nodes", Json::UInt(nodes as u64)),
        ("iters", Json::UInt(iters as u64)),
        ("shards", Json::UInt(par.shards as u64)),
        ("workers", Json::UInt(workers as u64)),
        ("enforced", Json::Bool(enforce && hw >= 4)),
        ("serial_secs", Json::Num(serial_secs)),
        ("parallel_secs", Json::Num(par_secs)),
        ("speedup", Json::Num(speedup)),
        // The speedup is only meaningful next to the cores that ran it:
        // a 1-core host runs every worker on one core.
        ("host_cores", Json::UInt(hw as u64)),
        ("sim_events", Json::UInt(par.sim_events)),
        ("digest_match", Json::Bool(true)),
    ])
}

/// Weak-scaling sweep past the paper's 256-node ceiling: 1024-, 4096-,
/// 16,384- and 65,536-node sharded UMT2013 rounds must run to completion —
/// every rank finishes, nothing is clamped, no payload fails its
/// self-check. Guards the engine's bookkeeping (shard partition, inbox
/// routing, finish detection) at scales the equivalence tests never
/// reach, and records the per-run peak heap (`peak_alloc_bytes`, via
/// the counting allocator installed above), accounted resident stat
/// bytes (`stat_bytes`) and resident shard state
/// (`shard_state_bytes`) that benchdiff trends night over night.
fn weak_scaling_sweep() -> Vec<Json> {
    let mut rows = Vec::new();
    for nodes in [1024u32, 4096, 16384, 65536] {
        memalloc::reset_peak();
        // `reset_peak` at a quiet moment must not un-install the meter
        // (the inference bug the dedicated flag replaced).
        assert!(
            memalloc::installed(),
            "weak-scaling sweep: counting allocator not installed"
        );
        let t0 = Instant::now();
        let res = run_app(sharded_umt(nodes, 1, None), App::Umt2013, 1);
        let secs = t0.elapsed().as_secs_f64();
        assert_eq!(res.ranks_done, nodes, "weak-scaling sweep: ranks finished");
        assert_eq!(res.clamped_events, 0, "weak-scaling sweep: clamped events");
        assert_eq!(res.payload_errors, 0, "weak-scaling sweep: payload errors");
        // Sparse shard state: gates materialize once per node across
        // all shards, never once per node per shard.
        assert_eq!(
            res.shard_gate_nodes, nodes as u64,
            "weak-scaling sweep: remote gate state materialized"
        );
        println!(
            "weak-scaling sweep ({nodes} nodes, {} shards, {} threads): {} events in {secs:.2}s, \
             peak heap {:.1} MiB, stat bytes {}, shard state bytes {}",
            res.shards,
            res.threads,
            res.sim_events,
            res.peak_alloc_bytes as f64 / (1 << 20) as f64,
            res.stat_bytes,
            res.shard_state_bytes,
        );
        rows.push(Json::obj([
            ("nodes", Json::UInt(nodes as u64)),
            ("shards", Json::UInt(res.shards as u64)),
            ("threads", Json::UInt(res.threads as u64)),
            ("sim_events", Json::UInt(res.sim_events)),
            ("ranks_done", Json::UInt(res.ranks_done as u64)),
            ("wall_secs", Json::Num(secs)),
            ("peak_alloc_bytes", Json::UInt(res.peak_alloc_bytes)),
            ("stat_bytes", Json::UInt(res.stat_bytes)),
            ("shard_state_bytes", Json::UInt(res.shard_state_bytes)),
            ("shard_gate_nodes", Json::UInt(res.shard_gate_nodes)),
        ]));
    }
    rows
}

/// The streaming-stat memory gate: at 1024 nodes the resident stat
/// bytes of one run must sit ≥4× below the layout the sketches
/// replaced, where every shard carried five full-length per-rank
/// counter vectors (8 B each → 40 B × ranks × shards) and the result
/// path always materialized the per-rank finish vector (8 B × ranks).
/// The shard count is pinned (not left to the host-sized heuristic) so
/// the baseline — and with it the ratio — is host-independent.
fn stat_memory_gate() -> Json {
    let nodes = 1024u32;
    let shards = 16usize;
    let mut cfg = sharded_umt(nodes, 1, None);
    cfg.shards = Some(shards);
    let res = run_app(cfg, App::Umt2013, 1);
    assert_eq!(res.ranks_done, nodes, "stat gate: ranks finished");
    assert_eq!(res.shards as usize, shards, "stat gate: shard pin");
    let nranks = nodes as u64;
    let baseline = shards as u64 * nranks * 40 + nranks * 8;
    let ratio = baseline as f64 / res.stat_bytes.max(1) as f64;
    println!(
        "stat memory gate ({nodes} nodes, {shards} shards): {} stat bytes vs {baseline} \
         per-rank-vector baseline ({ratio:.1}x)",
        res.stat_bytes,
    );
    if ratio < 4.0 {
        eprintln!(
            "REGRESSION: resident stat bytes {} only {ratio:.1}x below the per-rank-vector \
             baseline {baseline} (gate: 4x) at {nodes} nodes",
            res.stat_bytes,
        );
        std::process::exit(1);
    }
    Json::obj([
        ("nodes", Json::UInt(nodes as u64)),
        ("shards", Json::UInt(shards as u64)),
        ("stat_bytes", Json::UInt(res.stat_bytes)),
        ("baseline_bytes", Json::UInt(baseline)),
        ("reduction", Json::Num(ratio)),
    ])
}

/// The shard-local state gate: at 4096 nodes, the resident fabric-gate
/// and node-state bytes summed over all shards must not depend on the
/// shard count — equal at 4 and at 64 pinned shards, because every
/// shard sizes its gates, `node_pending` maps and sink roots to its own
/// node range (a remote gate touch panics) — and must sit ≥8× below the
/// analytic O(shards × total_nodes) layout in which each of the 64
/// shards carries that state for the whole cluster (`shards × bytes`,
/// reported as `dense_state_bytes`). Each shard materializes gate state
/// for its own nodes only (`shard_gate_nodes == nodes`). The shard
/// counts are pinned so the baseline, and with it the ratio, is
/// host-independent.
fn shard_state_gate() -> Json {
    let nodes = 4096u32;
    let (few, shards) = (4usize, 64usize);
    let run = |nshards: usize| {
        let mut cfg = sharded_umt(nodes, 1, None);
        cfg.shards = Some(nshards);
        let res = run_app(cfg, App::Umt2013, 1);
        assert_eq!(res.ranks_done, nodes, "shard-state gate: ranks finished");
        assert_eq!(res.shards as usize, nshards, "shard-state gate: shard pin");
        assert_eq!(
            res.shard_gate_nodes, nodes as u64,
            "shard-state gate: {nshards} shards materialized remote gate state"
        );
        res.shard_state_bytes
    };
    let (few_bytes, bytes) = (run(few), run(shards));
    let dense = shards as u64 * bytes;
    let ratio = dense as f64 / bytes.max(1) as f64;
    println!(
        "shard-state gate ({nodes} nodes): {bytes} bytes at {shards} shards vs {few_bytes} at \
         {few} (bound: equal); {dense} dense-layout bytes, {ratio:.1}x (bound: >= 8x)",
    );
    if bytes != few_bytes {
        eprintln!(
            "REGRESSION: resident shard state depends on the shard count at {nodes} nodes: \
             {bytes} bytes at {shards} shards vs {few_bytes} at {few}"
        );
        std::process::exit(1);
    }
    if ratio < 8.0 {
        eprintln!(
            "REGRESSION: resident shard state {bytes} only {ratio:.1}x below the dense \
             O(shards x total_nodes) layout {dense} (gate: 8x) at {nodes} nodes / {shards} shards",
        );
        std::process::exit(1);
    }
    Json::obj([
        ("nodes", Json::UInt(nodes as u64)),
        ("shards", Json::UInt(shards as u64)),
        ("shard_state_bytes", Json::UInt(bytes)),
        ("dense_state_bytes", Json::UInt(dense)),
        ("reduction", Json::Num(ratio)),
        ("few_shards", Json::UInt(few as u64)),
        ("few_shards_state_bytes", Json::UInt(few_bytes)),
    ])
}

/// The flyweight node-model gate: one 16,384-node sharded UMT2013 point
/// built and run twice — the flyweight template-boot model (the
/// default) against the eager per-node reference
/// (`cfg.eager_node_model`). The two must agree bit-for-bit on the full
/// sharded digest (exact per-rank finishes, both sketch digests, both
/// arrival hashes) while the flyweight run pays ≥4× less peak heap and
/// constructs its `World` ≥3× faster. Construction is timed separately
/// from the event loop: template-boot cloning attacks the O(nodes) boot
/// wall-clock specifically (one DWARF port, one driver probe, one
/// address-space boot per OS config instead of per node), and the lazy
/// cold state attacks the per-node resident footprint (shared register
/// images, shared page tables, first-touch TID stores and block pools).
/// The shard count is pinned so both measurements are host-independent.
fn node_model_gate() -> Json {
    let nodes = 16_384u32;
    let shards = 64usize;
    let gate_cfg = |eager: bool| {
        let mut cfg = sharded_umt(nodes, 1, None);
        cfg.shards = Some(shards);
        cfg.record_per_rank = true;
        cfg.eager_node_model = eager;
        cfg
    };
    let measure = |eager: bool| {
        memalloc::reset_peak();
        assert!(
            memalloc::installed(),
            "node-model gate: counting allocator not installed"
        );
        let t0 = Instant::now();
        let world = World::new(gate_cfg(eager), App::Umt2013, 1);
        let build_secs = t0.elapsed().as_secs_f64();
        (build_secs, world.run())
    };
    let (fly_build, fly) = measure(false);
    let (eager_build, eager) = measure(true);
    assert_eq!(fly.ranks_done, nodes, "node-model gate: ranks finished");
    assert_eq!(fly.shards as usize, shards, "node-model gate: shard pin");
    assert_eq!(
        sharded_digest(&fly),
        sharded_digest(&eager),
        "node-model gate: flyweight model changed results at {nodes} nodes"
    );
    let peak_ratio = eager.peak_alloc_bytes as f64 / fly.peak_alloc_bytes.max(1) as f64;
    let build_speedup = eager_build / fly_build.max(1e-9);
    println!(
        "node-model gate ({nodes} nodes, {shards} shards): peak {:.1} MiB flyweight vs \
         {:.1} MiB eager ({peak_ratio:.1}x), build {fly_build:.2}s vs {eager_build:.2}s \
         ({build_speedup:.1}x, digests identical)",
        fly.peak_alloc_bytes as f64 / (1 << 20) as f64,
        eager.peak_alloc_bytes as f64 / (1 << 20) as f64,
    );
    if peak_ratio < 4.0 {
        eprintln!(
            "REGRESSION: flyweight peak heap {} only {peak_ratio:.1}x below the eager \
             model's {} (gate: 4x) at {nodes} nodes",
            fly.peak_alloc_bytes, eager.peak_alloc_bytes,
        );
        std::process::exit(1);
    }
    if build_speedup < 3.0 {
        eprintln!(
            "REGRESSION: flyweight world construction {fly_build:.2}s only \
             {build_speedup:.1}x faster than the eager boot's {eager_build:.2}s \
             (gate: 3x) at {nodes} nodes"
        );
        std::process::exit(1);
    }
    Json::obj([
        ("nodes", Json::UInt(nodes as u64)),
        ("shards", Json::UInt(shards as u64)),
        ("flyweight_peak_bytes", Json::UInt(fly.peak_alloc_bytes)),
        ("eager_peak_bytes", Json::UInt(eager.peak_alloc_bytes)),
        ("peak_reduction", Json::Num(peak_ratio)),
        ("flyweight_build_secs", Json::Num(fly_build)),
        ("eager_build_secs", Json::Num(eager_build)),
        ("build_speedup", Json::Num(build_speedup)),
        ("digest_match", Json::Bool(true)),
    ])
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let full = std::env::args().any(|a| a == "--full");
    let live = 4096usize;
    let total = if smoke { 400_000u64 } else { 4_000_000u64 };
    let seed = 0x51B0_BEEF;

    // Interleave the two once each for warmup, then measure
    // `QUEUE_ROUNDS` interleaved wheel/heap rounds and gate the best
    // round's ratio: one wall-clock ratio on a shared host swings by
    // ±20% run to run, while a real regression slows every round.
    const QUEUE_ROUNDS: usize = 3;
    churn_wheel(live, total / 8, seed);
    churn_heap(live, total / 8, seed);
    let mut best: Option<(f64, f64, f64)> = None;
    let mut wheel_run = None;
    for round in 1..=QUEUE_ROUNDS {
        let (wheel_eps, wheel_events, wheel_prof, wheel_occ) = churn_wheel(live, total, seed);
        let heap_eps = churn_heap(live, total, seed);
        assert!(wheel_events >= total);
        let ratio = wheel_eps / heap_eps;
        println!(
            "queue churn round {round}/{QUEUE_ROUNDS} ({live} live, {total} events): wheel \
             {:.2} Mev/s, heap {:.2} Mev/s, {ratio:.2}x",
            wheel_eps / 1e6,
            heap_eps / 1e6,
        );
        if best.is_none_or(|(r, ..)| ratio > r) {
            best = Some((ratio, wheel_eps, heap_eps));
        }
        // Same seed, same event stream: every round's profile is equal.
        wheel_run = Some((wheel_prof, wheel_occ));
    }
    let (speedup, wheel_eps, heap_eps) = best.expect("at least one round");
    println!("queue churn: best of {QUEUE_ROUNDS} rounds {speedup:.2}x (bound: >= 2x)");
    let (wheel_prof, wheel_occ) = wheel_run.expect("at least one round");
    let wheel_profile_row = wheel_profile_dump(&wheel_prof, wheel_occ);

    // Coalescing gates against the per-packet reference: ping-pong
    // wall- and digest-identical with ≥20× fewer events; Qbox within
    // 0.1% wall with ≥5× fewer events.
    let train_rows = train_gate(if smoke { 12 } else { 50 });
    let qbox_row = qbox_resplit_gate(if smoke { 2 } else { 5 });

    // Destination-rooted sink gates against the per-packet reference:
    // bit-identical data-plane arrivals on the 8-node fan-in, ≥40× fewer
    // events on the superimposed incast, ≤N sinks on the alltoall.
    let incast_rows = incast_gate();

    // Sharded-engine gates: worker-count determinism everywhere; the
    // ≥2× wall-clock speedup enforced on the nightly 256-node point;
    // the 1024/4096/16384/65536-node weak-scaling sweep, the
    // streaming-stat memory gate, the shard-state gate and the
    // flyweight node-model gate nightly only.
    let parallel_row = if full {
        parallel_gate(256, 2, true)
    } else {
        parallel_gate(if smoke { 24 } else { 64 }, 1, false)
    };
    let (weak_rows, stat_gate_row, shard_state_row, node_model_row) = if full {
        (
            weak_scaling_sweep(),
            Some(stat_memory_gate()),
            Some(shard_state_gate()),
            Some(node_model_gate()),
        )
    } else {
        (Vec::new(), None, None, None)
    };

    // End-to-end: Figure 6a sweep at small scale, wall time + sim throughput.
    let sweep_start = Instant::now();
    let mut sweep_rows = Vec::new();
    let sweep_nodes: &[u32] = if smoke { &[1, 2] } else { &[1, 2, 4, 8] };
    let sweep_iters = if smoke { 2 } else { 8 };
    for &nodes in sweep_nodes {
        for os in OsConfig::ALL {
            let cfg = paper_config(os, App::Umt2013, nodes, None);
            let res = run_app(cfg, App::Umt2013, sweep_iters);
            assert_eq!(res.clamped_events, 0, "hot loop scheduled into the past");
            sweep_rows.push(Json::obj([
                ("nodes", Json::UInt(nodes as u64)),
                ("os", Json::str(os.label())),
                ("sim_events", Json::UInt(res.sim_events)),
                ("events_per_sec", Json::Num(res.events_per_sec)),
                ("fabric_trains", Json::UInt(res.fabric_trains)),
                ("fabric_train_members", Json::UInt(res.fabric_train_members)),
                ("wall_time_s", Json::Num(res.wall_time.as_secs_f64())),
            ]));
        }
    }
    let sweep_secs = sweep_start.elapsed().as_secs_f64();
    println!(
        "fig6a-style sweep ({}..{} nodes, all OS configs): {sweep_secs:.2}s",
        sweep_nodes[0],
        sweep_nodes[sweep_nodes.len() - 1]
    );

    let doc = Json::obj([
        ("bench", Json::str("simbench")),
        ("smoke", Json::Bool(smoke)),
        ("full", Json::Bool(full)),
        // Host parallelism context: benchdiff refuses to trend two
        // artifacts whose worker counts differ (the sweep and parallel
        // rows are wall-clock figures).
        ("threads", Json::UInt(default_threads() as u64)),
        (
            "queue",
            Json::obj([
                ("live_events", Json::UInt(live as u64)),
                ("total_events", Json::UInt(total)),
                ("wheel_events_per_sec", Json::Num(wheel_eps)),
                ("heap_events_per_sec", Json::Num(heap_eps)),
                ("speedup", Json::Num(speedup)),
                ("rounds", Json::UInt(QUEUE_ROUNDS as u64)),
                ("wheel_profile", wheel_profile_row),
            ]),
        ),
        ("trains", Json::Arr(train_rows)),
        ("qbox_resplits", qbox_row),
        ("incast", Json::Arr(incast_rows)),
        ("parallel", parallel_row),
        ("weak_scaling", Json::Arr(weak_rows)),
        ("stat_gate", stat_gate_row.unwrap_or(Json::Null)),
        ("shard_state_gate", shard_state_row.unwrap_or(Json::Null)),
        ("node_model_gate", node_model_row.unwrap_or(Json::Null)),
        (
            "sweep",
            Json::obj([
                ("wall_time_s", Json::Num(sweep_secs)),
                ("runs", Json::Arr(sweep_rows)),
            ]),
        ),
    ]);
    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write("results/BENCH_sim.json", doc.to_string()).expect("write artifact");
    println!("wrote results/BENCH_sim.json");

    if speedup < 2.0 {
        eprintln!(
            "REGRESSION: wheel/heap speedup {speedup:.2}x (best of {QUEUE_ROUNDS} rounds) \
             below the 2x gate"
        );
        std::process::exit(1);
    }
}
