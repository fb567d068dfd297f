//! # pico-perfbench — the repository benchmark
//!
//! One command runs a named workload for a fixed host-time budget,
//! checks every simulator run, and prints every metric by name with its
//! unit. It times only calls into public functions: `pico_apps::program`,
//! `World::new`, `World::run`, and the SDMA submit paths of the driver
//! layer. See `NOTES.md` beside this crate for the layer → metric →
//! workload map.
//!
//! * untraced mode (`--trace 0`) repeats the workload's runs and reports
//!   the end-to-end metrics over those repetitions;
//! * traced mode (`--trace 1`) repeats them again, alternating untraced
//!   and traced repetitions, adds the per-layer probes, and reports the
//!   per-layer metrics plus the tracing overhead.

pub mod measure;
pub mod replay;
pub mod trace;
pub mod workloads;

use measure::{run_once, Counts, RunOutcome};
use replay::{Length, SizeSet};
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::Tracer;
use workloads::{RunSpec, Scale, Workload};

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: [(&str, &str); 3] =
    [("run_s", "s"), ("setup_s", "s"), ("peak_heap_mib", "MiB")];

/// Per-layer metrics (`--trace 1`): name and unit.
pub const PER_LAYER: [(&str, &str); 28] = [
    ("engine.queue_events", "count"),
    ("engine.soft_dispatches", "count"),
    ("engine.wheel_overflow", "count"),
    ("engine.ns_per_dispatch", "ns"),
    ("engine.scale_ns_per_dispatch", "ns"),
    ("engine.dispatch_cost_growth", "ratio"),
    ("engine.parallel_speedup", "ratio"),
    ("fabric.messages", "count"),
    ("fabric.bytes", "B"),
    ("fabric.sinks", "count"),
    ("fabric.sink_members", "count"),
    ("fabric.sink_pauses", "count"),
    ("fabric.members_per_soft_dispatch", "ratio"),
    ("fabric.pauses_per_sink", "ratio"),
    ("psm.pio_sends", "count"),
    ("mpi.calls", "count"),
    ("mpi.sim_share", "ratio"),
    ("ihk.offloaded_calls", "count"),
    ("ihk.offload_wait_us", "us"),
    ("hfi1.tid_programs", "count"),
    ("kernel.syscalls", "count"),
    ("kernel.sim_share", "ratio"),
    ("driver.sdma_submit_ns", "ns"),
    ("setup.program_s", "s"),
    ("mem.shard_state_bytes", "B"),
    ("mem.stat_bytes", "B"),
    ("trace.overhead", "ratio"),
    ("host.nproc", "count"),
];

/// Repetitions every mode makes at least, whatever the time budget.
const MIN_PASSES: usize = 3;
/// Untraced/traced repetition pairs the traced mode makes at least.
const MIN_PAIRS: usize = 2;
/// Host time spent replaying each `(os, size)` submit pair.
const REPLAY_PER_PAIR: Duration = Duration::from_millis(40);
/// Calls per `(os, size)` pair in the traced replay.
const TRACED_REPLAY_CALLS: u64 = 256;

/// What to run.
#[derive(Clone, Debug)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Directory the traced run writes its spans to (`None`: not written).
    pub trace_out: Option<PathBuf>,
}

/// The benchmark's result: the final JSON line's content.
#[derive(Clone, Debug)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }
}

const MIB: f64 = (1u64 << 20) as f64;

/// Host parallelism, recorded beside every timing.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// Smallest of `v` (0 when empty). Host times report the fastest
/// repetition: load from other tenants of a shared host only ever adds
/// time, and it comes and goes within seconds, so the fastest repetition
/// is the steadiest estimate of the program's own cost.
fn min_of(v: impl Iterator<Item = f64>) -> f64 {
    let m = v.fold(f64::INFINITY, f64::min);
    if m.is_finite() {
        m
    } else {
        0.0
    }
}

/// Smallest `f` over `passes`.
fn fastest(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    min_of(passes.iter().map(f))
}

/// `World::run` time of a pass, each run taken at its fastest over
/// `passes`: the shorter a timed call, the likelier one repetition of it
/// ran while the host was quiet.
fn fastest_runs(passes: &[Pass]) -> f64 {
    let n = passes.first().map_or(0, |p| p.run_times.len());
    (0..n)
        .map(|i| min_of(passes.iter().map(|p| p.run_times[i])))
        .sum()
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn threads(spec: &RunSpec) -> usize {
    spec.cfg.threads.unwrap_or(1)
}

/// Runs attempted and failed, and the exact outputs every later run of
/// the same spec must reproduce.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    reference: HashMap<String, Counts>,
}

impl Tally {
    /// Count a run; print and count it as failed if it errored or its
    /// outputs differ from the first run of the same spec.
    fn record(&mut self, spec: &RunSpec, res: Result<RunOutcome, String>) -> Option<RunOutcome> {
        self.attempted += 1;
        let fail = |t: &mut Tally, why: String| {
            t.failed += 1;
            println!("FAILED {} threads={}: {why}", spec.label, threads(spec));
            None
        };
        let o = match res {
            Ok(o) => o,
            Err(e) => return fail(self, e),
        };
        match self.reference.get(&spec.label) {
            Some(r) if *r != o.counts => {
                let why = format!("outputs differ from the first run: {r:?} vs {:?}", o.counts);
                fail(self, why)
            }
            Some(_) => Some(o),
            None => {
                let c = &o.counts;
                println!(
                    "run {} threads={}: sim_wall_ns={} finish_digest={:#018x} arrival_digest={:#018x} \
                     arrival_digest_bulk={:#018x} peak_heap_mib={:.3}",
                    spec.label,
                    threads(spec),
                    c.sim_wall_ns,
                    c.finish_digest,
                    c.arrival_digest,
                    c.arrival_digest_bulk,
                    o.peak_bytes as f64 / MIB
                );
                self.reference.insert(spec.label.clone(), o.counts.clone());
                Some(o)
            }
        }
    }
}

/// Host time of one repetition of a workload, summed over its runs.
#[derive(Clone, Debug, Default)]
struct Pass {
    program_s: f64,
    setup_s: f64,
    run_s: f64,
    /// `World::run` time of each run (infinite when the run failed).
    run_times: Vec<f64>,
    /// Largest heap peak of any configuration, each configuration's peak
    /// averaged over the seeds the pass runs it with.
    peak_bytes: f64,
}

impl Pass {
    fn total_s(&self) -> f64 {
        self.program_s + self.setup_s + self.run_s
    }
}

/// One repetition of `runs`, grouped `seeds` to a configuration. With
/// `time_programs`, each rank's program is also generated through
/// `pico_apps::program` and timed.
fn pass(
    runs: &[RunSpec],
    seeds: usize,
    tally: &mut Tally,
    tracer: &mut Tracer,
    time_programs: bool,
) -> Pass {
    let mut p = Pass::default();
    let mut group_peak = 0.0;
    tracer.enter("bench.pass");
    for (i, spec) in runs.iter().enumerate() {
        tracer.enter("bench.run");
        if time_programs {
            let t = Instant::now();
            for rank in 0..spec.nranks() {
                let prog = tracer.span("apps.program", || {
                    pico_apps::program(spec.app, spec.cfg.shape, spec.iters, rank)
                });
                std::hint::black_box(prog);
            }
            p.program_s += t.elapsed().as_secs_f64();
        }
        let res = run_once(spec, tracer);
        tracer.exit();
        match tally.record(spec, res) {
            Some(o) => {
                p.setup_s += o.setup_s;
                p.run_s += o.run_s;
                p.run_times.push(o.run_s);
                group_peak += o.peak_bytes as f64 / seeds as f64;
            }
            None => p.run_times.push(f64::INFINITY),
        }
        if (i + 1) % seeds == 0 {
            p.peak_bytes = p.peak_bytes.max(group_peak);
            group_peak = 0.0;
        }
    }
    tracer.exit();
    p
}

/// Run `spec` `reps` times; its fastest `World::run` time.
fn probe(spec: &RunSpec, reps: usize, tally: &mut Tally, tracer: &mut Tracer) -> f64 {
    min_of((0..reps).filter_map(|_| {
        let res = run_once(spec, tracer);
        tally.record(spec, res).map(|o| o.run_s)
    }))
}

/// Repeat `step` until the next repetition would overrun `budget`
/// (always at least `min` times).
fn repeat<T>(budget: f64, min: usize, mut step: impl FnMut() -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    loop {
        out.push(step());
        let spent = start.elapsed().as_secs_f64();
        let next = spent / out.len() as f64;
        if out.len() >= min && spent + next > budget {
            return out;
        }
    }
}

/// Run the benchmark as `opts` asks.
pub fn run(opts: &Options) -> Result<Report, String> {
    let wl = workloads::workload(&opts.workload, opts.seed, opts.scale).ok_or_else(|| {
        format!(
            "unknown workload {:?} (known: {})",
            opts.workload,
            workloads::NAMES.join(", ")
        )
    })?;
    println!(
        "workload {} seed={} seconds={} trace={} nproc={} runs/pass={}",
        wl.name,
        opts.seed,
        opts.seconds,
        opts.trace as u8,
        nproc(),
        wl.runs.len()
    );
    if opts.trace {
        Ok(traced(&wl, opts))
    } else {
        Ok(untraced(&wl, opts))
    }
}

fn untraced(wl: &Workload, opts: &Options) -> Report {
    let mut tally = Tally::default();
    let mut tracer = Tracer::new(false);
    let passes = repeat(opts.seconds, MIN_PASSES, || {
        let p = pass(&wl.runs, wl.seeds, &mut tally, &mut tracer, false);
        println!(
            "pass: run_s={:.6} setup_s={:.6} peak_heap_mib={:.3} nproc={}",
            p.run_s,
            p.setup_s,
            p.peak_bytes / MIB,
            nproc()
        );
        p
    });
    let run_s = fastest_runs(&passes);
    let run_times: Vec<f64> = passes.iter().map(|p| p.run_s).collect();
    let setup_s = median(&passes.iter().map(|p| p.setup_s).collect::<Vec<_>>());
    let peak = passes.iter().map(|p| p.peak_bytes).fold(0.0, f64::max);
    let peak_heap_mib = peak / MIB;
    println!(
        "{}: passes={} run_s={run_s:.6} (median {:.6}, slowest {:.6}) setup_s={setup_s:.6} \
         peak_heap_mib={peak_heap_mib:.3} runs_failed={}/{} nproc={}",
        wl.name,
        passes.len(),
        median(&run_times),
        run_times.iter().fold(0.0, |a: f64, &b| a.max(b)),
        tally.failed,
        tally.attempted,
        nproc()
    );
    let vals = [run_s, setup_s, peak_heap_mib];
    Report {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: END_TO_END
            .iter()
            .zip(vals)
            .map(|(&(n, u), v)| (n, v, u))
            .collect(),
    }
}

fn traced(wl: &Workload, opts: &Options) -> Report {
    let mut tally = Tally::default();
    let mut tracer = Tracer::new(false);

    // Alternate untraced and traced repetitions of the same calls.
    let pairs = repeat(opts.seconds, MIN_PAIRS, || {
        tracer.set_enabled(false);
        let plain = pass(&wl.runs, wl.seeds, &mut tally, &mut tracer, true);
        tracer.set_enabled(true);
        let traced = pass(&wl.runs, wl.seeds, &mut tally, &mut tracer, true);
        tracer.set_enabled(false);
        println!(
            "pass pair: untraced_s={:.6} traced_s={:.6} nproc={}",
            plain.total_s(),
            traced.total_s(),
            nproc()
        );
        (plain, traced)
    });
    let npairs = pairs.len();
    let (plain, traced): (Vec<Pass>, Vec<Pass>) = pairs.into_iter().unzip();
    let run_s = fastest_runs(&plain);
    let program_s = fastest(&plain, |p| p.program_s);
    let overhead = ratio(
        fastest(&traced, Pass::total_s),
        fastest(&plain, Pass::total_s),
    );
    let c = Counts::sum(wl.runs.iter().filter_map(|s| tally.reference.get(&s.label)));
    let ns_per_dispatch = ratio(run_s * 1e9, c.dispatches() as f64);

    // Scale probe: UMT2013 weak scaling at 8192 and at 1024 nodes, and at
    // 8192 nodes on 2 workers with outputs required identical.
    let big = workloads::scale_probe(opts.seed, opts.scale);
    let small = big.scaled_down();
    let two = big.with_workers(2);
    let big_s = probe(&big, 2, &mut tally, &mut tracer);
    let small_s = probe(&small, 10, &mut tally, &mut tracer);
    let two_s = probe(&two, 1, &mut tally, &mut tracer);
    let ns_at = |spec: &RunSpec, secs: f64| {
        let d = tally
            .reference
            .get(&spec.label)
            .map_or(0, Counts::dispatches);
        ratio(secs * 1e9, d as f64)
    };
    let scale_ns = ns_at(&big, big_s);
    let growth = ratio(scale_ns, ns_at(&small, small_s));
    let speedup = ratio(big_s, two_s);
    println!(
        "scale probe: {} nodes {big_s:.6}s ({scale_ns:.1} ns/dispatch), {} nodes {small_s:.6}s, \
         growth {growth:.4}; 2 workers {two_s:.6}s, speedup {speedup:.4} nproc={}",
        big.cfg.shape.nodes,
        small.cfg.shape.nodes,
        nproc()
    );

    // Driver replay at the workload's rendezvous sizes.
    let mut sizes = SizeSet::default();
    for spec in &wl.runs {
        for rank in 0..spec.nranks() {
            sizes.add_program(&pico_apps::program(
                spec.app,
                spec.cfg.shape,
                spec.iters,
                rank,
            ));
        }
    }
    let mut oses = Vec::new();
    for s in &wl.runs {
        if !oses.contains(&s.cfg.os) {
            oses.push(s.cfg.os);
        }
    }
    let sdma_ns = replay::sdma_submit_ns(
        &oses,
        sizes.replay_sizes(),
        Length::Time(REPLAY_PER_PAIR),
        &mut tracer,
    );
    println!(
        "driver replay: sizes={:?} ({}) {sdma_ns:.3} ns/call nproc={}",
        sizes.replay_sizes(),
        if sizes.rendezvous.is_empty() {
            "eager"
        } else {
            "rendezvous"
        },
        nproc()
    );
    tracer.set_enabled(true);
    replay::sdma_submit_ns(
        &oses,
        sizes.replay_sizes(),
        Length::Calls(TRACED_REPLAY_CALLS),
        &mut tracer,
    );
    tracer.set_enabled(false);

    write_spans(&tracer, wl, opts);
    println!(
        "{}: pairs={} run_s={run_s:.6} trace_overhead={overhead:.4} runs_failed={}/{} nproc={}",
        wl.name,
        npairs,
        tally.failed,
        tally.attempted,
        nproc()
    );

    let vals: [f64; PER_LAYER.len()] = [
        c.queue_events as f64,
        c.soft_dispatches as f64,
        c.wheel_overflow as f64,
        ns_per_dispatch,
        scale_ns,
        growth,
        speedup,
        c.fabric_messages as f64,
        c.fabric_bytes as f64,
        c.sinks as f64,
        c.sink_members as f64,
        c.sink_pauses as f64,
        ratio(c.sink_members as f64, c.soft_dispatches as f64),
        ratio(c.sink_pauses as f64, c.sinks as f64),
        c.pio_sends as f64,
        c.mpi_calls as f64,
        ratio(c.mpi_ns as f64, c.rank_wall_ns()),
        c.offloaded_calls as f64,
        c.offload_wait_ns as f64 / 1e3,
        c.tid_programs as f64,
        c.syscalls as f64,
        ratio(c.kernel_ns as f64, c.rank_wall_ns()),
        sdma_ns,
        program_s,
        c.shard_state_bytes as f64,
        c.stat_bytes as f64,
        overhead,
        nproc() as f64,
    ];
    Report {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: PER_LAYER
            .iter()
            .zip(vals)
            .map(|(&(n, u), v)| (n, v, u))
            .collect(),
    }
}

/// Print per-name span totals with self time, and write every span to
/// `<trace_out>/spans-<workload>-seed<seed>.jsonl`.
fn write_spans(tracer: &Tracer, wl: &Workload, opts: &Options) {
    for (name, t) in tracer.totals() {
        println!(
            "span {name}: count={} total_s={:.6} self_s={:.6}",
            t.count,
            t.total_ns as f64 / 1e9,
            t.self_ns as f64 / 1e9
        );
    }
    let Some(dir) = &opts.trace_out else { return };
    let path = dir.join(format!("spans-{}-seed{}.jsonl", wl.name, opts.seed));
    match std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, tracer.to_json_lines())) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let r = Report {
            attempted: 2,
            failed: 0,
            metrics: vec![("run_s", 1.25, "s"), ("x", f64::NAN, "ratio")],
        };
        let j = pico_sim::Json::parse(&r.json_line()).unwrap();
        assert_eq!(j.get("correct").and_then(|v| v.as_bool()), Some(true));
        assert_eq!(j.get("attempted").and_then(|v| v.as_f64()), Some(2.0));
        let m = j.get("metrics").unwrap();
        assert_eq!(
            m.get("run_s")
                .and_then(|v| v.get("value"))
                .and_then(|v| v.as_f64()),
            Some(1.25)
        );
        assert_eq!(
            m.get("x")
                .and_then(|v| v.get("value"))
                .and_then(|v| v.as_f64()),
            Some(0.0)
        );
    }
}
