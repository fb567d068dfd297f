//! Reduced-scale self-test of the benchmark: every workload runs at a
//! tiny shape in both modes, passes its checks, and emits every named
//! metric with a valid name and unit. Also checks that `BENCHMARK.json`
//! names exactly the workloads and metrics the benchmark emits.
//!
//! Run with `cargo test --manifest-path perfbench/Cargo.toml`.

use pico_perfbench::workloads::{Scale, NAMES};
use pico_perfbench::{Options, Report, END_TO_END, PER_LAYER};
use pico_sim::Json;

#[global_allocator]
static ALLOC: pico_sim::memalloc::CountingAlloc = pico_sim::memalloc::CountingAlloc::new();

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.chars().next().unwrap().is_ascii_alphanumeric()
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn valid_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

fn tiny(workload: &str, trace: bool) -> Report {
    pico_perfbench::run(&Options {
        workload: workload.into(),
        seed: 3,
        seconds: 0.0,
        trace,
        scale: Scale::Tiny,
        trace_out: None,
    })
    .expect("known workload")
}

fn check_report(r: &Report, catalogue: &[(&str, &str)]) {
    assert!(r.correct(), "failed {} of {}", r.failed, r.attempted);
    assert!(r.attempted >= 1);
    let names: Vec<(&str, &str)> = r.metrics.iter().map(|m| (m.0, m.2)).collect();
    assert_eq!(names, catalogue);
    for (name, value, unit) in &r.metrics {
        assert!(valid_name(name), "bad metric name {name:?}");
        assert!(valid_unit(unit), "bad unit {unit:?} for {name}");
        assert!(value.is_finite() && *value >= 0.0, "{name} = {value}");
    }
    // The final line parses back with exactly the contract's keys.
    let j = Json::parse(&r.json_line()).expect("valid JSON");
    for key in ["correct", "attempted", "failed", "metrics"] {
        assert!(j.get(key).is_some(), "missing {key}");
    }
}

#[test]
fn every_workload_runs_untraced_at_tiny_scale() {
    for w in NAMES {
        let r = tiny(w, false);
        check_report(&r, &END_TO_END);
        for m in &r.metrics {
            assert!(m.1 > 0.0, "{w}: end-to-end metric {} is zero", m.0);
        }
    }
}

#[test]
fn every_workload_runs_traced_at_tiny_scale() {
    for w in NAMES {
        let r = tiny(w, true);
        check_report(&r, &PER_LAYER);
        for name in [
            "engine.queue_events",
            "engine.soft_dispatches",
            "engine.ns_per_dispatch",
            "engine.scale_ns_per_dispatch",
            "engine.dispatch_cost_growth",
            "engine.parallel_speedup",
            "fabric.messages",
            "mpi.calls",
            "driver.sdma_submit_ns",
            "trace.overhead",
        ] {
            assert!(r.get(name).unwrap() > 0.0, "{w}: {name} is zero");
        }
    }
}

#[test]
fn unknown_workload_is_an_error() {
    let opts = Options {
        workload: "nope".into(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        scale: Scale::Tiny,
        trace_out: None,
    };
    assert!(pico_perfbench::run(&opts).is_err());
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let j = Json::parse(&text).expect("BENCHMARK.json parses");
    let names = |key: &str| -> Vec<(String, String)> {
        j.get(key)
            .and_then(Json::as_arr)
            .expect(key)
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                (s("name"), s("unit"))
            })
            .collect()
    };
    let owned = |c: &[(&str, &str)]| -> Vec<(String, String)> {
        c.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names("end_to_end"), owned(&END_TO_END));
    assert_eq!(names("per_layer"), owned(&PER_LAYER));
    let workloads: Vec<String> = names("workloads").into_iter().map(|w| w.0).collect();
    assert_eq!(workloads, NAMES);
}
