//! The named workloads. Every run pins its partition (`shards` and
//! `threads` set explicitly, never taken from `auto_shard_count` or
//! `PICO_THREADS`), so digests and counts do not depend on the host.

use pico_apps::App;
use pico_cluster::{paper_config, ClusterConfig, EngineMode, FabricMode, OsConfig};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 2] = ["incast", "paper-8n"];

/// Full size for the benchmark proper; tiny for the self-test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// One simulator run: a configuration, an app and its iteration count.
#[derive(Clone, Debug)]
pub struct RunSpec {
    pub label: String,
    pub cfg: ClusterConfig,
    pub app: App,
    pub iters: u32,
}

impl RunSpec {
    fn new(mut cfg: ClusterConfig, app: App, iters: u32, seed: u64) -> RunSpec {
        cfg.seed = seed;
        // The label names everything but the worker count, which must
        // not change a run's outputs.
        let label = format!(
            "{}/{} {}x{} iters={} shards={} seed={}",
            app.name(),
            cfg.os.label(),
            cfg.shape.nodes,
            cfg.shape.ranks_per_node,
            iters,
            cfg.shards.unwrap_or(1),
            seed,
        );
        RunSpec {
            label,
            cfg,
            app,
            iters,
        }
    }

    pub fn nranks(&self) -> u32 {
        self.cfg.shape.nranks()
    }

    /// The same run at an eighth of the nodes (at least 2), for the
    /// per-dispatch cost growth.
    pub fn scaled_down(&self) -> RunSpec {
        let mut cfg = self.cfg.clone();
        cfg.shape.nodes = (cfg.shape.nodes / 8).max(2);
        if let Some(s) = cfg.shards {
            cfg.shards = Some(s.min(cfg.shape.nodes as usize));
        }
        RunSpec::new(cfg, self.app, self.iters, self.cfg.seed)
    }

    /// The same run on `threads` workers. Its outputs must not change.
    pub fn with_workers(&self, threads: usize) -> RunSpec {
        let mut cfg = self.cfg.clone();
        cfg.threads = Some(threads);
        RunSpec::new(cfg, self.app, self.iters, self.cfg.seed)
    }
}

/// A named workload: the runs one pass makes.
#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Runs grouped by configuration: `seeds` consecutive runs share a
    /// configuration and differ only in the seed.
    pub runs: Vec<RunSpec>,
    pub seeds: usize,
}

/// Seeds one `incast` pass runs.
const INCAST_SEEDS: u64 = 8;

/// The `i`-th of `n` seeds derived from workload seed `seed`.
fn sub_seed(seed: u64, i: u64, n: u64) -> u64 {
    seed.wrapping_mul(n).wrapping_add(i)
}

fn pin(cfg: &mut ClusterConfig, engine: EngineMode, shards: usize) {
    cfg.batch_fabric = FabricMode::Incast;
    cfg.engine = engine;
    cfg.shards = Some(shards);
    cfg.threads = Some(1);
}

/// The scale probe every traced run makes: UMT2013 weak scaling on
/// McKernel+HFI1, 8192 nodes × 1 rank/node, sharded engine, 4 shards, 1
/// worker. Host time here goes to the engine's soft schedule and to sink
/// pause/continuation, and the cost per dispatch grows with node count.
/// It is a probe, not a workload: its host time is memory-bound and
/// moved by up to 1.5× with other tenants' load on a shared host, too
/// much for an end-to-end bound.
pub fn scale_probe(seed: u64, scale: Scale) -> RunSpec {
    let nodes = if scale == Scale::Tiny { 64 } else { 8192 };
    let mut cfg = paper_config(OsConfig::McKernelHfi, App::Umt2013, nodes, Some(1));
    pin(&mut cfg, EngineMode::Sharded, 4);
    RunSpec::new(cfg, App::Umt2013, 1, seed)
}

/// Build workload `name` for `seed`, or `None` for an unknown name.
pub fn workload(name: &str, seed: u64, scale: Scale) -> Option<Workload> {
    let tiny = scale == Scale::Tiny;
    match name {
        // Eager 8-root incast: fabric sink merge and sort dominate.
        "incast" => {
            let (nodes, app) = if tiny {
                (
                    16,
                    App::Incast {
                        bytes: 4096,
                        reps: 8,
                        roots: 2,
                    },
                )
            } else {
                (
                    256,
                    App::Incast {
                        bytes: 4096,
                        reps: 128,
                        roots: 8,
                    },
                )
            };
            let mut cfg = paper_config(OsConfig::McKernelHfi, app, nodes, Some(1));
            pin(&mut cfg, EngineMode::SingleQueue, 1);
            // Sink sizes, and with them the heap peak and the sort work,
            // depend on the seed's launch skew: a pass runs several
            // seeds derived from the workload seed so that one seed's
            // draw does not set the figures.
            let n = if tiny { 2 } else { INCAST_SEEDS };
            Some(Workload {
                name: "incast",
                runs: (0..n)
                    .map(|i| RunSpec::new(cfg.clone(), app, 1, sub_seed(seed, i, n)))
                    .collect(),
                seeds: n as usize,
            })
        }
        // The paper's figure density: PSM/MPI rank step, IKC offload and
        // the Linux driver's 4 KiB get_user_pages/TID path dominate.
        "paper-8n" => {
            let (nodes, rpn, iters) = if tiny { (2, Some(4), 1) } else { (8, None, 4) };
            let mut runs = Vec::new();
            for app in [App::Umt2013, App::Hacc, App::Qbox] {
                for os in OsConfig::ALL {
                    let mut cfg = paper_config(os, app, nodes, rpn);
                    pin(&mut cfg, EngineMode::SingleQueue, 1);
                    runs.push(RunSpec::new(cfg, app, iters, seed));
                }
            }
            Some(Workload {
                name: "paper-8n",
                runs,
                seeds: 1,
            })
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_builds_and_pins_its_partition() {
        for name in NAMES {
            for scale in [Scale::Full, Scale::Tiny] {
                let w = workload(name, 7, scale).unwrap();
                assert!(!w.runs.is_empty() && w.runs.len().is_multiple_of(w.seeds));
                for r in &w.runs {
                    assert!(r.cfg.seed >= 7 && r.label.contains(&format!("seed={}", r.cfg.seed)));
                    assert!(r.cfg.shards == Some(1) && r.cfg.threads == Some(1));
                }
            }
        }
        assert!(workload("nope", 0, Scale::Full).is_none());
        let p = scale_probe(7, Scale::Full);
        assert_eq!(
            (p.cfg.shape.nodes, p.cfg.shards, p.cfg.threads),
            (8192, Some(4), Some(1))
        );
        let small = p.scaled_down();
        assert_eq!((small.cfg.shape.nodes, small.cfg.shards), (1024, Some(4)));
        let two = p.with_workers(2);
        assert_eq!((two.label, two.cfg.threads), (p.label, Some(2)));
    }
}
