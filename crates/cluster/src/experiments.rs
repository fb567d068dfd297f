//! The experiment runners behind every table and figure of §4, plus the
//! report formatting (`I_MPI_STATS`-style Table 1 rows, Figure 8/9
//! syscall breakdowns). The heavy sweeps fan out with the in-tree
//! order-preserving [`par_map`] — each simulation is independent and
//! deterministic, so the artifacts are identical at any worker count.

use crate::config::{paper_config, OsConfig};
use crate::world::{run_app, RunResult};
use pico_apps::App;
use pico_ihk::Sysno;
use pico_sim::{par_map, Json, Ns};

/// One row of the Figure 4 bandwidth plot.
#[derive(Clone, Debug)]
pub struct Fig4Row {
    /// Message size in bytes.
    pub bytes: u64,
    /// Bandwidth in MB/s per OS config (Linux, McKernel, McKernel+HFI1).
    pub bw_mbs: [f64; 3],
}

impl Fig4Row {
    /// JSON form (for the plotting artifacts).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("bytes", Json::UInt(self.bytes)),
            (
                "bw_mbs",
                Json::arr(self.bw_mbs.iter().map(|&b| Json::Num(b))),
            ),
        ])
    }
}

/// Ping-pong bandwidth for one OS config and message size.
///
/// Measured IMB-style: run `reps` and `2*reps` round trips and use the
/// difference, cancelling init/finalize overhead exactly.
pub fn pingpong_bandwidth(os: OsConfig, bytes: u64, reps: u32) -> f64 {
    let run = |reps: u32| -> Ns {
        let app = App::PingPong { bytes, reps };
        let cfg = paper_config(os, app, 2, Some(1));
        let res = run_app(cfg, app, 1);
        assert_eq!(res.ranks_done, 2, "ping-pong did not complete");
        res.wall_time
    };
    let t1 = run(reps);
    let t2 = run(2 * reps);
    let per_round_trip = (t2.saturating_sub(t1)).as_secs_f64() / reps as f64;
    let per_half = per_round_trip / 2.0;
    if per_half <= 0.0 {
        return 0.0;
    }
    bytes as f64 / per_half / 1e6
}

/// Figure 4: ping-pong bandwidth across message sizes for all three OS
/// configurations.
pub fn fig4(sizes: &[u64], reps: u32) -> Vec<Fig4Row> {
    par_map(sizes.to_vec(), |bytes| {
        let bw = par_map(OsConfig::ALL.to_vec(), |os| {
            pingpong_bandwidth(os, bytes, reps)
        });
        Fig4Row {
            bytes,
            bw_mbs: [bw[0], bw[1], bw[2]],
        }
    })
}

/// One point of a weak-scaling figure (5a/5b/6a/6b/7).
#[derive(Clone, Debug)]
pub struct ScalingPoint {
    /// Node count.
    pub nodes: u32,
    /// Performance relative to Linux (1.0 = Linux) per OS config.
    pub relative: [f64; 3],
    /// Absolute wall times.
    pub wall: [f64; 3],
}

impl ScalingPoint {
    /// JSON form (for the plotting artifacts).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("nodes", Json::UInt(self.nodes as u64)),
            (
                "relative",
                Json::arr(self.relative.iter().map(|&r| Json::Num(r))),
            ),
            ("wall", Json::arr(self.wall.iter().map(|&w| Json::Num(w)))),
        ])
    }
}

/// Run `app` across `node_counts` × the three OS configurations and
/// report performance relative to Linux.
///
/// The figure of merit is the *steady-state iteration rate*: each app
/// reports per-timestep throughput (LAMMPS ns/day, Nekbone MFLOPS, ...),
/// which excludes `MPI_Init`/input-read startup. We measure it exactly by
/// running `iters` and `2*iters` iterations and taking the difference —
/// startup (and launch skew) cancels.
pub fn scaling(
    app: App,
    node_counts: &[u32],
    iters: u32,
    rpn_override: Option<u32>,
) -> Vec<ScalingPoint> {
    scaling_with(app, node_counts, iters, rpn_override, |_| {})
}

/// [`scaling`] with a config mutator applied to every run.
///
/// The scale sweeps past the paper's 256-node ceiling use this to swap
/// in the sharded engine (`EngineMode::Sharded`): the figure binaries
/// pass a closure rather than `scaling` growing one knob per ablation.
/// The mutator runs after [`paper_config`], so it sees (and may
/// override) the paper defaults; it must be deterministic — it runs
/// once per (node count, OS, run length) cell.
pub fn scaling_with<M>(
    app: App,
    node_counts: &[u32],
    iters: u32,
    rpn_override: Option<u32>,
    mutate: M,
) -> Vec<ScalingPoint>
where
    M: Fn(&mut crate::config::ClusterConfig) + Sync,
{
    let mutate = &mutate;
    par_map(node_counts.to_vec(), |nodes| {
        let walls: Vec<Ns> = par_map(OsConfig::ALL.to_vec(), |os| {
            let run = |n_iters: u32| {
                let mut cfg = paper_config(os, app, nodes, rpn_override);
                mutate(&mut cfg);
                let expect = cfg.shape.nranks();
                let res = run_app(cfg, app, n_iters);
                assert_eq!(
                    res.ranks_done,
                    expect,
                    "{} on {:?} at {} nodes did not complete",
                    app.name(),
                    os,
                    nodes
                );
                res.wall_time
            };
            let short = run(iters);
            let long = run(2 * iters);
            long.saturating_sub(short)
        });
        let linux = walls[0].as_secs_f64();
        ScalingPoint {
            nodes,
            relative: [
                1.0,
                linux / walls[1].as_secs_f64(),
                linux / walls[2].as_secs_f64(),
            ],
            wall: [
                walls[0].as_secs_f64(),
                walls[1].as_secs_f64(),
                walls[2].as_secs_f64(),
            ],
        }
    })
}

/// One Table 1 row: a top MPI call of one app × OS cell.
#[derive(Clone, Debug)]
pub struct Table1Row {
    /// Call name (`Wait`, `Barrier`, ...).
    pub call: String,
    /// Cumulative time over all ranks, seconds.
    pub time_s: f64,
    /// Share of total MPI time, percent.
    pub pct_mpi: f64,
    /// Share of total runtime (sum over ranks), percent.
    pub pct_rt: f64,
}

/// The Table 1 cell for one app and OS config: top-`k` MPI calls.
pub fn comm_profile(app: App, os: OsConfig, nodes: u32, iters: u32, k: usize) -> Vec<Table1Row> {
    let cfg = paper_config(os, app, nodes, None);
    let nranks = cfg.shape.nranks();
    let res = run_app(cfg, app, iters);
    assert_eq!(res.ranks_done, nranks);
    profile_rows(&res, k)
}

/// Extract top-`k` MPI rows from a result.
pub fn profile_rows(res: &RunResult, k: usize) -> Vec<Table1Row> {
    let total_mpi = res.mpi_time().as_secs_f64();
    // Total runtime summed over ranks (the paper's %Rt denominator).
    // The sketch's sum is exact, so this is bit-identical to summing
    // the old per-rank vector.
    let total_rt: f64 = pico_sim::Ns(res.finish.sum()).as_secs_f64();
    res.mpi_profile
        .sorted_desc()
        .into_iter()
        .take(k)
        .map(|(call, _count, t)| {
            let s = t.as_secs_f64();
            Table1Row {
                call: call.name().to_string(),
                time_s: s,
                pct_mpi: if total_mpi > 0.0 {
                    100.0 * s / total_mpi
                } else {
                    0.0
                },
                pct_rt: if total_rt > 0.0 {
                    100.0 * s / total_rt
                } else {
                    0.0
                },
            }
        })
        .collect()
}

/// A Figure 8/9 style syscall breakdown: per-syscall share of kernel
/// time, plus the absolute total for the 7 %/25 % comparison.
#[derive(Clone, Debug)]
pub struct SyscallBreakdown {
    /// OS label.
    pub os: String,
    /// `(syscall, share_percent)` sorted descending.
    pub shares: Vec<(String, f64)>,
    /// Total kernel time, seconds.
    pub total_kernel_s: f64,
}

/// Kernel-level syscall breakdown of `app` under `os`.
pub fn syscall_breakdown(app: App, os: OsConfig, nodes: u32, iters: u32) -> SyscallBreakdown {
    let cfg = paper_config(os, app, nodes, None);
    let nranks = cfg.shape.nranks();
    let res = run_app(cfg, app, iters);
    assert_eq!(res.ranks_done, nranks);
    breakdown_of(&res, os)
}

/// Extract the syscall breakdown from a result.
pub fn breakdown_of(res: &RunResult, os: OsConfig) -> SyscallBreakdown {
    let total = res.kernel_time().as_secs_f64();
    let mut shares: Vec<(String, f64)> = Sysno::ALL
        .iter()
        .map(|&s| {
            let (_, t) = res.kernel_profile.get(&s);
            (
                s.name().to_string(),
                if total > 0.0 {
                    100.0 * t.as_secs_f64() / total
                } else {
                    0.0
                },
            )
        })
        .filter(|(_, pct)| *pct > 0.0)
        .collect();
    shares.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    SyscallBreakdown {
        os: os.label().to_string(),
        shares,
        total_kernel_s: total,
    }
}

/// Render a Table 1 style block as text.
pub fn format_table1(app: &str, cells: &[(OsConfig, Vec<Table1Row>)]) -> String {
    let mut out = String::new();
    out.push_str(&format!("== {app} ==\n"));
    out.push_str(&format!(
        "{:<16}{:>12}{:>9}{:>8}    {:<16}{:>12}{:>9}{:>8}    {:<16}{:>12}{:>9}{:>8}\n",
        "Linux (MPI_)",
        "Time",
        "%MPI",
        "%Rt",
        "McKernel (MPI_)",
        "Time",
        "%MPI",
        "%Rt",
        "McK+HFI (MPI_)",
        "Time",
        "%MPI",
        "%Rt"
    ));
    let depth = cells.iter().map(|(_, rows)| rows.len()).max().unwrap_or(0);
    for i in 0..depth {
        for (j, (_, rows)) in cells.iter().enumerate() {
            if let Some(r) = rows.get(i) {
                out.push_str(&format!(
                    "{:<16}{:>12.4}{:>8.2}%{:>7.2}%",
                    r.call, r.time_s, r.pct_mpi, r.pct_rt
                ));
            } else {
                out.push_str(&format!("{:<16}{:>12}{:>9}{:>8}", "", "", "", ""));
            }
            if j + 1 < cells.len() {
                out.push_str("    ");
            }
        }
        out.push('\n');
    }
    out
}

/// Render a scaling figure as text.
pub fn format_scaling(title: &str, points: &[ScalingPoint]) -> String {
    let mut out = format!("== {title}: relative performance to Linux ==\n");
    out.push_str(&format!(
        "{:>6} {:>10} {:>10} {:>14}\n",
        "nodes", "Linux", "McKernel", "McKernel+HFI1"
    ));
    for p in points {
        out.push_str(&format!(
            "{:>6} {:>9.1}% {:>9.1}% {:>13.1}%\n",
            p.nodes,
            100.0 * p.relative[0],
            100.0 * p.relative[1],
            100.0 * p.relative[2],
        ));
    }
    out
}

/// Render Figure 4 as text.
pub fn format_fig4(rows: &[Fig4Row]) -> String {
    let mut out = String::from("== Figure 4: MPI ping-pong bandwidth (MB/s) ==\n");
    out.push_str(&format!(
        "{:>10} {:>12} {:>12} {:>14}\n",
        "bytes", "Linux", "McKernel", "McKernel+HFI1"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:>10} {:>12.1} {:>12.1} {:>14.1}\n",
            r.bytes, r.bw_mbs[0], r.bw_mbs[1], r.bw_mbs[2]
        ));
    }
    out
}

/// Render a Figure 8/9 breakdown as text.
pub fn format_breakdown(title: &str, a: &SyscallBreakdown, b: &SyscallBreakdown) -> String {
    let mut out = format!("== {title}: system call time breakdown ==\n");
    for s in [a, b] {
        out.push_str(&format!(
            "--- {} (total kernel time {:.4}s) ---\n",
            s.os, s.total_kernel_s
        ));
        for (name, pct) in &s.shares {
            out.push_str(&format!("  {:<14} {:>6.2}%\n", name, pct));
        }
    }
    if a.total_kernel_s > 0.0 {
        out.push_str(&format!(
            "{} kernel time is {:.1}% of {}'s\n",
            b.os,
            100.0 * b.total_kernel_s / a.total_kernel_s,
            a.os
        ));
    }
    out
}
