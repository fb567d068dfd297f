//! # pico-apps — workload generators
//!
//! Communication/compute skeletons of the paper's benchmarks (§4.2):
//! IMB ping-pong plus five CORAL mini-apps, each parameterized by the
//! job shape and reproducing the *communication character* that makes it
//! sensitive (or not) to system-call offloading:
//!
//! | app      | rpn | character | offload-sensitive? |
//! |----------|-----|-----------|--------------------|
//! | LAMMPS   | 64  | eager halo exchange + tiny allreduce, compute-bound | no |
//! | Nekbone  | 32  | allreduce-heavy CG, small neighbour traffic | no |
//! | UMT2013  | 32  | wavefront sweep of >64 KB rendezvous messages | extremely |
//! | HACC     | 32  | large p2p exchanges, `Cart_create`, `Recv` | yes |
//! | QBOX     | 32  | big `Bcast`/`Alltoallv` + scratch mmap/munmap churn | yes |
//!
//! All apps weak-scale: per-rank work is constant as nodes grow.

#![warn(missing_docs)]

use pico_mpi::{EngineConfig, Op};
use pico_sim::Ns;

/// The job shape: nodes × ranks per node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JobShape {
    /// Compute nodes.
    pub nodes: u32,
    /// MPI ranks per node.
    pub ranks_per_node: u32,
}

impl JobShape {
    /// Total ranks.
    pub fn nranks(&self) -> u32 {
        self.nodes * self.ranks_per_node
    }
}

/// The benchmark selector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum App {
    /// IMB ping-pong between rank 0 and a rank on the other node.
    PingPong {
        /// Message size.
        bytes: u64,
        /// Repetitions.
        reps: u32,
    },
    /// LAMMPS molecular dynamics skeleton.
    Lammps,
    /// Nekbone CG solver skeleton.
    Nekbone,
    /// UMT2013 radiation transport sweep skeleton.
    Umt2013,
    /// HACC cosmology skeleton.
    Hacc,
    /// QBOX first-principles MD skeleton.
    Qbox,
    /// Synthetic incast: the last `n − roots` ranks each stream `reps`
    /// eager messages at every one of the first `roots` ranks,
    /// converging on the roots' downlinks — the fabric-sink stress
    /// pattern (`FabricMode::Incast` vs `PerPacket` gate in simbench).
    /// `roots = 1` is the classic (N−1)-to-1 fan-in; larger `roots`
    /// superimposes one such fan-in per root, the traffic shape of an
    /// alltoall round. The pattern is deliberately bipartite (no rank
    /// both sends and receives data): a pure sender's emission times
    /// depend only on fabric injection times, which the `Incast` merge
    /// reproduces FIFO-exactly, so on the classic fan-in per-member
    /// arrivals stay bit-identical to the per-packet reference even
    /// though the two modes batch deliveries differently.
    Incast {
        /// Message size (keep ≤ the eager threshold so the PIO path is hot).
        bytes: u64,
        /// Messages each sender streams at every root.
        reps: u32,
        /// How many ranks (0..roots) serve as incast destinations
        /// (receive-only); the rest are pure senders.
        roots: u32,
    },
    /// Synthetic all-to-all: `reps` full-communicator `Alltoallv` rounds,
    /// the O(N²) flow-count worst case the destination-rooted sinks
    /// collapse toward O(N).
    Alltoall {
        /// Bytes exchanged with each peer per round.
        bytes: u64,
        /// Alltoallv rounds.
        reps: u32,
    },
}

impl App {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            App::PingPong { .. } => "IMB-PingPong",
            App::Lammps => "LAMMPS",
            App::Nekbone => "Nekbone",
            App::Umt2013 => "UMT2013",
            App::Hacc => "HACC",
            App::Qbox => "QBOX",
            App::Incast { .. } => "Incast",
            App::Alltoall { .. } => "Alltoall",
        }
    }

    /// Ranks per node the paper ran this app with.
    pub fn paper_ranks_per_node(&self) -> u32 {
        match self {
            App::PingPong { .. } | App::Incast { .. } | App::Alltoall { .. } => 1,
            App::Lammps => 64,
            _ => 32,
        }
    }
}

/// Everything the cluster needs to set a rank up for an app.
#[derive(Clone, Debug)]
pub struct AppSpec {
    /// App name.
    pub name: &'static str,
    /// Engine configuration (profiling attribution quirks).
    pub engine: EngineConfig,
    /// Sizes of the per-rank message buffers, indexed by `BufId`.
    pub buffer_bytes: Vec<u64>,
    /// Size of the collective scratch buffer.
    pub scratch_bytes: u64,
}

/// The spec for `app` at `shape`.
pub fn spec(app: App, _shape: JobShape) -> AppSpec {
    match app {
        App::PingPong { bytes, .. } => AppSpec {
            name: app.name(),
            engine: EngineConfig::default(),
            buffer_bytes: vec![bytes.max(8), bytes.max(8)],
            scratch_bytes: 64 * 1024,
        },
        App::Lammps => AppSpec {
            name: app.name(),
            engine: EngineConfig::default(),
            // 6 send + 6 recv halo buffers of 32 KB (eager).
            buffer_bytes: vec![32 * 1024; 12],
            scratch_bytes: 64 * 1024,
        },
        App::Nekbone => AppSpec {
            name: app.name(),
            engine: EngineConfig::default(),
            // 6 send + 6 recv halo buffers of 16 KB.
            buffer_bytes: vec![16 * 1024; 12],
            scratch_bytes: 64 * 1024,
        },
        App::Umt2013 => AppSpec {
            name: app.name(),
            engine: EngineConfig {
                post_as_start: true, // UMT uses persistent requests
                ..Default::default()
            },
            // 4 inbound + 4 outbound sweep buffers of 128 KB (rendezvous).
            buffer_bytes: vec![128 * 1024; 8],
            scratch_bytes: 64 * 1024,
        },
        App::Hacc => AppSpec {
            name: app.name(),
            engine: EngineConfig::default(),
            // 6 send + 6 recv exchange buffers of 256 KB + 2 aux.
            buffer_bytes: {
                let mut v = vec![256 * 1024; 12];
                v.extend([64 * 1024, 64 * 1024]);
                v
            },
            scratch_bytes: 256 * 1024,
        },
        App::Qbox => AppSpec {
            name: app.name(),
            engine: EngineConfig::default(),
            // Alltoallv staging buffers.
            buffer_bytes: vec![128 * 1024; 8],
            scratch_bytes: 2 << 20, // 2 MB bcast vectors
        },
        App::Incast { bytes, .. } => AppSpec {
            name: app.name(),
            engine: EngineConfig::default(),
            buffer_bytes: vec![bytes.max(8), bytes.max(8)],
            scratch_bytes: 64 * 1024,
        },
        App::Alltoall { bytes, .. } => AppSpec {
            name: app.name(),
            engine: EngineConfig::default(),
            buffer_bytes: Vec::new(),
            scratch_bytes: (bytes.max(8) * 64).max(64 * 1024),
        },
    }
}

/// Neighbour helper: ±1, ±`a`, ±`b` ring offsets (3D-stencil stand-in).
fn neighbors(rank: u32, n: u32, a: u32, b: u32) -> [u32; 6] {
    let m = |x: i64| -> u32 { (x.rem_euclid(n as i64)) as u32 };
    let r = rank as i64;
    [
        m(r + 1),
        m(r - 1),
        m(r + a.max(1) as i64),
        m(r - a.max(1) as i64),
        m(r + b.max(1) as i64),
        m(r - b.max(1) as i64),
    ]
}

/// Generate the program rank `rank` runs for `app` with `iters`
/// iterations at `shape`.
pub fn program(app: App, shape: JobShape, iters: u32, rank: u32) -> Vec<Op> {
    let n = shape.nranks();
    match app {
        App::PingPong { bytes, reps } => pingpong(n, rank, bytes, reps),
        App::Lammps => lammps(shape, iters, rank),
        App::Nekbone => nekbone(shape, iters, rank),
        App::Umt2013 => umt2013(shape, iters, rank),
        App::Hacc => hacc(shape, iters, rank),
        App::Qbox => qbox(shape, iters, rank),
        App::Incast { bytes, reps, roots } => incast(n, rank, bytes, reps, roots),
        App::Alltoall { bytes, reps } => alltoall(n, bytes, reps),
    }
}

fn pingpong(n: u32, rank: u32, bytes: u64, reps: u32) -> Vec<Op> {
    assert!(n >= 2, "ping-pong needs two ranks");
    let mut p = vec![Op::Init { threaded: false }, Op::Barrier];
    // Rank 0 and the last rank (guaranteed on the other node when
    // nodes >= 2) play; everyone else just synchronizes.
    let peer_a = 0u32;
    let peer_b = n - 1;
    for _ in 0..reps {
        if rank == peer_a {
            p.push(Op::Send {
                dst: peer_b,
                tag: 1,
                bytes,
                buf: 0,
            });
            p.push(Op::Recv {
                src: peer_b,
                tag: 2,
                bytes,
                buf: 1,
            });
        } else if rank == peer_b {
            p.push(Op::Recv {
                src: peer_a,
                tag: 1,
                bytes,
                buf: 1,
            });
            p.push(Op::Send {
                dst: peer_a,
                tag: 2,
                bytes,
                buf: 0,
            });
        }
    }
    p.push(Op::Barrier);
    p.push(Op::Finalize);
    p
}

fn incast(n: u32, rank: u32, bytes: u64, reps: u32, roots: u32) -> Vec<Op> {
    assert!(n >= 2, "incast needs a sender besides the sink");
    let roots = roots.clamp(1, n - 1);
    // Deliberately barrier-free AND bipartite: roots only receive, the
    // other ranks only send. A pure sender's dispatch times depend only
    // on its own clock and its flushes' fabric injection times (send
    // completions), and a pure receiver never emits while multi-source
    // traffic merges at its downlink — so neither mode's delivery
    // batching can perturb when any data message is committed. That
    // keeps per-member fabric arrivals on the single-root fan-in
    // *bit-identical* between `FabricMode::PerPacket` and `Incast` (the
    // simbench digest gate; with nine roots they differ from the
    // reference, which predates the sinks); a collective, per-rep
    // handshake, or send+receive rank here would re-introduce the
    // run-ahead feedback that `Incast` only approximates.
    let mut p = vec![Op::Init { threaded: false }];
    if rank < roots {
        // Roots drain every sender, one wave per rep so the
        // outstanding-request set stays bounded.
        for rep in 0..reps {
            for src in roots..n {
                p.push(Op::Irecv {
                    src,
                    tag: 80 + rep,
                    bytes,
                    buf: 1,
                });
            }
            p.push(Op::WaitAll);
        }
    } else {
        // Stagger the senders by a sub-microsecond ramp so no two ever
        // commit a fabric flush at the same instant: equal-time commits
        // from different nodes land on a root's downlink in event-queue
        // pop order, which is an implementation detail both modes are
        // free to differ on. With commit times totally ordered, the
        // downlink schedule — and every member arrival — is mode-exact.
        p.push(Op::Compute(Ns(137 * (rank - roots + 1) as u64)));
        // Senders stream to every root back-to-back with no per-rep
        // compute: the whole job converges on the roots' downlinks.
        for root in 0..roots {
            for rep in 0..reps {
                p.push(Op::Send {
                    dst: root,
                    tag: 80 + rep,
                    bytes,
                    buf: 0,
                });
            }
        }
    }
    p.push(Op::Finalize);
    p
}

fn alltoall(n: u32, bytes: u64, reps: u32) -> Vec<Op> {
    let mut p = vec![Op::Init { threaded: false }, Op::Barrier];
    for _ in 0..reps {
        p.push(Op::Alltoallv {
            group: n,
            bytes_per_peer: bytes,
        });
    }
    p.push(Op::Barrier);
    p.push(Op::Finalize);
    p
}

/// Halo-exchange body shared by LAMMPS and Nekbone: 6 neighbours, with
/// tag mirroring so every send matches the partner's receive.
fn halo(p: &mut Vec<Op>, nb: &[u32; 6], tag_base: u32, bytes: u64) {
    for (i, &nbr) in nb.iter().enumerate() {
        p.push(Op::Irecv {
            src: nbr,
            tag: tag_base + i as u32,
            bytes,
            buf: 6 + i as u32,
        });
    }
    for (i, &nbr) in nb.iter().enumerate() {
        // Direction i pairs with direction i^1 on the other side.
        p.push(Op::Isend {
            dst: nbr,
            tag: tag_base + (i ^ 1) as u32,
            bytes,
            buf: i as u32,
        });
    }
}

fn lammps(shape: JobShape, iters: u32, rank: u32) -> Vec<Op> {
    let n = shape.nranks();
    let nb = neighbors(rank, n, shape.ranks_per_node / 4, shape.ranks_per_node);
    let mut p = vec![
        Op::Init { threaded: false },
        Op::ReadInput { bytes: 256 * 1024 },
        Op::Barrier,
    ];
    for _ in 0..iters {
        halo(&mut p, &nb, 10, 32 * 1024);
        p.push(Op::WaitAll);
        // Force + neighbour build: compute dominates LAMMPS.
        p.push(Op::Compute(Ns::micros(5500)));
        // Thermo reduction.
        p.push(Op::Allreduce { bytes: 64 });
    }
    p.push(Op::Barrier);
    p.push(Op::Finalize);
    p
}

fn nekbone(shape: JobShape, iters: u32, rank: u32) -> Vec<Op> {
    let n = shape.nranks();
    let nb = neighbors(rank, n, shape.ranks_per_node / 4, shape.ranks_per_node);
    let mut p = vec![Op::Init { threaded: false }, Op::Barrier];
    for _ in 0..iters {
        // One CG iteration: ax (halo) + 2 dot products (allreduce).
        halo(&mut p, &nb, 20, 16 * 1024);
        p.push(Op::WaitAll);
        p.push(Op::Compute(Ns::micros(900)));
        p.push(Op::Allreduce { bytes: 8 });
        p.push(Op::Compute(Ns::micros(300)));
        p.push(Op::Allreduce { bytes: 8 });
    }
    p.push(Op::Barrier);
    p.push(Op::Finalize);
    p
}

fn umt2013(shape: JobShape, iters: u32, rank: u32) -> Vec<Op> {
    let n = shape.nranks();
    let rpn = shape.ranks_per_node;
    // Sweep partners. The 3D spatial decomposition puts sweep
    // predecessors/successors on *other nodes* (the node boundary cuts
    // the sweep direction), so every sweep message crosses the NIC —
    // this is what makes UMT the offloading worst case.
    let down1 = (rank + rpn) % n;
    let up1 = (rank + n - rpn % n) % n;
    let down2 = (rank + 2 * rpn) % n;
    let up2 = (rank + n - (2 * rpn) % n) % n;
    let mut p = vec![
        Op::Init { threaded: false },
        Op::ReadInput { bytes: 128 * 1024 },
        Op::Barrier,
    ];
    const MSG: u64 = 128 * 1024; // > eager threshold: SDMA + TID path
    for _ in 0..iters {
        // 6 sweep phases (angle octant batches): each phase receives
        // from upstream, computes briefly, sends downstream — rendezvous
        // messages, so every one costs writev + TID ioctls. The sweep is
        // latency/communication bound at high angle counts.
        for phase in 0..6u32 {
            let (up, down) = if phase % 2 == 0 {
                (up1, down1)
            } else {
                (up2, down2)
            };
            p.push(Op::Irecv {
                src: up,
                tag: 40 + phase,
                bytes: MSG,
                buf: phase % 4,
            });
            p.push(Op::Irecv {
                src: up,
                tag: 50 + phase,
                bytes: MSG,
                buf: phase % 4,
            });
            p.push(Op::Compute(Ns::micros(200)));
            p.push(Op::Isend {
                dst: down,
                tag: 40 + phase,
                bytes: MSG,
                buf: 4 + phase % 4,
            });
            p.push(Op::Isend {
                dst: down,
                tag: 50 + phase,
                bytes: MSG,
                buf: 4 + phase % 4,
            });
            p.push(Op::WaitEach);
        }
        // Per-iteration convergence check.
        p.push(Op::Allreduce { bytes: 16 * 1024 });
        p.push(Op::Barrier);
    }
    p.push(Op::Barrier);
    p.push(Op::Finalize);
    p
}

fn hacc(shape: JobShape, iters: u32, rank: u32) -> Vec<Op> {
    let n = shape.nranks();
    assert!(
        n.is_multiple_of(2),
        "HACC skeleton needs an even rank count"
    );
    let nb = neighbors(rank, n, shape.ranks_per_node, shape.ranks_per_node * 2);
    let mut p = vec![
        Op::Init { threaded: true },
        Op::CartCreate {
            setup: Ns::micros(400),
        },
        Op::Barrier,
    ];
    const MSG: u64 = 256 * 1024; // rendezvous (one TID window)
    for _ in 0..iters {
        // Particle overload exchange: 6 large neighbour messages.
        for (i, &nbr) in nb.iter().enumerate() {
            p.push(Op::Irecv {
                src: nbr,
                tag: 60 + i as u32,
                bytes: MSG,
                buf: 6 + i as u32,
            });
        }
        for (i, &nbr) in nb.iter().enumerate() {
            p.push(Op::Isend {
                dst: nbr,
                tag: 60 + (i ^ 1) as u32,
                bytes: MSG,
                buf: i as u32,
            });
        }
        p.push(Op::WaitEach);
        // Short-range force computation.
        p.push(Op::Compute(Ns::micros(3000)));
        // Long-range solve step: blocking exchange around the ring.
        if rank.is_multiple_of(2) {
            p.push(Op::Send {
                dst: (rank + 1) % n,
                tag: 70,
                bytes: 64 * 1024,
                buf: 12,
            });
            p.push(Op::Recv {
                src: (rank + n - 1) % n,
                tag: 71,
                bytes: 64 * 1024,
                buf: 13,
            });
        } else {
            p.push(Op::Recv {
                src: (rank + n - 1) % n,
                tag: 70,
                bytes: 64 * 1024,
                buf: 13,
            });
            p.push(Op::Send {
                dst: (rank + 1) % n,
                tag: 71,
                bytes: 64 * 1024,
                buf: 12,
            });
        }
        p.push(Op::Allreduce { bytes: 256 });
    }
    p.push(Op::Barrier);
    p.push(Op::Finalize);
    p
}

fn qbox(shape: JobShape, iters: u32, _rank: u32) -> Vec<Op> {
    // Column communicators: groups of up to 64 ranks (2 nodes at rpn 32)
    // so the alltoall crosses the NIC. Group must divide the job.
    let group = if shape.nodes >= 2 {
        shape.ranks_per_node * 2
    } else {
        shape.ranks_per_node
    };
    let mut p = vec![
        Op::Init { threaded: false },
        Op::ReadInput { bytes: 256 * 1024 },
        Op::CommCreate,
        Op::Barrier,
    ];
    for _ in 0..iters {
        // Wavefunction broadcast: large rendezvous tree.
        p.push(Op::Bcast {
            root: 0,
            bytes: 2 << 20,
        });
        // FFT transpose within the column group.
        p.push(Op::Alltoallv {
            group,
            bytes_per_peer: 96 * 1024,
        });
        p.push(Op::Compute(Ns::micros(3000)));
        // Scratch churn: QBOX's dominant kernel cost is munmap (Fig. 9).
        // FFT/rotation workspaces are mapped and torn down every step.
        for _ in 0..4 {
            p.push(Op::MmapScratch { bytes: 16 << 20 });
            p.push(Op::MunmapScratch);
        }
        p.push(Op::Allreduce { bytes: 32 * 1024 });
        p.push(Op::Scan { bytes: 1024 });
    }
    p.push(Op::Barrier);
    p.push(Op::Finalize);
    p
}

/// Assert the SPMD sanity of a generated program set: every rank has a
/// program with matching collective counts (used by tests and the
/// runner).
pub fn validate_spmd(app: App, shape: JobShape, iters: u32) -> Result<(), String> {
    let n = shape.nranks();
    let is_coll = |o: &Op| {
        matches!(
            o,
            Op::Barrier
                | Op::Allreduce { .. }
                | Op::Bcast { .. }
                | Op::Alltoallv { .. }
                | Op::Scan { .. }
                | Op::CartCreate { .. }
                | Op::CommCreate
                | Op::Init { .. }
                | Op::Finalize
        )
    };
    let count = |ops: &[Op]| ops.iter().filter(|o| is_coll(o)).count();
    let reference = program(app, shape, iters, 0);
    let ref_colls = count(&reference);
    for r in 1..n {
        let p = program(app, shape, iters, r);
        if count(&p) != ref_colls {
            return Err(format!("rank {r} collective count mismatch"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPES: [JobShape; 3] = [
        JobShape {
            nodes: 1,
            ranks_per_node: 8,
        },
        JobShape {
            nodes: 2,
            ranks_per_node: 8,
        },
        JobShape {
            nodes: 4,
            ranks_per_node: 16,
        },
    ];

    #[test]
    fn all_apps_are_spmd_consistent() {
        for shape in SHAPES {
            for app in [
                App::PingPong {
                    bytes: 1024,
                    reps: 5,
                },
                App::Lammps,
                App::Nekbone,
                App::Umt2013,
                App::Hacc,
                App::Qbox,
                App::Incast {
                    bytes: 8 * 1024,
                    reps: 4,
                    roots: 2,
                },
                App::Alltoall {
                    bytes: 8 * 1024,
                    reps: 2,
                },
            ] {
                validate_spmd(app, shape, 3).unwrap_or_else(|e| {
                    panic!("{} at {shape:?}: {e}", app.name());
                });
            }
        }
    }

    #[test]
    fn buffer_ids_stay_within_spec() {
        for shape in SHAPES {
            for app in [
                App::Lammps,
                App::Nekbone,
                App::Umt2013,
                App::Hacc,
                App::Qbox,
            ] {
                let sp = spec(app, shape);
                for r in 0..shape.nranks() {
                    for op in program(app, shape, 2, r) {
                        let buf = match op {
                            Op::Isend { buf, .. }
                            | Op::Irecv { buf, .. }
                            | Op::Send { buf, .. }
                            | Op::Recv { buf, .. } => Some(buf),
                            _ => None,
                        };
                        if let Some(b) = buf {
                            assert!(
                                (b as usize) < sp.buffer_bytes.len(),
                                "{}: rank {r} buf {b} out of range",
                                sp.name
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn message_sizes_respect_buffers() {
        for shape in SHAPES {
            for app in [App::Lammps, App::Umt2013, App::Hacc, App::Qbox] {
                let sp = spec(app, shape);
                for r in 0..shape.nranks().min(8) {
                    for op in program(app, shape, 2, r) {
                        if let Op::Isend { bytes, buf, .. }
                        | Op::Irecv { bytes, buf, .. }
                        | Op::Send { bytes, buf, .. }
                        | Op::Recv { bytes, buf, .. } = op
                        {
                            assert!(
                                bytes <= sp.buffer_bytes[buf as usize],
                                "{}: message {} > buffer {}",
                                sp.name,
                                bytes,
                                sp.buffer_bytes[buf as usize]
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn umt_uses_rendezvous_lammps_uses_eager() {
        let shape = JobShape {
            nodes: 2,
            ranks_per_node: 8,
        };
        let eager = 64 * 1024u64;
        let umt = program(App::Umt2013, shape, 1, 0);
        assert!(umt
            .iter()
            .any(|o| matches!(o, Op::Isend { bytes, .. } if *bytes > eager)));
        let lmp = program(App::Lammps, shape, 1, 0);
        assert!(lmp.iter().all(|o| match o {
            Op::Isend { bytes, .. } => *bytes <= eager,
            _ => true,
        }));
    }

    #[test]
    fn qbox_churns_scratch_mappings() {
        let shape = JobShape {
            nodes: 4,
            ranks_per_node: 8,
        };
        let p = program(App::Qbox, shape, 5, 3);
        let mmaps = p
            .iter()
            .filter(|o| matches!(o, Op::MmapScratch { .. }))
            .count();
        let munmaps = p.iter().filter(|o| matches!(o, Op::MunmapScratch)).count();
        assert_eq!(mmaps, 20);
        assert_eq!(munmaps, 20);
    }

    #[test]
    fn pingpong_roles() {
        let p0 = program(
            App::PingPong {
                bytes: 4096,
                reps: 3,
            },
            SHAPES[1],
            1,
            0,
        );
        let plast = program(
            App::PingPong {
                bytes: 4096,
                reps: 3,
            },
            SHAPES[1],
            1,
            15,
        );
        let pmid = program(
            App::PingPong {
                bytes: 4096,
                reps: 3,
            },
            SHAPES[1],
            1,
            7,
        );
        let sends = |p: &[Op]| p.iter().filter(|o| matches!(o, Op::Send { .. })).count();
        assert_eq!(sends(&p0), 3);
        assert_eq!(sends(&plast), 3);
        assert_eq!(sends(&pmid), 0);
    }

    #[test]
    fn paper_rank_counts() {
        assert_eq!(App::Lammps.paper_ranks_per_node(), 64);
        assert_eq!(App::Umt2013.paper_ranks_per_node(), 32);
        assert_eq!(
            App::PingPong { bytes: 1, reps: 1 }.paper_ranks_per_node(),
            1
        );
    }

    #[test]
    fn umt_tag_mirroring_is_consistent() {
        // Every Isend must have a matching Irecv at the destination.
        let shape = JobShape {
            nodes: 2,
            ranks_per_node: 8,
        };
        let n = shape.nranks();
        let progs: Vec<Vec<Op>> = (0..n).map(|r| program(App::Umt2013, shape, 1, r)).collect();
        for (r, p) in progs.iter().enumerate() {
            for op in p {
                if let Op::Isend {
                    dst, tag, bytes, ..
                } = op
                {
                    let found = progs[*dst as usize].iter().any(|o| {
                        matches!(o, Op::Irecv { src, tag: t, bytes: b, .. }
                            if *src == r as u32 && t == tag && b == bytes)
                    });
                    assert!(found, "rank {r} send tag {tag} to {dst} unmatched");
                }
            }
        }
    }

    #[test]
    fn halo_tag_mirroring_is_consistent() {
        for app in [App::Lammps, App::Nekbone, App::Hacc] {
            let shape = JobShape {
                nodes: 2,
                ranks_per_node: 8,
            };
            let n = shape.nranks();
            let progs: Vec<Vec<Op>> = (0..n).map(|r| program(app, shape, 1, r)).collect();
            for (r, p) in progs.iter().enumerate() {
                for op in p {
                    if let Op::Isend {
                        dst, tag, bytes, ..
                    } = op
                    {
                        let found = progs[*dst as usize].iter().any(|o| {
                            matches!(o, Op::Irecv { src, tag: t, bytes: b, .. }
                                if *src == r as u32 && t == tag && b == bytes)
                        });
                        assert!(
                            found,
                            "{}: rank {r} send tag {tag} to {dst} unmatched",
                            app.name()
                        );
                    }
                }
            }
        }
    }
}
