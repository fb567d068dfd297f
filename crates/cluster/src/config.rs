//! Cluster configuration: the three OS configurations of the evaluation
//! plus every knob the ablation benches sweep.

use pico_apps::{App, JobShape};
use pico_fabric::FabricConfig;
use pico_ihk::IkcConfig;
use pico_linux::NoiseConfig;
use pico_psm::PsmConfig;
use pico_sim::{Ns, MAX_COARSE_BITS};

/// The operating-system configuration of a run — the three lines of
/// every figure in §4.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OsConfig {
    /// Stock Linux (Fujitsu HPC-tuned: `nohz_full` application cores).
    Linux,
    /// IHK/McKernel with system-call offloading (original).
    McKernel,
    /// IHK/McKernel with the HFI PicoDriver fast paths.
    McKernelHfi,
}

impl OsConfig {
    /// Label used in figures.
    pub fn label(self) -> &'static str {
        match self {
            OsConfig::Linux => "Linux",
            OsConfig::McKernel => "McKernel",
            OsConfig::McKernelHfi => "McKernel+HFI1",
        }
    }
    /// All three configurations.
    pub const ALL: [OsConfig; 3] = [OsConfig::Linux, OsConfig::McKernel, OsConfig::McKernelHfi];
}

/// How same-link packet bursts travel through the fabric model. The
/// coalescing mode is equivalence-tested against the per-packet reference
/// the way the timing wheel is tested against `HeapEventQueue`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FabricMode {
    /// One `Ev::Packet` per hop — the per-packet reference model.
    PerPacket,
    /// Destination-rooted incast flow graph: each dispatch's same-link
    /// burst becomes one fabric reservation, and one sink per destination
    /// node merges members from *all* source links into a single
    /// delivery over the shared downlink (`Fabric::sink_inject` on the
    /// source's uplink, then `Fabric::sink_commit` on the downlink —
    /// one path for both engines). The sink stays open across
    /// dispatches; successive flushes continue its downlink reservation,
    /// and delivery rides the timing wheel as a soft entry (counted in
    /// `soft_deliveries`, not `sim_events`). An
    /// N-to-1 incast needs one close reaper and one soft entry; pause,
    /// member caps, and lingering are per-sink. Conserved quantities
    /// equal [`FabricMode::PerPacket`] exactly, and the bulk arrival
    /// digest equals it where delivery is FIFO-exact.
    Incast,
}

impl FabricMode {
    /// Whether bursts coalesce into destination-rooted sinks.
    pub fn incast(self) -> bool {
        self == FabricMode::Incast
    }
}

/// Which event engine executes a run. The single-queue engine is the
/// reference model (one timing wheel, one thread); the sharded engine
/// partitions the cluster by node into per-shard wheels executed on
/// worker threads under conservative lookahead. The two are
/// equivalence-tested against each other the way `Incast` is tested
/// against `PerPacket`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EngineMode {
    /// One global timing wheel walked by one thread — the reference.
    SingleQueue,
    /// Node-sharded wheels on worker threads: shards execute windows of
    /// width `FabricConfig::base_latency` (the minimum link latency, the
    /// Chandy–Misra lookahead) between barriers; cross-shard fabric
    /// traffic travels through per-destination-shard inboxes committed
    /// at the window boundary. Requires [`FabricMode::Incast`] (the
    /// destination-rooted sinks are what make every cross-node delivery
    /// a sink merge, i.e. routable by destination);
    /// [`ClusterConfig::validate`] rejects any other fabric mode.
    Sharded,
}

impl EngineMode {
    /// Whether this is the node-sharded parallel engine.
    pub fn sharded(self) -> bool {
        self == EngineMode::Sharded
    }
}

/// Full cluster configuration.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// OS configuration.
    pub os: OsConfig,
    /// Job shape (nodes × ranks/node).
    pub shape: JobShape,
    /// Cores per node (68 on the paper's KNL nodes).
    pub cores_per_node: u32,
    /// Linux service cores per node (4 on OFP).
    pub service_cores: usize,
    /// Physical memory per node handed to the rank side.
    pub mem_per_node: u64,
    /// Fabric parameters.
    pub fabric: FabricConfig,
    /// PSM parameters.
    pub psm: PsmConfig,
    /// IKC latency parameters.
    pub ikc: IkcConfig,
    /// RNG seed (runs are bit-deterministic per seed).
    pub seed: u64,
    /// Fast-path SDMA request cap (hardware max 10 KB; ablations sweep).
    /// Must be positive: [`validate`](Self::validate) rejects 0.
    pub sdma_cap: u64,
    /// Enable the fast-path TID registration cache.
    pub tid_cache: bool,
    /// LWK backs anonymous memory with contiguous/large pages
    /// (ablation: disable to measure what contiguity is worth).
    pub lwk_large_pages: bool,
    /// Override the noise model (ablation: [`NoiseConfig::none`]).
    pub noise_override: Option<NoiseConfig>,
    /// PIO copy bandwidth (user-space eager sends).
    pub pio_bw: f64,
    /// PIO fixed cost per packet.
    pub pio_base: Ns,
    /// Receive-side eager copy-out bandwidth.
    pub copy_bw: f64,
    /// Maximum uniform random launch stagger across ranks.
    pub launch_skew: Ns,
    /// Extra one-time `MPI_Init` cost of the PicoDriver configuration
    /// (LWK-side mapping of driver internals, DWARF port load).
    pub pico_init_cost: Ns,
    /// Fraction of host memory churned to fragment the Linux buddy.
    pub host_fragmentation: f64,
    /// Carry real payloads end to end (small runs only).
    pub backed: bool,
    /// Fabric burst coalescing mode (see [`FabricMode`]). The per-packet
    /// mode is kept as the reference model for equivalence testing the
    /// way `HeapEventQueue` backs the timing wheel.
    pub batch_fabric: FabricMode,
    /// Close a per-destination sink ([`FabricMode::Incast`]) whose
    /// sources have all been idle this long; closed sinks finalize their
    /// statistics and the next burst opens a fresh one. Also paces the
    /// `Ev::SinkClose` reaper timers (one per active sink, rescheduled at
    /// this cadence).
    pub sink_linger_ns: Ns,
    /// Hard cap on members accumulated by one per-destination sink
    /// before it is closed and a successor opened — bounds the member
    /// vector a single delivery dispatch may own.
    pub sink_member_cap: usize,
    /// log2 of the fine pages spanned by one coarse-wheel bucket
    /// (see `EventQueue::with_coarse_bits`), in
    /// `1..=`[`MAX_COARSE_BITS`]; 6 keeps the PR 3 layout (64 µs pages,
    /// ~67 ms horizon). The 128/256-node noise sweeps
    /// profile this via `WheelProfile::span_hist`.
    pub wheel_coarse_bits: u32,
    /// Which event engine executes the run (see [`EngineMode`]).
    pub engine: EngineMode,
    /// Worker threads for [`EngineMode::Sharded`]: `None` falls back to
    /// the `PICO_THREADS` environment variable / machine parallelism
    /// (`pico_sim::default_threads`). Results are bit-identical for any
    /// thread count; only wall-clock time changes.
    pub threads: Option<usize>,
    /// Shard count for [`EngineMode::Sharded`]: `None` defaults to the
    /// sizing heuristic (`pico_cluster::auto_shard_count`), which scales
    /// with ranks-per-node and the machine's advertised parallelism but
    /// *not* with [`threads`](Self::threads). The partition (contiguous
    /// node ranges) is fixed by this value alone — independent of the
    /// thread count — which is what makes cross-thread bit-identity
    /// structural.
    pub shards: Option<usize>,
    /// Record the exact per-rank finish-time vector
    /// (`RunResult::rank_finish`) in addition to the constant-memory
    /// `FinishSketch`. Off by default: the vector is O(ranks) result
    /// state, which is exactly what capped the sweeps at 256 nodes. The
    /// equivalence tests that compare finish times rank by rank opt in.
    pub record_per_rank: bool,
    /// Boot every node eagerly — full dense driver register files, dense
    /// TID receive arrays, dense per-core block pools, and a privately
    /// built address space and buddy allocator per node — instead of the
    /// flyweight template-boot model. Off by default: the eager layout
    /// costs O(nodes) boot wall-clock and hundreds of KiB per node and
    /// exists as the reference the flyweight model is equivalence-tested
    /// (and its ≥4× memory / ≥3× construction gate measured) against.
    /// Under the flyweight model exactly one node per OS config boots
    /// for real; the other N−1 share its immutable post-boot images
    /// (driver reset registers, VA layout, buddy free sets) behind `Arc`
    /// and materialize private copies only on first mutating touch.
    /// Results are bit-identical either way.
    pub eager_node_model: bool,
}

impl ClusterConfig {
    /// The paper's deployment defaults for a given OS config and shape.
    pub fn paper(os: OsConfig, shape: JobShape) -> ClusterConfig {
        ClusterConfig {
            os,
            shape,
            cores_per_node: 68,
            service_cores: 4,
            // Enough for buffers: scale with ranks (32 MiB per rank + slack).
            mem_per_node: (shape.ranks_per_node as u64 + 4) * (64 << 20),
            fabric: FabricConfig::default(),
            psm: PsmConfig {
                ranks_per_node: shape.ranks_per_node,
                ..Default::default()
            },
            ikc: IkcConfig::default(),
            seed: 0x9e3779b97f4a7c15,
            sdma_cap: 10 * 1024,
            tid_cache: true,
            lwk_large_pages: true,
            noise_override: None,
            pio_bw: 8.0e9,
            pio_base: Ns::nanos(450),
            copy_bw: 10.0e9,
            launch_skew: Ns::millis(2),
            pico_init_cost: Ns::millis(1),
            host_fragmentation: 0.4,
            backed: false,
            batch_fabric: FabricMode::Incast,
            sink_linger_ns: Ns::millis(2),
            sink_member_cap: 4096,
            wheel_coarse_bits: 6,
            engine: EngineMode::SingleQueue,
            threads: None,
            shards: None,
            record_per_rank: false,
            eager_node_model: false,
        }
    }

    /// Reject a configuration that cannot run as specified, rather than
    /// run something else in its place. [`World::new`](crate::World::new)
    /// panics with this message.
    pub fn validate(&self) -> Result<(), String> {
        if self.sdma_cap == 0 {
            return Err(
                "sdma_cap = 0: the fast path cuts SDMA transfers into requests of at most \
                 sdma_cap bytes and needs a positive cap"
                    .into(),
            );
        }
        if self.engine.sharded() && !self.batch_fabric.incast() {
            return Err(format!(
                "engine = Sharded requires batch_fabric = Incast, got {:?}: the sharded \
                 engine routes every cross-node delivery through a destination sink",
                self.batch_fabric
            ));
        }
        if self.engine.sharded() && self.fabric.base_latency == Ns::ZERO {
            return Err(
                "engine = Sharded requires a positive fabric.base_latency: the link latency \
                 is the conservative lookahead every shard window is sized by"
                    .into(),
            );
        }
        if !(1..=MAX_COARSE_BITS).contains(&self.wheel_coarse_bits) {
            return Err(format!(
                "wheel_coarse_bits = {} is outside 1..={MAX_COARSE_BITS}: a coarse wheel page \
                 may not be wider than the fine ring",
                self.wheel_coarse_bits
            ));
        }
        Ok(())
    }
}

/// Convenience: the paper configuration for `os` at `nodes` ×
/// `app.paper_ranks_per_node()` (scaled down by `rpn_override`).
pub fn paper_config(
    os: OsConfig,
    app: App,
    nodes: u32,
    rpn_override: Option<u32>,
) -> ClusterConfig {
    let rpn = rpn_override.unwrap_or_else(|| app.paper_ranks_per_node());
    ClusterConfig::paper(
        os,
        JobShape {
            nodes,
            ranks_per_node: rpn,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(OsConfig::Linux.label(), "Linux");
        assert_eq!(OsConfig::McKernelHfi.label(), "McKernel+HFI1");
        assert_eq!(OsConfig::ALL.len(), 3);
    }

    #[test]
    fn paper_defaults_are_sane() {
        let shape = JobShape {
            nodes: 8,
            ranks_per_node: 32,
        };
        let c = ClusterConfig::paper(OsConfig::McKernel, shape);
        assert_eq!(c.cores_per_node, 68);
        assert_eq!(c.service_cores, 4);
        assert_eq!(c.psm.ranks_per_node, 32);
        assert!(c.mem_per_node > 32 * (32 << 20));
    }

    #[test]
    fn validate_rejects_sharded_without_sinks() {
        let shape = JobShape {
            nodes: 4,
            ranks_per_node: 1,
        };
        let mut c = ClusterConfig::paper(OsConfig::McKernelHfi, shape);
        for mode in [FabricMode::PerPacket, FabricMode::Incast] {
            c.batch_fabric = mode;
            c.engine = EngineMode::SingleQueue;
            assert_eq!(c.validate(), Ok(()), "{mode:?}");
            c.engine = EngineMode::Sharded;
            let err = c.validate().err();
            assert_eq!(err.is_none(), mode == FabricMode::Incast, "{mode:?}");
            if let Some(e) = err {
                assert!(e.contains("requires batch_fabric = Incast"), "{e}");
            }
        }
    }

    #[test]
    fn validate_rejects_zero_sdma_cap() {
        let shape = JobShape {
            nodes: 2,
            ranks_per_node: 1,
        };
        let mut c = ClusterConfig::paper(OsConfig::McKernelHfi, shape);
        c.sdma_cap = 0;
        let e = c.validate().expect_err("sdma_cap = 0 must be rejected");
        assert!(e.contains("sdma_cap"), "{e}");
        c.sdma_cap = 1;
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_sharded_without_lookahead() {
        let shape = JobShape {
            nodes: 4,
            ranks_per_node: 1,
        };
        let mut c = ClusterConfig::paper(OsConfig::McKernelHfi, shape);
        c.fabric.base_latency = Ns::ZERO;
        assert_eq!(
            c.validate(),
            Ok(()),
            "the single-queue engine needs no lookahead"
        );
        c.engine = EngineMode::Sharded;
        let e = c.validate().expect_err("zero lookahead must be rejected");
        assert!(e.contains("fabric.base_latency"), "{e}");
        c.fabric.base_latency = Ns(1);
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_out_of_range_wheel_coarse_bits() {
        let shape = JobShape {
            nodes: 2,
            ranks_per_node: 1,
        };
        let mut c = ClusterConfig::paper(OsConfig::Linux, shape);
        for bits in [0, MAX_COARSE_BITS + 1] {
            c.wheel_coarse_bits = bits;
            let e = c
                .validate()
                .expect_err("out-of-range coarse bits must be rejected");
            assert!(e.contains("wheel_coarse_bits"), "{e}");
        }
        for bits in [1, MAX_COARSE_BITS] {
            c.wheel_coarse_bits = bits;
            assert_eq!(c.validate(), Ok(()), "{bits}");
        }
    }
}
