//! System-call delegation: the LWK forwards a syscall over IKC, the proxy
//! process executes it on one of the few Linux service cores, and the
//! result travels back. This is the mechanism whose cost — especially the
//! *contention* on 4 Linux CPUs serving up to 64 ranks — PicoDriver
//! removes from the fast path.

use crate::ikc::IkcConfig;
use pico_sim::{Ns, ServerPool};

/// The outcome of one offloaded call, fully scheduled at submission time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OffloadGrant {
    /// When the request reaches Linux and is runnable.
    pub arrive: Ns,
    /// When a Linux service core starts executing it.
    pub start: Ns,
    /// When execution finishes on Linux.
    pub linux_done: Ns,
    /// When the reply is visible on the LWK (the caller resumes here).
    pub complete: Ns,
}

impl OffloadGrant {
    /// Queueing delay attributable purely to service-core contention.
    pub fn queue_wait(&self) -> Ns {
        self.start - self.arrive
    }
}

/// The delegation engine for one node: an IKC latency model in front of a
/// FIFO pool of Linux service cores.
pub struct Delegator {
    cfg: IkcConfig,
    pool: ServerPool,
    offloaded: u64,
}

impl Delegator {
    /// A delegator served by `service_cores` Linux CPUs.
    pub fn new(cfg: IkcConfig, service_cores: usize) -> Delegator {
        Delegator {
            cfg,
            pool: ServerPool::new(service_cores),
            offloaded: 0,
        }
    }

    /// Number of Linux service cores.
    pub fn service_cores(&self) -> usize {
        self.pool.servers()
    }

    /// Offload a call issued at `now` whose Linux-side handling takes
    /// `service`. The service core is additionally occupied for the
    /// proxy overhead (context switches, cache pollution, reply).
    /// Returns the complete schedule.
    pub fn offload(&mut self, now: Ns, service: Ns) -> OffloadGrant {
        let arrive = now + self.cfg.one_way + self.cfg.proxy_dispatch;
        // Context-switch thrash: the longer the backlog at the service
        // pool, the more proxies are being juggled per core and the more
        // cache/TLB state each call has to rebuild.
        let backlog = self.pool.would_start(arrive).saturating_sub(arrive);
        let thrash = Ns((backlog.0 / self.cfg.thrash_div.max(1)).min(self.cfg.thrash_cap.0));
        let grant = self
            .pool
            .submit(arrive, service + self.cfg.proxy_service + thrash);
        let complete = grant.finish + self.cfg.one_way;
        self.offloaded += 1;
        OffloadGrant {
            arrive,
            start: grant.start,
            linux_done: grant.finish,
            complete,
        }
    }

    /// Schedule non-syscall service work (e.g. an SDMA completion IRQ
    /// handler) on the same Linux service cores: IRQ load contends with
    /// offloaded system calls for the few Linux CPUs.
    pub fn service(&mut self, now: Ns, work: Ns) -> pico_sim::Grant {
        self.pool.submit(now, work)
    }

    /// Total calls offloaded.
    pub fn offloaded(&self) -> u64 {
        self.offloaded
    }

    /// Total queueing delay suffered at the service pool.
    pub fn total_queue_wait(&self) -> Ns {
        self.pool.total_wait()
    }

    /// Busy time of the Linux service cores.
    pub fn service_busy(&self) -> Ns {
        self.pool.busy_time()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delegator(cores: usize) -> Delegator {
        Delegator::new(
            IkcConfig {
                one_way: Ns(1000),
                proxy_dispatch: Ns(500),
                proxy_service: Ns::ZERO,
                thrash_div: 4,
                thrash_cap: Ns::ZERO,
            },
            cores,
        )
    }

    #[test]
    fn uncontended_offload_is_round_trip_plus_service() {
        let mut d = delegator(4);
        let g = d.offload(Ns(0), Ns(2000));
        assert_eq!(g.arrive, Ns(1500));
        assert_eq!(g.start, Ns(1500));
        assert_eq!(g.linux_done, Ns(3500));
        assert_eq!(g.complete, Ns(4500));
        assert_eq!(g.queue_wait(), Ns::ZERO);
    }

    #[test]
    fn contention_on_few_cores_amplifies_cost() {
        // The paper's central effect: 64 ranks, 4 service cores.
        let mut d = delegator(4);
        let mut last = Ns::ZERO;
        for _ in 0..64 {
            let g = d.offload(Ns(0), Ns(10_000));
            last = last.max(g.complete);
        }
        // 64 jobs of 10 µs on 4 cores: the last waits ~15 service slots.
        let uncontended = Ns(1500 + 10_000 + 1000);
        assert!(
            last >= uncontended * 10,
            "contention should dominate: {last}"
        );
        assert!(d.total_queue_wait() > Ns::ZERO);
        // With 64 cores the same load is uncontended.
        let mut wide = delegator(64);
        let mut last_wide = Ns::ZERO;
        for _ in 0..64 {
            let g = wide.offload(Ns(0), Ns(10_000));
            last_wide = last_wide.max(g.complete);
        }
        assert_eq!(last_wide, uncontended);
        assert_eq!(wide.total_queue_wait(), Ns::ZERO);
    }

    #[test]
    fn stats_accumulate_per_syscall() {
        let mut d = delegator(2);
        for _ in 0..3 {
            d.offload(Ns(0), Ns(100));
        }
        assert_eq!(d.offloaded(), 3);
        assert_eq!(d.service_busy(), Ns(300));
    }
}
