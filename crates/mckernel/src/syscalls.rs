//! McKernel's system-call routing table.
//!
//! McKernel implements only a small set of performance-sensitive calls
//! locally (its own memory management, scheduling, signals); everything
//! else is delegated to Linux. The HFI PicoDriver adds a third route:
//! `writev` (SDMA submit) and the TID-registration subset of `ioctl`
//! become LWK-local fast paths while the *rest* of `ioctl`'s dozen-plus
//! commands keep going to the unmodified Linux driver.

use pico_ihk::{SyscallRoute, Sysno};

/// `ioctl` command space of the HFI1 driver. The driver implements over a
/// dozen commands; exactly three concern expected-receive buffers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HfiIoctlCmd {
    /// Assign context (device init).
    AssignCtxt,
    /// Context info query.
    CtxtInfo,
    /// User info query.
    UserInfo,
    /// Credit update ack.
    AckEvent,
    /// Set PKey.
    SetPkey,
    /// Reset context.
    CtxtReset,
    /// **TID**: register expected-receive buffers (fast-path candidate).
    TidUpdate,
    /// **TID**: unregister expected-receive buffers (fast-path candidate).
    TidFree,
    /// **TID**: invalidate cached TID entries (fast-path candidate).
    TidInvalRead,
    /// Get fabric link info.
    GetVers,
}

impl HfiIoctlCmd {
    /// Whether this command is one of the three TID operations the
    /// PicoDriver ports to the LWK.
    pub fn is_tid_op(self) -> bool {
        matches!(
            self,
            HfiIoctlCmd::TidUpdate | HfiIoctlCmd::TidFree | HfiIoctlCmd::TidInvalRead
        )
    }

    /// All commands.
    pub const ALL: [HfiIoctlCmd; 10] = [
        HfiIoctlCmd::AssignCtxt,
        HfiIoctlCmd::CtxtInfo,
        HfiIoctlCmd::UserInfo,
        HfiIoctlCmd::AckEvent,
        HfiIoctlCmd::SetPkey,
        HfiIoctlCmd::CtxtReset,
        HfiIoctlCmd::TidUpdate,
        HfiIoctlCmd::TidFree,
        HfiIoctlCmd::TidInvalRead,
        HfiIoctlCmd::GetVers,
    ];
}

/// The routing table of one McKernel instance: one bit per [`Sysno`] in
/// each mask, so a route costs one AND and the table is `Copy`.
#[derive(Clone, Copy, Debug)]
pub struct SyscallTable {
    local: u16,
    /// Fast-path syscalls added by a PicoDriver port.
    fastpath: u16,
}

// Every syscall needs its own bit in a `u16` mask.
const _: () = assert!(Sysno::ALL.len() <= 16);

const fn bit(nr: Sysno) -> u16 {
    1 << nr as u16
}

impl SyscallTable {
    /// The baseline McKernel table: local memory management, scheduling
    /// and signal calls; device/file calls offloaded.
    pub const fn base() -> SyscallTable {
        SyscallTable {
            local: bit(Sysno::Mmap)
                | bit(Sysno::Munmap)
                | bit(Sysno::Nanosleep)
                | bit(Sysno::Futex),
            fastpath: 0,
        }
    }

    /// The table with the HFI PicoDriver loaded: `writev` and the TID
    /// `ioctl` subset become fast paths.
    pub const fn with_hfi_picodriver() -> SyscallTable {
        SyscallTable {
            fastpath: bit(Sysno::Writev) | bit(Sysno::Ioctl),
            ..SyscallTable::base()
        }
    }

    /// Route a plain syscall.
    pub fn route(self, nr: Sysno) -> SyscallRoute {
        if self.local & bit(nr) != 0 {
            SyscallRoute::Local
        } else {
            self.route_device(nr)
        }
    }

    /// Route a call on a device file: the device belongs to the Linux
    /// driver, so it is offloaded even where the LWK handles the plain
    /// call itself (a device-region `mmap` is not an anonymous one),
    /// unless a PicoDriver port made it a fast path.
    pub fn route_device(self, nr: Sysno) -> SyscallRoute {
        if self.fastpath & bit(nr) != 0 {
            SyscallRoute::FastPath
        } else {
            SyscallRoute::Offloaded
        }
    }

    /// Route an `ioctl` with a specific command: only the three TID
    /// commands take the fast path even when the PicoDriver is loaded —
    /// every other command transparently reaches the Linux driver.
    pub fn route_ioctl(self, cmd: HfiIoctlCmd) -> SyscallRoute {
        if cmd.is_tid_op() {
            self.route_device(Sysno::Ioctl)
        } else {
            SyscallRoute::Offloaded
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_table_routes() {
        let t = SyscallTable::base();
        assert_eq!(t.route(Sysno::Mmap), SyscallRoute::Local);
        assert_eq!(t.route(Sysno::Munmap), SyscallRoute::Local);
        assert_eq!(t.route(Sysno::Writev), SyscallRoute::Offloaded);
        assert_eq!(t.route(Sysno::Ioctl), SyscallRoute::Offloaded);
        assert_eq!(t.route(Sysno::Open), SyscallRoute::Offloaded);
        assert_eq!(t.route(Sysno::Read), SyscallRoute::Offloaded);
        assert_eq!(t.route_device(Sysno::Mmap), SyscallRoute::Offloaded);
        assert_eq!(t.route_device(Sysno::Open), SyscallRoute::Offloaded);
        assert_eq!(t.route_device(Sysno::Writev), SyscallRoute::Offloaded);
    }

    #[test]
    fn picodriver_adds_fast_paths() {
        let t = SyscallTable::with_hfi_picodriver();
        assert_eq!(t.route(Sysno::Writev), SyscallRoute::FastPath);
        assert_eq!(t.route(Sysno::Ioctl), SyscallRoute::FastPath);
        // Slow-path calls stay offloaded: no driver porting needed.
        assert_eq!(t.route(Sysno::Open), SyscallRoute::Offloaded);
        assert_eq!(t.route(Sysno::Poll), SyscallRoute::Offloaded);
        assert_eq!(t.route(Sysno::Mmap), SyscallRoute::Local);
        // A device-region mmap still reaches the Linux driver.
        assert_eq!(t.route_device(Sysno::Mmap), SyscallRoute::Offloaded);
        assert_eq!(t.route_device(Sysno::Close), SyscallRoute::Offloaded);
        assert_eq!(t.route_device(Sysno::Writev), SyscallRoute::FastPath);
    }

    #[test]
    fn only_tid_ioctls_take_the_fast_path() {
        let t = SyscallTable::with_hfi_picodriver();
        assert_eq!(
            t.route_ioctl(HfiIoctlCmd::TidUpdate),
            SyscallRoute::FastPath
        );
        assert_eq!(t.route_ioctl(HfiIoctlCmd::TidFree), SyscallRoute::FastPath);
        assert_eq!(
            t.route_ioctl(HfiIoctlCmd::TidInvalRead),
            SyscallRoute::FastPath
        );
        // The other dozen-odd commands still reach the Linux driver.
        assert_eq!(
            t.route_ioctl(HfiIoctlCmd::AssignCtxt),
            SyscallRoute::Offloaded
        );
        assert_eq!(t.route_ioctl(HfiIoctlCmd::SetPkey), SyscallRoute::Offloaded);
        let tid_count = HfiIoctlCmd::ALL.iter().filter(|c| c.is_tid_op()).count();
        assert_eq!(tid_count, 3);
    }

    #[test]
    fn base_table_never_fast_paths_ioctls() {
        let t = SyscallTable::base();
        for cmd in HfiIoctlCmd::ALL {
            assert_eq!(t.route_ioctl(cmd), SyscallRoute::Offloaded);
        }
    }
}
