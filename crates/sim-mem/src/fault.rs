//! Protections, access kinds, and fault/error types.

use sim_core::VAddr;
use std::fmt;

/// Per-vpage protection, exactly the three states §2.2 uses:
/// "A NoAccess protection indicates a non-present minipage, a ReadOnly
/// protection is set for read copies, and a writable copy gets a ReadWrite
/// protection."
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
#[repr(u8)]
pub enum Prot {
    /// The minipage is not present on this host.
    #[default]
    NoAccess = 0,
    /// A read copy is present.
    ReadOnly = 1,
    /// The (single) writable copy is present.
    ReadWrite = 2,
}

impl Prot {
    /// Whether this protection permits `access`.
    #[inline]
    pub fn allows(self, access: Access) -> bool {
        match access {
            Access::Read => self != Prot::NoAccess,
            Access::Write => self == Prot::ReadWrite,
        }
    }

    /// Decodes the `repr(u8)` value; inverse of `as u8`.
    pub fn from_u8(v: u8) -> Option<Prot> {
        match v {
            0 => Some(Prot::NoAccess),
            1 => Some(Prot::ReadOnly),
            2 => Some(Prot::ReadWrite),
            _ => None,
        }
    }
}

/// The kind of memory access an application performs.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Access {
    /// A load.
    Read,
    /// A store.
    Write,
}

impl fmt::Display for Access {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Access::Read => write!(f, "read"),
            Access::Write => write!(f, "write"),
        }
    }
}

/// An access fault: the simulated equivalent of the hardware page fault the
/// DSM's exception handler receives.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AccessFault {
    /// The faulting virtual address.
    pub addr: VAddr,
    /// Load or store.
    pub access: Access,
    /// Global vpage index of the faulting vpage.
    pub vpage: usize,
}

impl fmt::Display for AccessFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} fault at {} (vpage {})",
            self.access, self.addr, self.vpage
        )
    }
}

/// Errors from the simulated memory system.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MemError {
    /// The address (or the range it starts) lies outside every view, or a
    /// range crosses the end of the memory object.
    OutOfRange {
        /// Offending address.
        addr: VAddr,
        /// Length of the attempted access.
        len: usize,
    },
    /// Attempted to change the protection of a privileged-view vpage,
    /// which is fixed at `ReadWrite` (§2.3.1).
    PrivilegedViewProtection {
        /// The privileged vpage whose protection was targeted.
        vpage: usize,
    },
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::OutOfRange { addr, len } => {
                write!(f, "address range {addr}+{len} outside the shared region")
            }
            MemError::PrivilegedViewProtection { vpage } => {
                write!(f, "privileged view protection is immutable (vpage {vpage})")
            }
        }
    }
}

impl std::error::Error for MemError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protection_lattice_allows() {
        assert!(!Prot::NoAccess.allows(Access::Read));
        assert!(!Prot::NoAccess.allows(Access::Write));
        assert!(Prot::ReadOnly.allows(Access::Read));
        assert!(!Prot::ReadOnly.allows(Access::Write));
        assert!(Prot::ReadWrite.allows(Access::Read));
        assert!(Prot::ReadWrite.allows(Access::Write));
    }

    #[test]
    fn prot_u8_roundtrip() {
        for p in [Prot::NoAccess, Prot::ReadOnly, Prot::ReadWrite] {
            assert_eq!(Prot::from_u8(p as u8), Some(p));
        }
        assert_eq!(Prot::from_u8(3), None);
    }

    #[test]
    fn error_messages_are_informative() {
        let e = MemError::OutOfRange {
            addr: VAddr(0x10),
            len: 8,
        };
        assert!(e.to_string().contains("0x10"));
        let p = MemError::PrivilegedViewProtection { vpage: 5 };
        assert!(p.to_string().contains("privileged"));
        let f = AccessFault {
            addr: VAddr(0x20),
            access: Access::Write,
            vpage: 3,
        };
        assert!(f.to_string().contains("write fault"));
    }
}
