//! The access-fault vocabulary every backend speaks: what an access is,
//! what a vpage's protection permits, the fault a denied access raises —
//! one record whether the MMU is simulated or real (§3.5.1) — and the
//! error a memory operation fails with.

use crate::addr::VAddr;
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
    #[inline]
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

impl Access {
    /// x86 page-fault error-code bit 1 (W/R): the access was a write.
    /// Bits 0 (present), 2 (user), 3 (reserved bit) and 4 (instruction
    /// fetch) say nothing about the access kind.
    pub const X86_WRITE: u64 = 1 << 1;

    /// The access an x86 page fault reports in its error code.
    #[inline]
    pub fn from_x86_error_code(code: u64) -> Access {
        if code & Self::X86_WRITE != 0 {
            Access::Write
        } else {
            Access::Read
        }
    }
}

impl fmt::Display for Access {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Access::Read => write!(f, "read"),
            Access::Write => write!(f, "write"),
        }
    }
}

/// An access fault, as the DSM's exception handler receives it: the
/// canonical shared address (the same on every host, §2.4), its global
/// vpage index and the access kind. The simulator raises it from its
/// protection check; the real-memory backend decodes it from a SIGSEGV.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Fault {
    /// The faulting virtual address.
    pub addr: VAddr,
    /// Global vpage index of the faulting vpage.
    pub vpage: usize,
    /// Load or store.
    pub access: Access,
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} fault at {} (vpage {})",
            self.access, self.addr, self.vpage
        )
    }
}

/// Why a memory operation failed, on either backend. The protocol layer
/// turns it into a `ProtocolError` carrying the message context.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MemFault {
    /// The address (or the range it starts) lies outside every view, or a
    /// range crosses the end of the memory object.
    OutOfRange {
        /// Offending address.
        addr: VAddr,
        /// Length of the attempted access.
        len: usize,
    },
    /// A protection change targeted a privileged-view vpage, which is
    /// fixed at `ReadWrite` (§2.3.1).
    Privileged {
        /// The privileged vpage whose protection was targeted.
        vpage: usize,
    },
}

impl fmt::Display for MemFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemFault::OutOfRange { addr, len } => {
                write!(f, "address range {addr}+{len} outside the shared region")
            }
            MemFault::Privileged { vpage } => {
                write!(f, "privileged view protection is immutable (vpage {vpage})")
            }
        }
    }
}

impl std::error::Error for MemFault {}

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

    /// Every combination of the five architectural error-code bits:
    /// present (0), write (1), user (2), reserved (3), fetch (4). Only
    /// bit 1 decides the access.
    #[test]
    fn x86_error_code_bit_1_alone_means_write() {
        const PRESENT: u64 = 1 << 0;
        const USER: u64 = 1 << 2;
        const RSVD: u64 = 1 << 3;
        const FETCH: u64 = 1 << 4;
        assert_eq!(Access::X86_WRITE, 0b10);
        for code in 0..32u64 {
            let expect = if code & 0b10 != 0 {
                Access::Write
            } else {
                Access::Read
            };
            let got = Access::from_x86_error_code(code);
            assert_eq!(got, expect, "error code {code:#07b}");
        }
        // The cases a user-mode DSM sees: not present or protection, user.
        assert_eq!(Access::from_x86_error_code(USER), Access::Read);
        assert_eq!(
            Access::from_x86_error_code(PRESENT | Access::X86_WRITE | USER),
            Access::Write
        );
        assert_eq!(
            Access::from_x86_error_code(PRESENT | USER | FETCH),
            Access::Read
        );
        assert_eq!(
            Access::from_x86_error_code(RSVD | Access::X86_WRITE),
            Access::Write
        );
    }

    #[test]
    fn a_fault_says_what_where_and_which_vpage() {
        let f = Fault {
            addr: VAddr(0x20),
            vpage: 3,
            access: Access::Write,
        };
        assert_eq!(f.to_string(), "write fault at 0x20 (vpage 3)");
    }

    #[test]
    fn a_mem_fault_says_what_failed_and_where() {
        let e = MemFault::OutOfRange {
            addr: VAddr(0x10),
            len: 8,
        };
        assert!(e.to_string().contains("0x10"));
        let p = MemFault::Privileged { vpage: 5 };
        assert!(p.to_string().contains("privileged"));
    }
}
