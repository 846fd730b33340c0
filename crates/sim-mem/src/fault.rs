//! Memory-system errors. Protections, access kinds and the access-fault
//! record are `sim_core::access`'s, re-exported from the crate root.

use sim_core::VAddr;
use std::fmt;

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
    fn error_messages_are_informative() {
        let e = MemError::OutOfRange {
            addr: VAddr(0x10),
            len: 8,
        };
        assert!(e.to_string().contains("0x10"));
        let p = MemError::PrivilegedViewProtection { vpage: 5 };
        assert!(p.to_string().contains("privileged"));
    }
}
