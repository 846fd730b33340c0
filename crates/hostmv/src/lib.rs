//! Real-OS MultiView (§2.4 of the paper), on Linux.
//!
//! The paper implements MultiView on Windows NT with `CreateFileMapping` +
//! `MapViewOfFile` + `VirtualProtect` and a user-level exception handler.
//! This crate performs the identical trick with the POSIX equivalents:
//!
//! * `memfd_create` — the memory object backed by anonymous memory,
//! * N+1 `mmap(MAP_SHARED)` calls over the same fd — the views (the last
//!   one left permanently `PROT_READ|PROT_WRITE`: the privileged view),
//! * `mprotect` — independent per-vpage protection within each view (a
//!   region's set-up protections may be staged and land in runs),
//! * a `SIGSEGV` handler — the access-fault hook that a DSM uses to run
//!   its coherence protocol; here it implements the protection-upgrade
//!   ladder (`NoAccess → ReadOnly → ReadWrite`) and counts faults.
//!
//! The crate demonstrates that MultiView is a real mechanism, not a
//! simulation artifact: the same physical byte is covered by different
//! protections through different views, a store through one view faults
//! while a load through another proceeds, and the privileged view updates
//! memory while application views are sealed. The simulated DSM in the
//! `millipage` crate builds on exactly these semantics.
//!
//! Non-Linux targets get an empty crate.

#[cfg(target_os = "linux")]
mod error;
#[cfg(target_os = "linux")]
mod fault;
#[cfg(target_os = "linux")]
mod region;

#[cfg(target_os = "linux")]
pub use error::HostMvError;
#[cfg(target_os = "linux")]
pub use fault::{
    free_slots, install_dsm_handler, install_handler, FaultCounters, FaultResolver, RawFault,
};
#[cfg(target_os = "linux")]
pub use region::{HostProt, MultiViewRegion};
