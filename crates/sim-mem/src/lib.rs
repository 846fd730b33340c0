//! Simulated virtual memory with MultiView semantics.
//!
//! This crate models exactly the part of Windows NT that the paper's
//! MultiView technique relies on (§2.4):
//!
//! * a **memory object** — a region of physical pages backed by the paging
//!   file (`CreateFileMapping`),
//! * several **views** of that object mapped at distinct virtual address
//!   ranges (`MapViewOfFile`), all windows onto the *same* physical pages,
//! * independent per-**vpage** protection (`VirtualProtect`): the same
//!   physical page can be `ReadWrite` through one view and `NoAccess`
//!   through another,
//! * **access faults** raised when an application touches a vpage whose
//!   protection does not permit the access, and
//! * a **privileged view** whose protection is permanently `ReadWrite`,
//!   used by DSM server threads for atomic updates and zero-copy receive.
//!
//! One [`AddressSpace`] instance represents one simulated host's mapping of
//! the shared memory object. All hosts share one [`Geometry`], so a virtual
//! address means the same thing everywhere and no translation is needed
//! between hosts — the property §2.4 obtains by "carefully configuring the
//! DSM addresses". A view is reserved address space: as NT creates
//! page-table entries only for the vpages it maps, a space keeps
//! protections and page storage in fixed-size chunks made on first touch
//! (a protection set, a page written), so a host costs what it touches.
//! An absent chunk reads `NoAccess`, or zeros; the privileged view has no
//! entries and reads `ReadWrite`.
//!
//! The real-OS counterpart of this crate (actual `mmap`/`mprotect`/SIGSEGV)
//! lives in the `hostmv` crate.

mod space;

// The address, access-fault and memory-error vocabulary lives in
// `sim-core` (backends real and simulated share it); re-exported here so
// memory-layer callers keep one import path.
pub use sim_core::{
    Access, Fault, Geometry, Loc, MemFault, Prot, VAddr, DEFAULT_BASE, DEFAULT_PAGE_SIZE,
};
pub use space::{AccessError, AddressSpace};
