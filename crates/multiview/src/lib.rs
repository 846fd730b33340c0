//! The MultiView technique (§2 of the paper).
//!
//! MultiView maps one memory object into several *views* so that the same
//! physical page can carry several independently-protected *minipages*.
//! This crate implements everything §2 describes on top of the simulated
//! virtual memory of `sim-mem`:
//!
//! * [`Minipage`] descriptors and the minipage table ([`Mpt`]) that the
//!   manager keeps (§2.3, §3.3),
//! * the **dynamic layout** allocator (§2.3): every `malloc` defines its
//!   own minipage, small allocations on the same physical page are handed
//!   out through different views, large allocations stay contiguous,
//! * **chunking** (§4.4): aggregating several consecutive allocations into
//!   one larger minipage, trading false sharing for fewer faults,
//! * the **page-granularity baseline** ("no false-sharing control", the
//!   classical page-based DSM arrangement used as the `none` point in
//!   Figure 7),
//! * the **static layout** (§2.3): k equal minipages per page, for
//!   global-memory-system style sub-page transfer units.
//!
//! §5's **composed views** — groups of minipages acquired as one coarse
//! unit — are a DSM operation, not a layout: the `millipage` crate's
//! `HostCtx::fetch_group`.

mod alloc;
mod layout;
mod minipage;
mod mpt;

pub use alloc::{AllocError, AllocMode, AllocStats, Allocator};
pub use layout::static_layout;
pub use minipage::{Minipage, MinipageId};
pub use mpt::{Mpt, SharedMpt};
