//! Millipage — a thin-layer fine-grain page-based DSM (§3 of the paper).
//!
//! Millipage implements **Sequential Consistency** through the
//! Single-Writer/Multiple-Readers protocol of Figure 3: at any point in
//! time, for any minipage, there are either read copies or a single
//! writable copy. The DSM layer is deliberately *thin*: no page twinning,
//! no diffs, no code instrumentation, no queuing at non-manager hosts —
//! just a simple protocol handling access faults, made possible by
//! MultiView's per-minipage protection.
//!
//! The crate runs a whole simulated cluster inside one process:
//!
//! * [`ClusterConfig`] + [`run`] spawn one application thread per
//!   simulated host; a host's DSM server has no thread of its own — its
//!   handlers run on whichever application thread holds the schedule;
//! * application code receives a [`HostCtx`] and uses the malloc-like
//!   allocation API, typed [`SharedVec`]/[`SharedCell`] accessors,
//!   [`HostCtx::barrier`], [`HostCtx::lock`]/[`HostCtx::unlock`],
//!   [`HostCtx::prefetch_vec`] and [`HostCtx::push_cell`];
//! * every virtual nanosecond is attributed to a Figure 6 category, and a
//!   [`RunReport`] collects the counters every experiment needs.
//!
//! Extensions from §5 of the paper: run-length diffs ([`diff`]) and a
//! home-based eager release-consistency mode ([`hlrc`]) used for the
//! SC-vs-relaxed ablation.

// Whether planted bug `Mutant::$m` (see `mutants`) is selected on the
// calling thread: the constant `false` without the `mutants` feature.
#[cfg(feature = "mutants")]
macro_rules! mutant {
    ($m:ident) => {
        $crate::mutants::selected() == Some($crate::mutants::Mutant::$m)
    };
}
#[cfg(not(feature = "mutants"))]
macro_rules! mutant {
    ($m:ident) => {
        false
    };
}

pub mod adapt;
pub mod audit;
mod backend;
mod cluster;
pub mod diag;
pub mod diff;
mod directory;
mod dsm;
mod error;
pub mod explore;
pub mod hlrc;
mod home;
mod host;
#[cfg(target_os = "linux")]
pub mod hostrun;
mod manager;
mod msg;
#[cfg(feature = "mutants")]
pub mod mutants;
mod probe;
mod server;
mod shared;
mod stats;

pub use adapt::{AdaptAction, AdaptConfig, AdaptEvent, AdaptReport};
pub use backend::{MemoryBackend, Transport};
pub use cluster::{run, ClusterConfig, ParallelConfig, SetupCtx};
pub use diag::{DiagReport, DiagTable, Finding, LinkStat, MinipageDiag};
pub use directory::{Directory, DirectoryEntry};
pub use dsm::Dsm;
pub use error::ProtocolError;
pub use hlrc::Consistency;
pub use home::{HomePolicyKind, HomeTable};
pub use host::HostCtx;
#[cfg(target_os = "linux")]
pub use hostrun::{run_host, HostDsmCtx, HostRunConfig, HostRunReport};
pub use msg::{MsgKind, Pmsg};
pub use shared::{Pod, SharedCell, SharedVec};
pub use stats::{HostReport, NetFaultStats, RunReport, ShardStats};

pub use audit::{audit, AuditMode};

pub use explore::{explore, replay_repro, ExploreOpts, ExploreOutcome, MinimizedRepro};
pub use sim_core::sched::{SchedMode, SchedPolicy};
pub use sim_net::{FaultPlane, ScriptedFault, ScriptedKind};

// Re-exports the applications and harnesses keep reaching for.
pub use multiview::{AllocMode, AllocStats};
pub use sim_core::{
    json, Category, ChromeTrace, CostModel, HostId, LogHistogram, MemFault, Ns, TimeBreakdown,
    TraceEvent, TraceKind, TraceLog, Tracer, Track, VAddr,
};
