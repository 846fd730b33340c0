//! Simulated FastMessages (§3.5 of the paper).
//!
//! Millipage uses the Illinois FastMessages (FM) package on Myrinet: a
//! reliable, FIFO-ordered, user-level messaging layer with no kernel
//! transitions and no buffer copying on the send side. This crate models
//! the properties the DSM depends on:
//!
//! * **reliable FIFO delivery** between each pair of hosts ([`Network`],
//!   [`Endpoint`]), received by polling: [`Endpoint::recv`] never waits,
//!   and a server polls it when the scheduler runs it,
//! * the **latency model** fitted to the paper's measurements (25 µs
//!   round-trip for small messages, 180 µs for 4 KB — see
//!   [`sim_core::CostModel::msg_time`]),
//! * **virtual-time arrival stamps**: a message sent at virtual time `t`
//!   with `b` payload bytes arrives at `t + msg_time(b)`,
//! * the **polling service-delay model** ([`ServerTimeline`]): FM receives
//!   by polling, so a request that reaches a busy host waits for the
//!   sweeper thread's next (jittery) 1 ms timer tick — the effect §3.5.1
//!   blames for most of Millipage's 750 µs average fault service time,
//! * **per-link traffic** (messages, payload bytes) counted on every send
//!   ([`Network::link_traffic`]), the diagnostics report's link table.
//!
//! Data messages carry their payload as `bytes::Bytes`; the zero-copy
//! receive into the privileged view (§2.3.1) is performed by the DSM layer.
//!
//! Reliable FIFO delivery is a property FM *builds*, not one Myrinet
//! grants: an optional, seeded [`FaultPlane`] makes the raw wire drop,
//! duplicate, jitter and reorder packets, and the fabric then earns the
//! guarantee back with per-link sequence numbers, cumulative acks,
//! virtual-time retransmission with exponential backoff, and receive-side
//! dedup/resequencing buffers (see [`net`](self) module docs). A packet
//! the plane holds back to reorder it has one rescue: the scheduler's
//! quiet point flushes it through the fabric's delivery gate
//! ([`Network::gate`]). The plane is inert by default.

mod fault;
mod net;
mod timeline;

pub use fault::{
    FaultPlane, ScriptedFault, ScriptedKind, SendReceipt, DEFAULT_MAX_RETRANSMITS, DEFAULT_RTO_NS,
};
pub use net::{Endpoint, NetStats, Network, Packet};
pub use timeline::ServerTimeline;
