//! Core-owned wire-fault configuration.
//!
//! The cluster config used to expose `sim_net::FaultPlane` directly, which
//! leaked a backend type through `core`'s public API. [`WireFaults`] is the
//! protocol layer's own vocabulary for "how unreliable is the wire";
//! the sim transport converts it into its internal fault plane, and other
//! transports are free to ignore the knobs they cannot model (the host
//! backend's in-process inbox does not inject drops).

use sim_core::{HostId, Ns};
use sim_net::{FaultPlane, ScriptedFault, ScriptedKind};

/// Default virtual-time retransmission timeout (≈ four small-message round
/// trips at the paper's 25 µs RTT).
pub const DEFAULT_RTO_NS: Ns = sim_net::DEFAULT_RTO_NS;

/// Default retransmit budget before a send surfaces as lost.
pub const DEFAULT_MAX_RETRANSMITS: u32 = sim_net::DEFAULT_MAX_RETRANSMITS;

/// Seeded wire-fault injection: per-link drop / duplicate / reorder /
/// jitter probabilities plus scripted one-shot faults, and the
/// reliable-channel parameters that compensate for them.
///
/// A disabled config is inert: the sim fabric takes the exact
/// pre-fault-plane code path, keeping traces byte-identical to a build
/// without fault injection.
#[derive(Clone, Debug, PartialEq)]
pub struct WireFaults {
    /// Probability that any single transmission is lost on the wire.
    pub drop: f64,
    /// Probability that a delivered packet is duplicated in flight.
    pub dup: f64,
    /// Probability that a delivered packet arrives out of order.
    pub reorder: f64,
    /// Uniform extra delivery delay in `[0, jitter_ns)` virtual ns.
    pub jitter_ns: Ns,
    /// Initial virtual-time retransmission timeout; doubles per retry.
    pub rto_ns: Ns,
    /// Retransmissions attempted before the send surfaces as lost.
    pub max_retransmits: u32,
    /// Seed for the per-link fault streams.
    pub seed: u64,
    /// One-shot scripted faults, matched at send time in order.
    pub scripted: Vec<WireFault>,
}

impl Default for WireFaults {
    fn default() -> Self {
        Self::disabled()
    }
}

impl WireFaults {
    /// A config that injects nothing and leaves the fabric untouched.
    pub fn disabled() -> Self {
        Self {
            drop: 0.0,
            dup: 0.0,
            reorder: 0.0,
            jitter_ns: 0,
            rto_ns: DEFAULT_RTO_NS,
            max_retransmits: DEFAULT_MAX_RETRANSMITS,
            seed: 0,
            scripted: Vec::new(),
        }
    }

    /// A probabilistic config with the default RTO and retransmit budget.
    pub fn lossy(seed: u64, drop: f64, dup: f64, reorder: f64) -> Self {
        Self {
            drop,
            dup,
            reorder,
            seed,
            ..Self::disabled()
        }
    }

    /// Whether any fault can ever fire.
    pub fn is_active(&self) -> bool {
        self.drop > 0.0
            || self.dup > 0.0
            || self.reorder > 0.0
            || self.jitter_ns > 0
            || !self.scripted.is_empty()
    }

    /// Conversion into the sim transport's internal fault plane.
    pub(crate) fn to_plane(&self) -> FaultPlane {
        FaultPlane {
            drop: self.drop,
            dup: self.dup,
            reorder: self.reorder,
            jitter_ns: self.jitter_ns,
            rto_ns: self.rto_ns,
            max_retransmits: self.max_retransmits,
            seed: self.seed,
            scripted: self
                .scripted
                .iter()
                .map(|s| ScriptedFault {
                    from: s.from,
                    to: s.to,
                    nth: s.nth,
                    kind: match s.kind {
                        WireFaultKind::DropOnce => ScriptedKind::DropOnce,
                        WireFaultKind::Blackhole => ScriptedKind::Blackhole,
                    },
                })
                .collect(),
        }
    }
}

/// What a scripted fault does to the packet it matches.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WireFaultKind {
    /// Lose the first transmission; the retransmission proceeds normally.
    DropOnce,
    /// Lose every transmission: the send exhausts its retransmit budget
    /// and surfaces as a timeout at the protocol layer.
    Blackhole,
}

/// A one-shot fault targeting the `nth` matching packet on a link
/// (`None` filters match any host).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireFault {
    /// Sending host filter, or `None` for any sender.
    pub from: Option<HostId>,
    /// Destination host filter, or `None` for any destination.
    pub to: Option<HostId>,
    /// 1-based index of the matching packet to hit.
    pub nth: u64,
    /// What to do to it.
    pub kind: WireFaultKind,
}

impl WireFault {
    /// Loses the `nth` packet from `from` to `to` once.
    pub fn drop_nth(from: HostId, to: HostId, nth: u64) -> Self {
        Self {
            from: Some(from),
            to: Some(to),
            nth,
            kind: WireFaultKind::DropOnce,
        }
    }

    /// Permanently loses the `nth` packet from `from` to `to` (all
    /// retransmissions included).
    pub fn blackhole_nth(from: HostId, to: HostId, nth: u64) -> Self {
        Self {
            from: Some(from),
            to: Some(to),
            nth,
            kind: WireFaultKind::Blackhole,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_inert_and_roundtrips() {
        let w = WireFaults::disabled();
        assert!(!w.is_active());
        assert!(!w.to_plane().is_active());
    }

    #[test]
    fn lossy_and_scripted_convert_faithfully() {
        let mut w = WireFaults::lossy(13, 0.01, 0.005, 0.02);
        w.scripted
            .push(WireFault::blackhole_nth(HostId(1), HostId(0), 3));
        w.scripted
            .push(WireFault::drop_nth(HostId(2), HostId(0), 1));
        assert!(w.is_active());
        let p = w.to_plane();
        assert_eq!(p.drop, 0.01);
        assert_eq!(p.seed, 13);
        assert_eq!(p.scripted.len(), 2);
        assert_eq!(p.scripted[0].kind, ScriptedKind::Blackhole);
        assert_eq!(p.scripted[1].kind, ScriptedKind::DropOnce);
        assert_eq!(p.scripted[0].nth, 3);
    }
}
