//! Typed protocol failures.
//!
//! Pre-fault-plane, `core::{server,manager}` assumed FM's reliable wire and
//! enforced every protocol invariant with `unwrap()`/`expect()`: a lost
//! peer, an exhausted retransmit budget, or a malformed reply killed the
//! DSM server thread outright, and every application thread blocked on it
//! hung forever. [`ProtocolError`] replaces those aborts: handlers degrade
//! by recording the error (surfaced on `RunReport::protocol_errors`),
//! nacking the requester where one is blocked, and cancelling the
//! cluster's outstanding waiters so a failed run terminates cleanly.

use sim_core::HostId;

/// A protocol-level failure that is reported instead of panicking the
/// server thread or hanging the cluster.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtocolError {
    /// A message outlived its retransmit budget: the wire gave up on it.
    Timeout {
        /// Host that gave up.
        host: HostId,
        /// What was being waited for / sent.
        what: &'static str,
        /// Protocol event id, or 0.
        event: u64,
    },
    /// A reply arrived for which no waiter is registered (stale or
    /// duplicated beyond what the dedup layer can pair up).
    NoWaiter {
        /// Host that received the orphan reply.
        host: HostId,
        /// The reply's protocol event id.
        event: u64,
        /// The reply's message kind.
        kind: &'static str,
    },
    /// A message named an address or range no minipage covers.
    BadTranslation {
        /// Host that failed the translation.
        host: HostId,
        /// The offending global address.
        addr: usize,
        /// Which lookup failed.
        what: &'static str,
    },
    /// A message body failed validation (e.g. an undecodable diff).
    Malformed {
        /// Host that rejected the message.
        host: HostId,
        /// What was wrong.
        what: &'static str,
    },
    /// The directory has no copy holder for a minipage that must have one.
    MissingReplica {
        /// Home shard host.
        host: HostId,
        /// The copyless minipage.
        minipage: u32,
    },
    /// Directory state contradicts the message (no pending write for an
    /// invalidation reply, release of an unheld lock, …).
    BadState {
        /// Host whose directory disagreed.
        host: HostId,
        /// The contradiction.
        what: &'static str,
    },
    /// A message kind arrived somewhere it cannot be handled.
    Unroutable {
        /// Receiving host.
        host: HostId,
        /// The unexpected message kind.
        kind: &'static str,
    },
    /// The peer's server reported it could not serve the request
    /// (carried back by a `Nack` message).
    Nacked {
        /// Host whose request was refused.
        host: HostId,
        /// The nacked protocol event id.
        event: u64,
    },
    /// The run failed elsewhere and this thread's pending waits were
    /// cancelled so the cluster could shut down instead of hanging.
    Cancelled {
        /// Host whose wait was cancelled.
        host: HostId,
        /// What the thread was waiting on.
        what: &'static str,
    },
    /// The deterministic scheduler found no runnable thread while this one
    /// was still blocked: the schedule deadlocked — a finding, not a hang.
    Deadlock {
        /// Host whose wait can never complete.
        host: HostId,
        /// What the thread was waiting on.
        what: &'static str,
    },
    /// A real-memory backend operation failed (`mmap`, `mprotect`, a full
    /// server inbox, fault-handler registry). Only produced by the
    /// host backend; the simulator's memory cannot fail this way.
    Backend {
        /// Host whose backend failed.
        host: HostId,
        /// The failing operation.
        what: &'static str,
        /// OS error code, or 0 when the failure is not a syscall.
        errno: i32,
    },
}

impl ProtocolError {
    /// The host the error was observed on.
    pub fn host(&self) -> HostId {
        match *self {
            ProtocolError::Timeout { host, .. }
            | ProtocolError::NoWaiter { host, .. }
            | ProtocolError::BadTranslation { host, .. }
            | ProtocolError::Malformed { host, .. }
            | ProtocolError::MissingReplica { host, .. }
            | ProtocolError::BadState { host, .. }
            | ProtocolError::Unroutable { host, .. }
            | ProtocolError::Nacked { host, .. }
            | ProtocolError::Cancelled { host, .. }
            | ProtocolError::Deadlock { host, .. }
            | ProtocolError::Backend { host, .. } => host,
        }
    }
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Timeout { host, what, event } => {
                write!(f, "{host}: {what} timed out (event {event})")
            }
            ProtocolError::NoWaiter { host, event, kind } => {
                write!(f, "{host}: {kind} reply for event {event} has no waiter")
            }
            ProtocolError::BadTranslation { host, addr, what } => {
                write!(f, "{host}: {what} at address {addr} hits no minipage")
            }
            ProtocolError::Malformed { host, what } => {
                write!(f, "{host}: malformed message: {what}")
            }
            ProtocolError::MissingReplica { host, minipage } => {
                write!(f, "{host}: minipage {minipage} has no copy holder")
            }
            ProtocolError::BadState { host, what } => {
                write!(f, "{host}: inconsistent directory state: {what}")
            }
            ProtocolError::Unroutable { host, kind } => {
                write!(f, "{host}: {kind} cannot be handled here")
            }
            ProtocolError::Nacked { host, event } => {
                write!(
                    f,
                    "{host}: request for event {event} was nacked by the server"
                )
            }
            ProtocolError::Cancelled { host, what } => {
                write!(f, "{host}: {what} cancelled by cluster shutdown")
            }
            ProtocolError::Deadlock { host, what } => {
                write!(
                    f,
                    "{host}: {what} deadlocked under the deterministic schedule"
                )
            }
            ProtocolError::Backend { host, what, errno } => {
                if *errno != 0 {
                    let e = std::io::Error::from_raw_os_error(*errno);
                    write!(f, "{host}: backend {what} failed: {e}")
                } else {
                    write!(f, "{host}: backend {what} failed")
                }
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_host_accessor() {
        let e = ProtocolError::Timeout {
            host: HostId(3),
            what: "read fault",
            event: 42,
        };
        assert_eq!(e.host(), HostId(3));
        assert_eq!(e.to_string(), "h3: read fault timed out (event 42)");
        let e = ProtocolError::Nacked {
            host: HostId(0),
            event: 7,
        };
        assert!(e.to_string().contains("nacked"));
    }
}
