//! Protocol messages (Figure 3's `pmsg`).
//!
//! "Since all the messages which are sent to and by the manager are small
//! (32 bytes in our current implementation), reading and writing them to
//! and from the network does not involve much overhead, leaving the
//! manager highly responsive." Data travels out of band: the sender reads
//! the minipage through its privileged view and the receiver deposits it
//! straight into its own privileged view — no DSM-layer buffer copies.

use bytes::Bytes;
use multiview::MinipageId;
use sim_core::{HostId, Ns};
use sim_mem::VAddr;

/// Declares [`MsgKind`] and, from the same list, [`MsgKind::ALL`]: the
/// kind's position in the list is its wire byte and its identifier is its
/// name, so the three can never drift apart.
macro_rules! msg_kinds {
    ($($(#[$doc:meta])* $name:ident,)*) => {
        /// Message discriminator.
        #[derive(Clone, Copy, PartialEq, Eq, Debug)]
        #[repr(u8)]
        pub enum MsgKind {
            $($(#[$doc])* $name,)*
        }

        impl MsgKind {
            /// Every kind with its name, indexed by wire byte.
            pub(crate) const ALL: &'static [(MsgKind, &'static str)] =
                &[$((MsgKind::$name, stringify!($name)),)*];
        }
    };
}

msg_kinds! {
    /// Faulting host → manager: read copy wanted.
    ReadRequest,
    /// Faulting host → manager: writable copy wanted.
    WriteRequest,
    /// Manager → copy holder: translated, forwarded read request
    /// (Figure 3 keeps the kind unchanged when forwarding; the simulation
    /// uses a distinct kind because the manager host also serves data).
    ServeRead,
    /// Manager → copy holder: translated, forwarded write request.
    ServeWrite,
    /// Serving host → faulting host: read copy data.
    ReadReply,
    /// Serving host → faulting host: writable copy data.
    WriteReply,
    /// Manager → copy holder: invalidate your copy.
    InvalidateRequest,
    /// Copy holder → manager: invalidated.
    InvalidateReply,
    /// Faulting thread → manager after its access completed; closes the
    /// service window (§3.3's anti-livelock / no-queue-at-hosts ack).
    Ack,
    /// Application → manager: shared allocation request.
    AllocRequest,
    /// Manager → application: allocation result.
    AllocReply,
    /// Application → manager: barrier arrival.
    BarrierEnter,
    /// Manager → application: barrier release.
    BarrierRelease,
    /// Application → manager: lock acquire request.
    LockAcquire,
    /// Manager → application: lock granted.
    LockGrant,
    /// Application → manager: lock released.
    LockRelease,
    /// Writer → manager: push read copies of a minipage to all hosts
    /// (the TSP best-bound update of §4.3).
    PushRequest,
    /// Manager → everyone: pushed read copy data.
    PushData,
    /// Writer → home shard: run-length diff of a dirty minipage at a
    /// release point (the §5 release-consistency extension).
    RcDiff,
    /// Home shard → writer: the flushed diff is applied and every stale
    /// copy confirmed invalidated. Only used with distributed home
    /// policies, where the flusher cannot rely on FIFO ordering through a
    /// single manager and must block until its release is globally
    /// visible.
    RcDiffAck,
    /// Adapting shard → remote home shard: apply an encoded adaptation
    /// action (home migration of a minipage whose directory entry lives at
    /// the receiver) at the barrier quiesce point. `minipage` names the
    /// target, `aux` packs the action (see `core::adapt`), `data` carries
    /// the master copy when ownership moves.
    AdaptApply,
    /// Remote home shard → adapting shard: the action was applied (or
    /// deferred; `aux` = 1 applied, 0 deferred). The adapting shard holds
    /// the barrier release until every ack arrived.
    AdaptAck,
    /// Server → requesting host: the request naming `event` could not be
    /// served (translation failure, lost forward, directory corruption).
    /// The receiving server fails the registered waiter with a typed
    /// [`ProtocolError`](crate::ProtocolError) instead of letting the
    /// application thread hang.
    Nack,
    /// Controller → server: stop after draining.
    Shutdown,
}

impl MsgKind {
    /// Static name, for typed-error reporting.
    pub(crate) fn name(self) -> &'static str {
        Self::ALL[self as usize].1
    }

    /// The kind whose position in [`ALL`](Self::ALL) is `b` (`kind as u8`
    /// inverted: the host backend's completion word holds one); `None` for
    /// any other byte. Async-signal-safe: one bounds-checked read of a
    /// static table.
    pub(crate) fn from_u8(b: u8) -> Option<Self> {
        Self::ALL.get(usize::from(b)).map(|&(k, _)| k)
    }
}

/// A protocol message.
///
/// The header fields mirror Figure 3: `event` identifies the waiting
/// thread, `from` the faulting host, `addr` the faulting address, and the
/// translation fields (`base`, `len`, `priv_base`, `minipage`) are filled
/// in by the manager's `Translate` step so that non-manager hosts never
/// need a table lookup.
#[derive(Clone, Debug)]
pub struct Pmsg {
    /// What this message is.
    pub kind: MsgKind,
    /// The host whose thread is waiting for the outcome.
    pub from: HostId,
    /// Identifies the waiting thread's event (Figure 3's `pmsg->event`).
    pub event: u64,
    /// Faulting address / allocation result address.
    pub addr: VAddr,
    /// Translation info: minipage base address (application view).
    pub base: VAddr,
    /// Translation info: minipage length in bytes.
    pub len: usize,
    /// Translation info: minipage base in the privileged view.
    pub priv_base: VAddr,
    /// Translation info: minipage id (directory index).
    pub minipage: MinipageId,
    /// Generic small argument: allocation size, lock id, barrier
    /// generation, …
    pub aux: u64,
    /// Marks a read request issued by
    /// [`HostCtx::prefetch_bytes`](crate::HostCtx::prefetch_bytes)
    /// (no thread blocks on it).
    pub prefetch: bool,
    /// Out-of-band minipage contents (empty for header-only messages).
    pub data: Bytes,
}

impl Pmsg {
    /// A fresh header-only message.
    pub fn new(kind: MsgKind, from: HostId, event: u64) -> Self {
        Self {
            kind,
            from,
            event,
            addr: VAddr(0),
            base: VAddr(0),
            len: 0,
            priv_base: VAddr(0),
            minipage: MinipageId(u32::MAX),
            aux: 0,
            prefetch: false,
            data: Bytes::new(),
        }
    }

    /// Builder: sets the faulting / target address.
    pub fn with_addr(mut self, addr: VAddr) -> Self {
        self.addr = addr;
        self
    }

    /// Builder: sets the small argument.
    pub fn with_aux(mut self, aux: u64) -> Self {
        self.aux = aux;
        self
    }

    /// Payload size for the latency model.
    pub fn payload_bytes(&self) -> usize {
        self.data.len()
    }
}

/// What a waiting application thread learns when its event fires.
#[derive(Clone, Copy, Debug)]
pub struct Completion {
    /// Virtual time at which the thread resumes.
    pub resume_vt: Ns,
    /// Result address (allocation replies) or the serviced address.
    pub addr: VAddr,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_fields() {
        let m = Pmsg::new(MsgKind::ReadRequest, HostId(3), 42)
            .with_addr(VAddr(0x1234))
            .with_aux(7);
        assert_eq!(m.kind, MsgKind::ReadRequest);
        assert_eq!(m.from, HostId(3));
        assert_eq!(m.event, 42);
        assert_eq!(m.addr, VAddr(0x1234));
        assert_eq!(m.aux, 7);
        assert!(!m.prefetch);
        assert_eq!(m.payload_bytes(), 0);
    }

    #[test]
    fn kind_bytes_round_trip_and_every_other_byte_is_rejected() {
        for (i, &(k, name)) in MsgKind::ALL.iter().enumerate() {
            assert_eq!(usize::from(k as u8), i);
            assert_eq!(MsgKind::from_u8(k as u8), Some(k));
            assert_eq!(k.name(), name);
            assert_eq!(format!("{k:?}"), name);
        }
        for b in MsgKind::ALL.len()..=usize::from(u8::MAX) {
            assert_eq!(MsgKind::from_u8(b as u8), None, "byte {b}");
        }
    }

    #[test]
    fn payload_bytes_tracks_data() {
        let mut m = Pmsg::new(MsgKind::ReadReply, HostId(0), 1);
        m.data = Bytes::from(vec![0u8; 672]);
        assert_eq!(m.payload_bytes(), 672);
    }
}
