//! Virtual clocks.
//!
//! Every simulated thread (application thread, DSM server thread, manager)
//! owns a [`Clock`] measured in virtual nanoseconds since the start of the
//! run. Clocks only move forward. Message passing merges clocks in the
//! Lamport style: a handler runs at `max(local, arrival)`.

use std::cell::Cell;

/// Virtual nanoseconds.
pub type Ns = u64;

/// One microsecond in [`Ns`].
pub const US: Ns = 1_000;
/// One millisecond in [`Ns`].
pub const MS: Ns = 1_000_000;

/// A thread-local virtual clock.
///
/// The clock is deliberately not shareable: each simulated thread advances
/// its own clock, and a host's application threads record their busy
/// intervals in a [`BusyWindow`] for the server to test a message's
/// arrival against.
#[derive(Clone, Debug, Default)]
pub struct Clock {
    now: Ns,
}

impl Clock {
    /// Creates a clock at virtual time zero.
    pub fn new() -> Self {
        Self { now: 0 }
    }

    /// Creates a clock at the given virtual time.
    pub fn at(now: Ns) -> Self {
        Self { now }
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> Ns {
        self.now
    }

    /// Advances the clock by `delta` and returns the new time.
    #[inline]
    pub fn advance(&mut self, delta: Ns) -> Ns {
        self.now += delta;
        self.now
    }

    /// Moves the clock forward to `t` if `t` is in the future; otherwise
    /// leaves it unchanged. Returns the new time.
    ///
    /// This is the Lamport merge used when a blocked thread resumes at the
    /// completion time of a remote operation.
    #[inline]
    pub fn merge(&mut self, t: Ns) -> Ns {
        if t > self.now {
            self.now = t;
        }
        self.now
    }
}

/// The most recent busy interval of a host's application threads.
///
/// The DSM server needs "was the application computing at virtual time
/// t?" to choose between the poller and the sweeper (§3.5.1). The
/// application records each compute/access burst `[start, end)`;
/// contiguous bursts merge. Time spent blocked (barriers, locks, faults)
/// is never recorded, so hosts parked in synchronization read as idle.
/// The host's threads and its server share one OS thread, so the bounds
/// are `Cell`s.
#[derive(Debug, Default)]
pub struct BusyWindow {
    start: Cell<Ns>,
    end: Cell<Ns>,
}

impl BusyWindow {
    /// An empty window (never busy).
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a busy burst `[from, to)`; merges with the previous burst
    /// when contiguous.
    pub fn record(&self, from: Ns, to: Ns) {
        if from > to {
            return;
        }
        if self.end.get() != from {
            self.start.set(from);
        }
        self.end.set(to);
    }

    /// Whether the application was busy at virtual time `t` (within the
    /// most recent burst).
    pub fn busy_at(&self, t: Ns) -> bool {
        t >= self.start.get() && t < self.end.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_window_records_and_merges() {
        let b = BusyWindow::new();
        assert!(!b.busy_at(0));
        b.record(100, 200);
        assert!(b.busy_at(100));
        assert!(b.busy_at(199));
        assert!(!b.busy_at(200));
        assert!(!b.busy_at(50));
        // Contiguous burst merges.
        b.record(200, 300);
        assert!(b.busy_at(150));
        assert!(b.busy_at(250));
        // A disjoint burst replaces the window.
        b.record(1000, 1100);
        assert!(!b.busy_at(250));
        assert!(b.busy_at(1050));
    }

    #[test]
    fn clock_advances_and_merges_monotonically() {
        let mut c = Clock::new();
        assert_eq!(c.now(), 0);
        assert_eq!(c.advance(10), 10);
        assert_eq!(c.merge(5), 10, "merge with the past is a no-op");
        assert_eq!(c.merge(25), 25);
        assert_eq!(c.advance(1), 26);
    }

    #[test]
    fn clock_at_starts_at_given_time() {
        assert_eq!(Clock::at(42).now(), 42);
    }
}
