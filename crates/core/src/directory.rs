//! The manager's directory: per-minipage copysets and service windows.
//!
//! §3.3: the manager "is in charge of maintaining the directory information
//! of minipage and minipage copy locations ... Requests which arrive while
//! an earlier request to the same minipage is still in process are queued
//! in the manager."

use crate::msg::Pmsg;
use sim_core::{HostId, Ns};
use std::collections::{HashMap, VecDeque};

/// Directory state of one minipage.
#[derive(Debug, Clone, Default)]
pub struct DirectoryEntry {
    /// Bitmask of hosts holding a copy (readers, or the single writer).
    pub copyset: u64,
    /// The host holding the writable copy, if any.
    pub owner: Option<HostId>,
    /// A request for this minipage is being serviced; newcomers queue.
    pub in_service: bool,
    /// Requests queued behind the service window ("competing requests",
    /// the Figure 7 metric).
    pub queue: VecDeque<Pmsg>,
    /// Outstanding invalidation acknowledgements for a pending write.
    pub inv_pending: u32,
    /// Virtual time the pending invalidation round was fanned out
    /// (measures the invalidation round-trip when the last reply lands).
    pub inv_sent_vt: Ns,
    /// The write request waiting for the invalidations to complete.
    pub pending_write: Option<Pmsg>,
}

impl DirectoryEntry {
    /// Entry for a freshly allocated minipage whose data sits at `home`
    /// with a writable copy.
    pub fn fresh(home: HostId) -> Self {
        Self {
            copyset: 1u64 << home.index(),
            owner: Some(home),
            ..Self::default()
        }
    }

    /// Hosts in the copyset.
    pub fn holders(&self) -> impl Iterator<Item = HostId> + '_ {
        let mask = self.copyset;
        (0..64u16).filter_map(move |i| (mask >> i & 1 == 1).then_some(HostId(i)))
    }

    /// Number of copies.
    pub fn copies(&self) -> u32 {
        self.copyset.count_ones()
    }

    /// Whether `h` holds a copy.
    pub fn holds(&self, h: HostId) -> bool {
        self.copyset >> h.index() & 1 == 1
    }

    /// Adds `h` to the copyset.
    pub fn add(&mut self, h: HostId) {
        self.copyset |= 1 << h.index();
    }

    /// Removes `h` from the copyset.
    pub fn remove(&mut self, h: HostId) {
        self.copyset &= !(1 << h.index());
    }

    /// Figure 3's `find_replica`: the preferred source for a transfer —
    /// the writer if one exists, otherwise the lowest-numbered reader.
    pub fn find_replica(&self) -> Option<HostId> {
        if let Some(o) = self.owner {
            return Some(o);
        }
        (self.copyset != 0).then(|| HostId(self.copyset.trailing_zeros() as u16))
    }
}

/// One manager shard's slice of the directory: only the minipages homed
/// at this host ever get entries here.
///
/// Entries are sparse (the shard of host *h* never sees ids homed
/// elsewhere) and materialize lazily on first touch as
/// [`DirectoryEntry::fresh`]`(me)` — exactly the state every minipage has
/// at allocation: one writable copy sitting at its home. Lazy creation
/// keeps allocation local: the allocator host never has to reach into
/// remote shards to pre-register entries.
#[derive(Debug)]
pub struct Directory {
    me: HostId,
    entries: HashMap<usize, DirectoryEntry>,
    competing: u64,
    /// Requests queued behind open windows right now: the sum of the
    /// entries' queue lengths.
    waiting: usize,
}

impl Directory {
    /// An empty directory slice for the shard running on `me`.
    pub fn new(me: HostId) -> Self {
        Self {
            me,
            entries: HashMap::new(),
            competing: 0,
            waiting: 0,
        }
    }

    /// Entry accessor; materializes the fresh at-home entry on first
    /// touch.
    pub fn entry(&mut self, id: usize) -> &mut DirectoryEntry {
        let me = self.me;
        self.entries
            .entry(id)
            .or_insert_with(|| DirectoryEntry::fresh(me))
    }

    /// Read-only entry accessor; `None` if the minipage was never touched
    /// (it is still in its fresh at-home state).
    pub fn entry_ref(&self, id: usize) -> Option<&DirectoryEntry> {
        self.entries.get(&id)
    }

    /// Number of materialized entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no entry has materialized yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over the materialized entries (post-run invariant checks).
    pub fn iter(&self) -> impl Iterator<Item = (usize, &DirectoryEntry)> {
        self.entries.iter().map(|(&id, e)| (id, e))
    }

    /// Opens the service window for `id`; if one is already open, queues
    /// the request, bumps the competing-request counter (Figure 7), and
    /// returns `false`.
    pub fn begin_service(&mut self, id: usize, pending: Pmsg) -> bool {
        let e = self.entry(id);
        if e.in_service {
            e.queue.push_back(pending);
            self.competing += 1;
            self.waiting += 1;
            false
        } else {
            e.in_service = true;
            true
        }
    }

    /// Closes the service window for `id` and pops the next queued request
    /// (which the manager must then process).
    pub fn end_service(&mut self, id: usize) -> Option<Pmsg> {
        let e = self.entry(id);
        e.in_service = false;
        let next = e.queue.pop_front();
        self.waiting -= usize::from(next.is_some());
        next
    }

    /// Drops the entry for `id` (adaptation: the minipage was retired or
    /// re-homed, so this shard's slice no longer tracks it). The next
    /// touch — here for a split child, at the new home after a migration
    /// — rematerializes the fresh at-home state.
    pub fn forget(&mut self, id: usize) -> Option<DirectoryEntry> {
        let e = self.entries.remove(&id)?;
        self.waiting -= e.queue.len();
        Some(e)
    }

    /// Competing requests observed at this shard (Figure 7's metric).
    pub fn competing_requests(&self) -> u64 {
        self.competing
    }

    /// Requests queued behind open service windows right now, over every
    /// entry.
    pub fn waiting(&self) -> usize {
        self.waiting
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::MsgKind;

    fn req(from: u16) -> Pmsg {
        Pmsg::new(MsgKind::ReadRequest, HostId(from), from as u64)
    }

    #[test]
    fn fresh_entry_has_home_as_writer() {
        let e = DirectoryEntry::fresh(HostId(0));
        assert_eq!(e.copies(), 1);
        assert!(e.holds(HostId(0)));
        assert_eq!(e.owner, Some(HostId(0)));
        assert_eq!(e.find_replica(), Some(HostId(0)));
    }

    #[test]
    fn copyset_add_remove_holders() {
        let mut e = DirectoryEntry::fresh(HostId(2));
        e.add(HostId(5));
        e.add(HostId(7));
        assert_eq!(e.copies(), 3);
        let hs: Vec<_> = e.holders().collect();
        assert_eq!(hs, vec![HostId(2), HostId(5), HostId(7)]);
        e.remove(HostId(5));
        assert!(!e.holds(HostId(5)));
        assert_eq!(e.copies(), 2);
    }

    #[test]
    fn find_replica_prefers_owner() {
        let mut e = DirectoryEntry::fresh(HostId(3));
        e.add(HostId(0));
        e.owner = Some(HostId(3));
        assert_eq!(e.find_replica(), Some(HostId(3)));
        e.owner = None;
        assert_eq!(e.find_replica(), Some(HostId(0)));
        e.copyset = 0;
        assert_eq!(e.find_replica(), None);
    }

    #[test]
    fn service_window_queues_and_counts_competing() {
        let mut d = Directory::new(HostId(0));
        assert!(d.begin_service(0, req(1)));
        assert!(!d.begin_service(0, req(2)));
        assert!(!d.begin_service(0, req(3)));
        assert_eq!(d.competing_requests(), 2);
        let next = d.end_service(0).unwrap();
        assert_eq!(next.from, HostId(2));
        // end_service closed the window; the manager reopens it when it
        // processes `next`.
        assert!(d.begin_service(0, req(4)));
        let next2 = d.end_service(0).unwrap();
        assert_eq!(next2.from, HostId(3));
        assert!(d.end_service(0).is_none());
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// `waiting()` is the sum of the queue lengths after every step of
        /// a random mix of window opens, closes and forgotten entries.
        fn waiting_is_the_sum_of_the_queues(
            ops in proptest::collection::vec((0usize..4, 0usize..4), 1..200),
        ) {
            let mut d = Directory::new(HostId(0));
            for (op, id) in ops {
                match op {
                    0 | 1 => {
                        d.begin_service(id, req(1));
                    }
                    2 => {
                        d.end_service(id);
                    }
                    _ => {
                        d.forget(id);
                    }
                }
                let queued: usize = d.iter().map(|(_, e)| e.queue.len()).sum();
                proptest::prop_assert_eq!(d.waiting(), queued);
            }
        }
    }

    #[test]
    fn entries_materialize_lazily_at_home() {
        let mut d = Directory::new(HostId(1));
        assert!(d.is_empty());
        assert!(d.entry_ref(3).is_none());
        // First touch materializes the fresh at-home state.
        assert!(d.entry(3).holds(HostId(1)));
        assert_eq!(d.entry(3).owner, Some(HostId(1)));
        assert_eq!(d.len(), 1);
        assert!(d.entry_ref(3).is_some());
        // Ids are sparse: touching 7 does not drag 4..=6 into existence.
        d.entry(7);
        assert_eq!(d.len(), 2);
        let mut ids: Vec<_> = d.iter().map(|(id, _)| id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![3, 7]);
    }
}
