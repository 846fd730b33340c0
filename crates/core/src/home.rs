//! Distributed minipage management: home assignment and routing.
//!
//! The paper centralizes all minipage management in one manager host
//! (§3.3) and already anticipates the fix for the resulting hot spot:
//! "the manager may become a bottleneck ... this problem can be solved by
//! distributing the minipage management among several managers" (§5).
//! This module implements that distribution. Every minipage gets a *home*
//! host chosen by a [`HomePolicyKind`] at allocation time; the home's
//! [`ManagerShard`](crate::ManagerShard) owns the minipage's directory entry,
//! service window and (under release consistency) master copy. The MPT is
//! replicated read-only to every host ([`SharedMpt`]), so translating a
//! faulting address and finding its home stay local lookups.
//!
//! Synchronization services (barriers, queue locks) and the shared
//! allocator stay on the single manager host, [`MANAGER`]: they are not
//! per-minipage state and are not what Figure 7's competing-request hot
//! spot measures.

use multiview::{Minipage, MinipageId, SharedMpt};
use parking_lot::RwLock;
use sim_core::HostId;
use sim_mem::{Geometry, VAddr};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// The manager host (§3.3): it runs the shared allocator and the
/// synchronization services and, under the centralized policy, homes every
/// minipage. Host 0 on either backend.
pub(crate) const MANAGER: HostId = HostId(0);

/// How minipages are distributed over manager shards.
///
/// An assignment sees the allocation metadata the `multiview` allocator
/// produces — the dense [`MinipageId`] and the host that issued the
/// allocation — and is pure: the same inputs always give the same home,
/// so every host can replay the assignment deterministically.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum HomePolicyKind {
    /// Every minipage homed at the single manager host — bit-for-bit the
    /// paper's original centralized manager (§3.3). The default.
    #[default]
    Centralized,
    /// Homes spread round-robin over the hosts by minipage id — the
    /// classic static interleaving that splits directory load evenly
    /// regardless of access pattern.
    Interleaved,
    /// Each minipage homed at the host that allocated it, on the
    /// heuristic that the allocator is also the principal writer.
    /// Setup-phase allocations are issued by the manager and therefore
    /// stay there.
    FirstTouch,
}

impl HomePolicyKind {
    /// Human-readable policy name (reports, benches).
    pub fn name(self) -> &'static str {
        match self {
            HomePolicyKind::Centralized => "centralized",
            HomePolicyKind::Interleaved => "interleaved",
            HomePolicyKind::FirstTouch => "first-touch",
        }
    }

    /// The home host for minipage `id` allocated by `allocating` in a
    /// cluster of `hosts` hosts.
    pub fn assign(self, id: MinipageId, allocating: HostId, hosts: usize) -> HostId {
        match self {
            HomePolicyKind::Centralized => MANAGER,
            HomePolicyKind::Interleaved => HostId((id.index() % hosts) as u16),
            HomePolicyKind::FirstTouch => allocating,
        }
    }
}

/// The cluster-wide home map: policy, assignments, and the replicated
/// MPT, shared by every host's server, shard and application context.
///
/// The allocator host is the single writer (it publishes each minipage
/// and its home as it allocates); everyone else only reads. Under the
/// `Centralized` policy, routing short-circuits to the manager without
/// touching the replica at all, so the original protocol's costs and
/// counters are reproduced exactly.
pub struct HomeTable {
    kind: HomePolicyKind,
    hosts: usize,
    geo: Geometry,
    mpt: SharedMpt,
    homes: RwLock<Vec<HostId>>,
    /// Migratory overrides layered over the policy assignment: minipages
    /// whose home was moved (or pinned at publish time) by the adaptation
    /// engine. Consulted only when `epoch != 0`, so un-adapted runs keep
    /// the original lookup cost and the Centralized fast path.
    overrides: RwLock<HashMap<u32, HostId>>,
    /// Home-map version: 0 until the first migration/pin, bumped on each.
    /// A request served under an older epoch may reach a stale home; the
    /// stale shard forwards it to the current home rather than serving it.
    epoch: AtomicU64,
}

impl HomeTable {
    /// Builds the table for a cluster of `hosts` hosts.
    pub(crate) fn new(kind: HomePolicyKind, hosts: usize, geo: Geometry) -> Self {
        Self {
            kind,
            hosts,
            geo,
            mpt: SharedMpt::new(),
            homes: RwLock::new(Vec::new()),
            overrides: RwLock::new(HashMap::new()),
            epoch: AtomicU64::new(0),
        }
    }

    /// The configured policy selector.
    pub fn kind(&self) -> HomePolicyKind {
        self.kind
    }

    /// The policy's human-readable name.
    pub fn policy_name(&self) -> &'static str {
        self.kind.name()
    }

    /// The replicated minipage table.
    pub fn mpt(&self) -> &SharedMpt {
        &self.mpt
    }

    /// The shared address-space geometry.
    pub(crate) fn geometry(&self) -> &Geometry {
        &self.geo
    }

    /// Registers a freshly allocated minipage: replicates its descriptor
    /// and assigns its home. Called by the allocator host only.
    pub(crate) fn publish(&self, mp: Minipage, allocating: HostId) -> HostId {
        let home = self.kind.assign(mp.id, allocating, self.hosts);
        assert!(home.index() < self.hosts, "policy assigned an absent host");
        let mut homes = self.homes.write();
        assert_eq!(
            homes.len(),
            mp.id.index(),
            "homes are assigned in dense id order"
        );
        homes.push(home);
        self.mpt.publish(&self.geo, mp);
        home
    }

    /// The home host of a minipage. Migratory overrides win over the
    /// policy assignment; the override map is only consulted once a
    /// migration has actually happened (`epoch != 0`).
    pub fn home(&self, id: MinipageId) -> HostId {
        if self.epoch.load(Ordering::Acquire) != 0 {
            if let Some(&h) = self.overrides.read().get(&id.0) {
                return h;
            }
        }
        if self.kind == HomePolicyKind::Centralized {
            return MANAGER;
        }
        self.homes.read()[id.index()]
    }

    /// The home-map version: 0 until the first migration, bumped on each.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Moves `id`'s home to `to`, bumping the epoch. Returns the new
    /// epoch. The caller (the adaptation engine, at a quiesce point) is
    /// responsible for moving the directory entry and master copy; the
    /// table only redirects future routing. Requests already in flight to
    /// the old home are *forwarded* by the stale shard under the new
    /// epoch, so no window is served from stale directory state.
    pub(crate) fn migrate(&self, id: MinipageId, to: HostId) -> u64 {
        assert!(to.index() < self.hosts, "migrating to an absent host");
        self.overrides.write().insert(id.0, to);
        self.epoch.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Registers a minipage at an explicit, pre-decided home — how split
    /// children and merged minipages inherit the retired entry's home
    /// under *any* policy. Counts as a migration when the pinned home
    /// differs from what the policy would have assigned.
    pub(crate) fn publish_at(&self, mp: Minipage, home: HostId) {
        assert!(home.index() < self.hosts, "pinning to an absent host");
        {
            let mut homes = self.homes.write();
            assert_eq!(
                homes.len(),
                mp.id.index(),
                "homes are assigned in dense id order"
            );
            homes.push(home);
        }
        if self.kind == HomePolicyKind::Centralized && home != MANAGER {
            // The Centralized fast path never reads `homes`; route the
            // pinned minipage through the override layer instead.
            self.overrides.write().insert(mp.id.0, home);
            self.epoch.fetch_add(1, Ordering::AcqRel);
        }
    }

    /// Routes a faulting address to its home shard. Returns the home and
    /// whether a local MPT lookup was needed (callers charge the
    /// `mpt_lookup` cost for it); the centralized fast path routes
    /// straight to the manager with no lookup, exactly like the original
    /// protocol — until the first migration, after which even Centralized
    /// must translate to consult the override layer.
    pub fn route(&self, addr: VAddr) -> (HostId, bool) {
        if self.kind == HomePolicyKind::Centralized && self.epoch.load(Ordering::Acquire) == 0 {
            return (MANAGER, false);
        }
        let mp = self
            .mpt
            .translate(&self.geo, addr)
            .unwrap_or_else(|| panic!("no minipage at {addr}"));
        (self.home(mp.id), true)
    }

    /// Translates an address through the local MPT replica.
    pub(crate) fn translate(&self, addr: VAddr) -> Option<Minipage> {
        self.mpt.translate(&self.geo, addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn centralized_assigns_manager_everywhere() {
        for id in 0..10 {
            let home = HomePolicyKind::Centralized.assign(MinipageId(id), HostId(5), 8);
            assert_eq!(home, MANAGER);
        }
    }

    #[test]
    fn interleaved_round_robins_by_id() {
        let homes: Vec<_> = (0..6)
            .map(|id| {
                HomePolicyKind::Interleaved
                    .assign(MinipageId(id), HostId(0), 4)
                    .index()
            })
            .collect();
        assert_eq!(homes, vec![0, 1, 2, 3, 0, 1]);
    }

    #[test]
    fn first_touch_follows_the_allocator() {
        let p = HomePolicyKind::FirstTouch;
        assert_eq!(p.assign(MinipageId(9), HostId(6), 8), HostId(6));
        assert_eq!(p.assign(MinipageId(9), HostId(0), 8), HostId(0));
    }

    #[test]
    fn home_table_publishes_and_routes() {
        let geo = Geometry::new(8, 4);
        let table = HomeTable::new(HomePolicyKind::Interleaved, 4, geo.clone());
        for id in 0..3u32 {
            let mp = Minipage {
                id: MinipageId(id),
                base: geo.addr_of(id as usize, 0, id as usize * 64),
                len: 64,
                view: id as usize,
                first_page: 0,
                offset: id as usize * 64,
            };
            let home = table.publish(mp, HostId(0));
            assert_eq!(home.index(), id as usize % 4);
        }
        assert_eq!(table.home(MinipageId(2)), HostId(2));
        let (home, looked_up) = table.route(geo.addr_of(1, 0, 64 + 7));
        assert_eq!(home, HostId(1));
        assert!(looked_up);
    }

    #[test]
    fn centralized_routing_skips_the_lookup() {
        let geo = Geometry::new(4, 2);
        let table = HomeTable::new(HomePolicyKind::Centralized, 4, geo.clone());
        // No minipage published at this address: the fast path must not
        // consult the replica at all.
        let (home, looked_up) = table.route(geo.addr_of(0, 0, 0));
        assert_eq!(home, HostId(0));
        assert!(!looked_up);
    }

    fn mp_at(geo: &Geometry, id: u32, view: usize, page: usize) -> Minipage {
        Minipage {
            id: MinipageId(id),
            base: geo.addr_of(view, page, 0),
            len: 64,
            view,
            first_page: page,
            offset: 0,
        }
    }

    /// Migration overrides win over every policy, bump the epoch, and —
    /// under Centralized — force routing through the translate path so the
    /// override layer is actually consulted.
    #[test]
    fn migration_overrides_every_policy() {
        for kind in [
            HomePolicyKind::Centralized,
            HomePolicyKind::Interleaved,
            HomePolicyKind::FirstTouch,
        ] {
            let geo = Geometry::new(8, 4);
            let table = HomeTable::new(kind, 4, geo.clone());
            table.publish(mp_at(&geo, 0, 0, 0), HostId(0));
            assert_eq!(table.epoch(), 0);
            let before = table.home(MinipageId(0));
            let to = HostId((before.index() as u16 + 1) % 4);
            assert_eq!(table.migrate(MinipageId(0), to), 1);
            assert_eq!(table.home(MinipageId(0)), to, "{kind:?}");
            assert_eq!(table.epoch(), 1);
            let (routed, looked_up) = table.route(geo.addr_of(0, 0, 7));
            assert_eq!(routed, to, "{kind:?}: route ignored the override");
            assert!(looked_up, "{kind:?}: post-migration route must translate");
        }
    }

    /// Pinned publication (split children inheriting the parent's home)
    /// sticks under any policy, including the Centralized fast path.
    #[test]
    fn publish_at_pins_the_home() {
        for kind in [
            HomePolicyKind::Centralized,
            HomePolicyKind::Interleaved,
            HomePolicyKind::FirstTouch,
        ] {
            let geo = Geometry::new(8, 4);
            let table = HomeTable::new(kind, 4, geo.clone());
            table.publish(mp_at(&geo, 0, 0, 0), HostId(0));
            table.publish_at(mp_at(&geo, 1, 1, 0), HostId(3));
            assert_eq!(table.home(MinipageId(1)), HostId(3), "{kind:?}");
        }
    }
}
