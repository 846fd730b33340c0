//! Distributed minipage management: the minipage table, home assignment
//! and routing.
//!
//! The paper centralizes all minipage management in one manager host
//! (§3.3) and already anticipates the fix for the resulting hot spot:
//! "the manager may become a bottleneck ... this problem can be solved by
//! distributing the minipage management among several managers" (§5).
//! This module implements that distribution. Every minipage gets a *home*
//! host chosen by a [`HomePolicyKind`] at allocation time; the home's
//! [`ManagerShard`](crate::ManagerShard) owns the minipage's directory entry,
//! service window and (under release consistency) master copy.
//!
//! A run keeps one minipage table, as the paper's manager does: the shared
//! allocator's [`Mpt`], which the [`HomeTable`] holds together with every
//! minipage's home behind one lock. The allocator places into it,
//! adaptation's splits and merges rewrite it, and every host translates
//! and routes through it — §5's replication modelled as shared
//! read-mostly state, so translating a faulting address and finding its
//! home stay local lookups (the cost model still charges `mpt_lookup`).
//!
//! Synchronization services (barriers, queue locks) and the shared
//! allocator stay on the single manager host, [`MANAGER`]: they are not
//! per-minipage state and are not what Figure 7's competing-request hot
//! spot measures.

use multiview::{AllocError, Allocator, Minipage, MinipageId, Mpt};
use parking_lot::RwLock;
use sim_core::HostId;
use sim_mem::{Geometry, VAddr};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

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

/// The cluster-wide home map: policy, the minipage table and every
/// minipage's home, shared by every host's server, shard and application
/// context.
///
/// The manager host writes (it allocates, and a shard applying an
/// adaptation action rewrites its minipages); everyone else only reads.
/// Under the `Centralized` policy, routing short-circuits to the manager
/// without touching the table until the first migration, so the original
/// protocol's costs and counters are reproduced exactly.
pub struct HomeTable {
    kind: HomePolicyKind,
    hosts: usize,
    geo: Geometry,
    /// Hold no guard across a yield point: on the simulator every
    /// application thread is a fiber on one OS thread, which a parked
    /// guard would block.
    pub(crate) table: RwLock<Table>,
    /// Home-map version: 0 until the first migration/pin, bumped on each.
    /// A request served under an older epoch may reach a stale home; the
    /// stale shard forwards it to the current home rather than serving it.
    epoch: AtomicU64,
    /// Set by the first split or merge. Access paths holding pre-action
    /// addresses check it once per access (a relaxed load) and pay for
    /// re-translation only once the table has actually changed shape.
    reshaped: AtomicBool,
}

/// What [`HomeTable`]'s lock guards.
pub(crate) struct Table {
    /// The shared allocator; its [`Mpt`] is the run's minipage table.
    /// Minipages enter it only through [`HomeTable::alloc`] and
    /// [`HomeTable::replace`], which give each its home.
    pub(crate) alloc: Allocator,
    /// `homes[id]` is minipage `id`'s home: the policy's at allocation,
    /// the retired entries' for a split child or merge result, overwritten
    /// by a migration. One entry per minipage id.
    homes: Vec<HostId>,
}

impl Table {
    /// The run's minipage table.
    pub(crate) fn mpt(&self) -> &Mpt {
        self.alloc.mpt()
    }
}

impl HomeTable {
    /// Builds the table for a cluster of `hosts` hosts around the shared
    /// allocator, whose geometry is the run's.
    pub(crate) fn new(kind: HomePolicyKind, hosts: usize, alloc: Allocator) -> Self {
        Self {
            kind,
            hosts,
            geo: alloc.geometry().clone(),
            table: RwLock::new(Table {
                alloc,
                homes: Vec::new(),
            }),
            epoch: AtomicU64::new(0),
            reshaped: AtomicBool::new(false),
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

    /// The shared address-space geometry.
    pub(crate) fn geometry(&self) -> &Geometry {
        &self.geo
    }

    /// The shared allocator's entry point (§3.2) for a request issued by
    /// `allocating`: places `size` bytes and homes every minipage the
    /// allocation defined by the policy. Returns the address and those
    /// minipages with their homes.
    pub(crate) fn alloc(
        &self,
        size: usize,
        allocating: HostId,
    ) -> Result<(VAddr, Vec<(Minipage, HostId)>), AllocError> {
        let mut t = self.table.write();
        let before = t.homes.len();
        let addr = t.alloc.alloc(size)?;
        let placed: Vec<(Minipage, HostId)> = t
            .mpt()
            .iter()
            .skip(before)
            .map(|&mp| {
                let home = self.kind.assign(mp.id, allocating, self.hosts);
                assert!(home.index() < self.hosts, "policy assigned an absent host");
                (mp, home)
            })
            .collect();
        t.homes.extend(placed.iter().map(|&(_, home)| home));
        Ok((addr, placed))
    }

    /// Retires `old` and inserts `new` in their place — a split's parent
    /// by its children, a merge's members by their union — homed at `home`
    /// under any policy: the replacements inherit the retired entries'
    /// home. Under the centralized policy, each replacement pinned away
    /// from the manager counts as a migration.
    pub(crate) fn replace(&self, old: &[MinipageId], new: Vec<Minipage>, home: HostId) {
        assert!(home.index() < self.hosts, "pinning to an absent host");
        let mut t = self.table.write();
        let ids = t.alloc.mpt_mut().retire_and_insert(&self.geo, old, new);
        t.homes.extend(ids.iter().map(|_| home));
        self.reshaped.store(true, Ordering::Release);
        if self.kind == HomePolicyKind::Centralized && home != MANAGER {
            // The centralized fast path reads no homes until the epoch moves.
            self.epoch.fetch_add(ids.len() as u64, Ordering::AcqRel);
        }
    }

    /// The home host of a minipage.
    pub fn home(&self, id: MinipageId) -> HostId {
        if self.kind == HomePolicyKind::Centralized && self.epoch() == 0 {
            return MANAGER;
        }
        self.table.read().homes[id.index()]
    }

    /// The home-map version: 0 until the first migration, bumped on each.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Whether a split or merge has rewritten the table, so addresses
    /// minted before it may name retired vpages.
    pub fn reshaped(&self) -> bool {
        self.reshaped.load(Ordering::Acquire)
    }

    /// Moves `id`'s home to `to`, bumping the epoch. Returns the new
    /// epoch. The caller (the adaptation engine, at a quiesce point) is
    /// responsible for moving the directory entry and master copy; the
    /// table only redirects future routing. Requests already in flight to
    /// the old home are *forwarded* by the stale shard under the new
    /// epoch, so no window is served from stale directory state.
    pub(crate) fn migrate(&self, id: MinipageId, to: HostId) -> u64 {
        assert!(to.index() < self.hosts, "migrating to an absent host");
        self.table.write().homes[id.index()] = to;
        self.epoch.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Routes a faulting address to its home shard. Returns the home and
    /// whether a table lookup was needed (callers charge the `mpt_lookup`
    /// cost for it); the centralized fast path routes straight to the
    /// manager with no lookup, exactly like the original protocol — until
    /// the first migration, after which even Centralized must translate.
    /// An address no minipage covers routes to the manager, whose shard
    /// fails it as a bad translation and nacks the requester.
    pub fn route(&self, addr: VAddr) -> (HostId, bool) {
        if self.kind == HomePolicyKind::Centralized && self.epoch() == 0 {
            return (MANAGER, false);
        }
        let t = self.table.read();
        let home = t
            .mpt()
            .translate(&self.geo, addr)
            .map_or(MANAGER, |mp| t.homes[mp.id.index()]);
        (home, true)
    }

    /// Translates an address through the table.
    pub(crate) fn translate(&self, addr: VAddr) -> Option<Minipage> {
        self.table.read().mpt().translate(&self.geo, addr).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multiview::AllocMode;

    fn table(kind: HomePolicyKind, hosts: usize, geo: &Geometry) -> HomeTable {
        HomeTable::new(kind, hosts, Allocator::new(geo.clone(), AllocMode::FINE))
    }

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
    fn home_table_allocates_and_routes() {
        let geo = Geometry::new(8, 4);
        let table = table(HomePolicyKind::Interleaved, 4, &geo);
        for id in 0..3u32 {
            let (addr, placed) = table.alloc(64, HostId(0)).unwrap();
            assert_eq!(placed.len(), 1);
            let (mp, home) = placed[0];
            assert_eq!((mp.id, mp.base), (MinipageId(id), addr));
            assert_eq!(home.index(), id as usize % 4);
        }
        assert_eq!(table.home(MinipageId(2)), HostId(2));
        let (home, looked_up) = table.route(geo.addr_of(1, 0, 64 + 7));
        assert_eq!(home, HostId(1));
        assert!(looked_up);
    }

    /// An address no minipage covers routes to the manager under every
    /// policy, whose shard nacks it.
    #[test]
    fn a_translation_miss_routes_to_the_manager() {
        let geo = Geometry::new(8, 4);
        for kind in POLICIES {
            let table = table(kind, 4, &geo);
            table.alloc(64, HostId(3)).unwrap();
            let (home, _) = table.route(geo.addr_of(0, 5, 0));
            assert_eq!(home, MANAGER, "{kind:?}");
        }
    }

    #[test]
    fn centralized_routing_skips_the_lookup() {
        let geo = Geometry::new(4, 2);
        let table = table(HomePolicyKind::Centralized, 4, &geo);
        // No minipage at this address: the fast path must not consult the
        // table at all.
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

    const POLICIES: [HomePolicyKind; 3] = [
        HomePolicyKind::Centralized,
        HomePolicyKind::Interleaved,
        HomePolicyKind::FirstTouch,
    ];

    /// A migration wins over every policy, bumps the epoch, and — under
    /// Centralized — forces routing through the translate path so the
    /// moved home is actually read.
    #[test]
    fn migration_overrides_every_policy() {
        for kind in POLICIES {
            let geo = Geometry::new(8, 4);
            let table = table(kind, 4, &geo);
            table.alloc(64, HostId(0)).unwrap();
            assert_eq!(table.epoch(), 0);
            let before = table.home(MinipageId(0));
            let to = HostId((before.index() as u16 + 1) % 4);
            assert_eq!(table.migrate(MinipageId(0), to), 1);
            assert_eq!(table.home(MinipageId(0)), to, "{kind:?}");
            assert_eq!(table.epoch(), 1);
            let (routed, looked_up) = table.route(geo.addr_of(0, 0, 7));
            assert_eq!(routed, to, "{kind:?}: route ignored the override");
            assert!(looked_up, "{kind:?}: post-migration route must translate");
            assert!(!table.reshaped(), "{kind:?}: a migration reshapes nothing");
        }
    }

    /// A replacement's pinned home (a split child inheriting the parent's)
    /// sticks under any policy, including the Centralized fast path, and
    /// the next allocation takes the next id.
    #[test]
    fn replace_pins_the_home() {
        for kind in POLICIES {
            let geo = Geometry::new(8, 4);
            let table = table(kind, 4, &geo);
            table.alloc(64, HostId(0)).unwrap();
            table.replace(&[MinipageId(0)], vec![mp_at(&geo, 1, 1, 0)], HostId(3));
            assert_eq!(table.home(MinipageId(1)), HostId(3), "{kind:?}");
            assert!(table.reshaped());
            let (_, placed) = table.alloc(64, HostId(0)).unwrap();
            assert_eq!(placed[0].0.id, MinipageId(2), "{kind:?}");
        }
    }
}
