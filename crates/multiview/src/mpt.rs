//! The minipage table (MPT).
//!
//! §2.3: "The system should therefore store and maintain a minipage-table
//! (MPT) with the appropriate `<offset, length>` pair specified for each
//! minipage." §3.3: the MPT lives at the manager; a faulting host sends
//! only the faulting address, and the manager's `Translate` step looks up
//! the minipage base, size, and privileged-view address.

use crate::minipage::{Minipage, MinipageId};
use sim_mem::{Geometry, VAddr};
use std::collections::BTreeMap;

/// The minipage table: id → descriptor, plus a vpage index for fault
/// translation.
///
/// In the dynamic layout every vpage is associated with at most one
/// minipage (that is the invariant MultiView exists to establish), so the
/// fault-address lookup is a single vpage-indexed load — the 7 µs
/// "minipage translation" of Table 1. The index is a flat `Vec` rather
/// than a hash map: vpage indices are small and dense (views × pages of
/// one geometry), so a direct load beats hashing on the translation path
/// every fault and every home routing takes.
#[derive(Debug, Default)]
pub struct Mpt {
    entries: Vec<Minipage>,
    /// `by_vpage[vp]` is the minipage carrying global vpage `vp`, if any;
    /// grown on insert to cover the highest associated vpage. Never points
    /// at a retired entry.
    by_vpage: Vec<Option<MinipageId>>,
    /// `retired[id]`: the entry was replaced by an adaptation action
    /// (split/merge) and no longer owns any vpage. Ids are never reused —
    /// directory state, traces, and diagnostics keep referring to them.
    retired: Vec<bool>,
    /// Redirect overlay for retired vpages: a vpage that once carried a
    /// now-retired minipage maps to the *active* minipages covering the
    /// same physical page, so stale addresses (application handles minted
    /// before a split/merge) still translate — by physical byte — to the
    /// live entry. Rebuilt from scratch on every adaptation action.
    redirect: BTreeMap<usize, Vec<MinipageId>>,
}

impl Mpt {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of minipages.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Registers a minipage built by the allocator. Returns its id.
    ///
    /// # Panics
    ///
    /// Panics if the minipage's id is not the next dense id, or if one of
    /// its vpages is already associated with another minipage (the
    /// MultiView invariant would be violated).
    pub fn insert(&mut self, geo: &Geometry, mp: Minipage) -> MinipageId {
        assert_eq!(
            mp.id.index(),
            self.entries.len(),
            "minipage ids are dense insertion indices"
        );
        for vp in mp.vpages(geo) {
            if vp >= self.by_vpage.len() {
                self.by_vpage.resize(vp + 1, None);
            }
            assert!(
                !self.redirect.contains_key(&vp),
                "vpage {vp} is a retired redirect trampoline"
            );
            let prev = self.by_vpage[vp].replace(mp.id);
            assert!(
                prev.is_none(),
                "vpage {vp} already carries {:?}",
                prev.unwrap()
            );
        }
        self.entries.push(mp);
        self.retired.push(false);
        mp.id
    }

    /// Descriptor for an id.
    ///
    /// # Panics
    ///
    /// Panics if `id` was never inserted.
    pub fn get(&self, id: MinipageId) -> &Minipage {
        &self.entries[id.index()]
    }

    /// Figure 3 `Translate`: resolves a faulting address to its minipage.
    ///
    /// Returns `None` for addresses outside the shared region or on vpages
    /// that carry no minipage. An address on a *retired* vpage resolves,
    /// by physical byte, through the redirect overlay to the active
    /// minipage that replaced it.
    pub fn translate(&self, geo: &Geometry, fault_addr: VAddr) -> Option<&Minipage> {
        let vp = geo.vpage_of(fault_addr)?;
        if let Some(Some(id)) = self.by_vpage.get(vp) {
            return Some(self.get(*id));
        }
        let loc = geo.decode(fault_addr)?;
        let byte = loc.page * geo.page_size() + loc.offset;
        self.redirect.get(&vp).and_then(|cands| {
            cands
                .iter()
                .map(|&id| self.get(id))
                .find(|m| m.phys_range(geo.page_size()).contains(&byte))
        })
    }

    /// Whether `id` was retired by an adaptation action.
    pub fn is_retired(&self, id: MinipageId) -> bool {
        self.retired.get(id.index()).copied().unwrap_or(false)
    }

    /// Iterates over all minipages (including retired ones).
    pub fn iter(&self) -> impl Iterator<Item = &Minipage> {
        self.entries.iter()
    }

    /// Iterates over the active (non-retired) minipages.
    pub fn iter_active(&self) -> impl Iterator<Item = &Minipage> {
        self.entries.iter().filter(|m| !self.retired[m.id.index()])
    }

    /// Next dense id an allocator should use.
    pub fn next_id(&self) -> MinipageId {
        MinipageId(self.entries.len() as u32)
    }

    /// An application view where vpages `(view, first_page .. first_page +
    /// pages)` carry no minipage and are not redirect trampolines, skipping
    /// views in `avoid` (siblings placed in the same action). This is how
    /// adaptation finds a home for a split child or a merged minipage: a
    /// fresh view over the *same* physical pages, so no data moves.
    pub fn free_view_for(
        &self,
        geo: &Geometry,
        first_page: usize,
        pages: usize,
        avoid: &[usize],
    ) -> Option<usize> {
        (0..geo.views()).find(|&view| {
            !avoid.contains(&view)
                && (first_page..first_page + pages).all(|p| self.is_free(geo.vpage_index(view, p)))
        })
    }

    /// Whether global vpage `vp` carries no minipage and is no redirect
    /// trampoline, so a new minipage may take it.
    pub(crate) fn is_free(&self, vp: usize) -> bool {
        self.by_vpage.get(vp).copied().flatten().is_none() && !self.redirect.contains_key(&vp)
    }

    /// The core adaptation mutation: retires `old` (a split's parent, or a
    /// merge's siblings) and inserts `replacements` as fresh dense-id
    /// entries, then rebuilds the redirect overlay so every retired vpage
    /// resolves to the active minipages covering its physical page.
    ///
    /// # Panics
    ///
    /// Panics if an `old` id is unknown or already retired, or if a
    /// replacement violates the one-minipage-per-vpage invariant.
    pub fn retire_and_insert(
        &mut self,
        geo: &Geometry,
        old: &[MinipageId],
        replacements: Vec<Minipage>,
    ) -> Vec<MinipageId> {
        for &id in old {
            assert!(
                id.index() < self.entries.len() && !self.retired[id.index()],
                "{id} is unknown or already retired"
            );
            self.retired[id.index()] = true;
            for vp in self.entries[id.index()].vpages(geo) {
                if self.by_vpage.get(vp).copied().flatten() == Some(id) {
                    self.by_vpage[vp] = None;
                }
            }
        }
        let ids = replacements
            .into_iter()
            .map(|mp| self.insert(geo, mp))
            .collect();
        self.rebuild_redirect(geo);
        ids
    }

    /// Recomputes the redirect overlay: every vpage of every retired entry
    /// maps to the active entries sharing its physical page.
    fn rebuild_redirect(&mut self, geo: &Geometry) {
        self.redirect.clear();
        let retired_vps: Vec<usize> = self
            .entries
            .iter()
            .filter(|m| self.retired[m.id.index()])
            .flat_map(|m| m.vpages(geo))
            .collect();
        for vp in retired_vps {
            let page = vp % geo.pages();
            let ps = geo.page_size();
            let cands: Vec<MinipageId> = self
                .iter_active()
                .filter(|m| {
                    let r = m.phys_range(ps);
                    r.start < (page + 1) * ps && page * ps < r.end
                })
                .map(|m| m.id)
                .collect();
            self.redirect.insert(vp, cands);
        }
    }

    /// Geometry invariants an adaptation action must preserve; returns one
    /// human-readable violation per breach (empty = clean). Checked post-
    /// run by both backends and used as the proptest oracle:
    ///
    /// 1. active minipages are pairwise disjoint in physical bytes;
    /// 2. no byte is orphaned — every retired entry's bytes are covered by
    ///    active entries;
    /// 3. `by_vpage` agrees with the entries in both directions;
    /// 4. `translate` resolves every byte of every entry (active via its
    ///    own vpage, retired via the redirect overlay) to the one active
    ///    minipage owning that physical byte.
    pub fn geometry_violations(&self, geo: &Geometry) -> Vec<String> {
        let ps = geo.page_size();
        let mut out = Vec::new();
        let mut active: Vec<&Minipage> = self.iter_active().collect();
        active.sort_by_key(|m| m.phys_range(ps).start);
        for w in active.windows(2) {
            if w[0].phys_range(ps).end > w[1].phys_range(ps).start {
                out.push(format!(
                    "active {} and {} overlap in physical bytes",
                    w[0].id, w[1].id
                ));
            }
        }
        for m in self.entries.iter().filter(|m| self.retired[m.id.index()]) {
            let r = m.phys_range(ps);
            let mut at = r.start;
            for a in &active {
                let ar = a.phys_range(ps);
                if ar.start <= at && at < ar.end {
                    at = ar.end;
                }
                if at >= r.end {
                    break;
                }
            }
            if at < r.end {
                out.push(format!("retired {}: byte {at} orphaned", m.id));
            }
        }
        for (vp, slot) in self.by_vpage.iter().enumerate() {
            if let Some(id) = slot {
                if self.retired[id.index()] {
                    out.push(format!("by_vpage[{vp}] points at retired {id}"));
                } else if !self.get(*id).vpages(geo).contains(&vp) {
                    out.push(format!("by_vpage[{vp}] points at {id} which skips it"));
                }
            }
        }
        for m in &active {
            for vp in m.vpages(geo) {
                if self.by_vpage.get(vp).copied().flatten() != Some(m.id) {
                    out.push(format!("active {} not indexed at vpage {vp}", m.id));
                }
            }
        }
        for m in &self.entries {
            for k in 0..m.len {
                let byte = m.phys_range(ps).start + k;
                let addr = geo.addr_of(m.view, byte / ps, byte % ps);
                match self.translate(geo, addr) {
                    Some(t) if t.phys_range(ps).contains(&byte) => {}
                    Some(t) => out.push(format!(
                        "byte {k} of {} translates to {} which does not own it",
                        m.id, t.id
                    )),
                    None => out.push(format!("byte {k} of {} does not translate", m.id)),
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geo() -> Geometry {
        Geometry::new(8, 3)
    }

    fn mk(
        id: u32,
        view: usize,
        page: usize,
        offset: usize,
        len: usize,
        geo: &Geometry,
    ) -> Minipage {
        Minipage {
            id: MinipageId(id),
            base: geo.addr_of(view, page, offset),
            len,
            view,
            first_page: page,
            offset,
        }
    }

    #[test]
    fn translate_finds_minipage_from_any_offset() {
        let g = geo();
        let mut mpt = Mpt::new();
        let m = mk(0, 1, 2, 256, 672, &g);
        mpt.insert(&g, m);
        // Any address on the vpage translates to the minipage — the fault
        // address may point anywhere inside it.
        let probe = g.addr_of(1, 2, 300);
        let hit = mpt.translate(&g, probe).unwrap();
        assert_eq!(hit.id, MinipageId(0));
        assert_eq!(hit.base, m.base);
        assert_eq!(hit.len, 672);
    }

    #[test]
    fn translate_misses_on_foreign_view_and_outside() {
        let g = geo();
        let mut mpt = Mpt::new();
        mpt.insert(&g, mk(0, 1, 2, 0, 128, &g));
        // Same physical page, different view: separate vpage, no minipage.
        assert!(mpt.translate(&g, g.addr_of(0, 2, 0)).is_none());
        assert!(mpt.translate(&g, VAddr(0x1)).is_none());
    }

    #[test]
    fn spanning_minipage_translates_from_every_vpage() {
        let g = geo();
        let mut mpt = Mpt::new();
        let m = Minipage {
            id: MinipageId(0),
            base: g.addr_of(0, 4, 0),
            len: 4096 * 3,
            view: 0,
            first_page: 4,
            offset: 0,
        };
        mpt.insert(&g, m);
        for page in 4..7 {
            let hit = mpt.translate(&g, g.addr_of(0, page, 17)).unwrap();
            assert_eq!(hit.id, MinipageId(0));
        }
    }

    #[test]
    #[should_panic(expected = "already carries")]
    fn double_association_panics() {
        let g = geo();
        let mut mpt = Mpt::new();
        mpt.insert(&g, mk(0, 1, 2, 0, 128, &g));
        mpt.insert(&g, mk(1, 1, 2, 128, 128, &g));
    }

    /// Splitting a minipage into two children in fresh views keeps every
    /// byte reachable: the parent's addresses redirect by physical byte,
    /// the children translate directly, and merging the children back
    /// restores one owner for the whole range.
    #[test]
    fn split_then_merge_round_trips_geometry() {
        // Roomy view count: each action retires vpages whose views stay
        // reserved as redirect trampolines, so split + merge needs slack.
        let g = Geometry::new(8, 6);
        let mut mpt = Mpt::new();
        mpt.insert(&g, mk(0, 0, 2, 0, 64, &g));

        // Split at byte 32 into two children over the same physical page.
        let va = mpt.free_view_for(&g, 2, 1, &[]).unwrap();
        let vb = mpt.free_view_for(&g, 2, 1, &[va]).unwrap();
        assert_ne!(va, vb, "same-page children need distinct views");
        let kids = mpt.retire_and_insert(
            &g,
            &[MinipageId(0)],
            vec![mk(1, va, 2, 0, 32, &g), mk(2, vb, 2, 32, 32, &g)],
        );
        assert_eq!(kids, vec![MinipageId(1), MinipageId(2)]);
        assert!(mpt.is_retired(MinipageId(0)));
        assert_eq!(mpt.geometry_violations(&g), Vec::<String>::new());
        // Stale parent-view addresses resolve by physical byte.
        assert_eq!(
            mpt.translate(&g, g.addr_of(0, 2, 10)).unwrap().id,
            MinipageId(1)
        );
        assert_eq!(
            mpt.translate(&g, g.addr_of(0, 2, 40)).unwrap().id,
            MinipageId(2)
        );

        // Merge the children back into one minipage in another fresh view.
        let vm = mpt.free_view_for(&g, 2, 1, &[]).unwrap();
        let merged = mpt.retire_and_insert(
            &g,
            &[MinipageId(1), MinipageId(2)],
            vec![mk(3, vm, 2, 0, 64, &g)],
        );
        assert_eq!(merged, vec![MinipageId(3)]);
        assert_eq!(mpt.geometry_violations(&g), Vec::<String>::new());
        // Parent-view *and* child-view addresses all reach the merged mp.
        for probe in [
            g.addr_of(0, 2, 10),
            g.addr_of(va, 2, 10),
            g.addr_of(vb, 2, 40),
        ] {
            assert_eq!(mpt.translate(&g, probe).unwrap().id, MinipageId(3));
        }
        assert_eq!(mpt.iter_active().count(), 1);
        assert_eq!(mpt.iter().count(), 4);
    }

    /// An orphaned byte (children that do not cover the parent) is caught
    /// by the geometry validator.
    #[test]
    fn geometry_validator_catches_orphaned_bytes() {
        let g = geo();
        let mut mpt = Mpt::new();
        mpt.insert(&g, mk(0, 0, 2, 0, 64, &g));
        mpt.retire_and_insert(&g, &[MinipageId(0)], vec![mk(1, 1, 2, 0, 32, &g)]);
        let v = mpt.geometry_violations(&g);
        assert!(
            v.iter().any(|s| s.contains("orphaned")),
            "missing orphan violation: {v:?}"
        );
    }

    #[test]
    fn ids_are_dense() {
        let g = geo();
        let mut mpt = Mpt::new();
        assert_eq!(mpt.next_id(), MinipageId(0));
        mpt.insert(&g, mk(0, 0, 0, 0, 64, &g));
        assert_eq!(mpt.next_id(), MinipageId(1));
        mpt.insert(&g, mk(1, 1, 0, 64, 64, &g));
        assert_eq!(mpt.len(), 2);
        assert_eq!(mpt.iter().count(), 2);
    }
}
