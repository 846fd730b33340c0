//! Online adaptation: act on the sharing diagnostics during a run.
//!
//! The diagnostics plane (`core::diag`) ranks what is wrong — false
//! sharing, a ping-ponging transfer unit, a hot home. This module closes
//! the loop at run time with the three remedies MultiView makes cheap
//! (§2.2: minipages are an MPT artifact, so granularity is a table
//! rewrite, not a data move):
//!
//! * **Split** a falsely shared minipage into per-writer-extent
//!   minipages. Each child is the same physical bytes viewed through a
//!   fresh view, so no data moves; only protections and the MPT change.
//! * **Merge** ping-ponging physically adjacent minipages with the same
//!   writer set back into one transfer unit, halving fault round-trips
//!   when the halves are always accessed together.
//! * **Migrate** a minipage's home to its dominant writer, turning
//!   remote write faults and invalidation round-trips into local ones.
//!
//! Actions run at *barrier quiesce points*: every application thread is
//! parked in `BarrierEnter`, no service window is open and no
//! invalidation round is in flight, so the owning shard may rewrite the
//! MPT, the directory and page protections without racing the protocol.
//! The `AdaptEngine` plans from a fresh diagnostics snapshot; the
//! manager applies locally homed actions directly and ships remotely
//! homed ones as `AdaptApply` messages, holding the barrier release
//! until every `AdaptAck` arrives.
//!
//! Anti-oscillation: a merge result is never split again, a minipage is
//! migrated at most once, and the total number of planned actions is
//! capped by [`MAX_ACTIONS`].

use crate::diag::{DiagReport, MinipageDiag};
use multiview::{Minipage, MinipageId};
use sim_core::json::{ToJson, Writer};
use sim_core::HostId;
use std::collections::{HashMap, HashSet};

/// Upper bound on the actions one run plans.
pub const MAX_ACTIONS: usize = 16;

/// Configuration of the online adaptation engine. Home migration is on
/// whenever the engine is (both backends, both consistencies).
#[derive(Clone, Debug)]
pub struct AdaptConfig {
    /// Master switch. Disabled by default: the protocol is byte-for-byte
    /// the static one unless a run opts in.
    pub enabled: bool,
    /// First barrier (1-based) at which the planner runs; earlier
    /// barriers only accumulate statistics.
    pub start_barrier: u64,
    /// Allow the granularity rewrites: splitting falsely shared minipages
    /// and merging ping-ponging adjacent ones (sim backend, SW/MR).
    pub regranulate: bool,
}

impl Default for AdaptConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            start_barrier: 2,
            regranulate: true,
        }
    }
}

impl AdaptConfig {
    /// An enabled configuration with the default knobs.
    pub fn enabled() -> Self {
        Self {
            enabled: true,
            ..Self::default()
        }
    }
}

/// One planned adaptation action.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AdaptAction {
    /// Split `mp` at ascending interior byte offsets `cuts` into
    /// `cuts.len() + 1` children.
    Split {
        /// The falsely shared minipage.
        mp: MinipageId,
        /// Interior cut offsets, strictly ascending, `0 < cut < len`.
        cuts: Vec<u32>,
    },
    /// Merge physically contiguous minipages (any order; the applier
    /// sorts by physical address) into one.
    Merge {
        /// The sibling group.
        group: Vec<MinipageId>,
    },
    /// Move `mp`'s home (directory entry + master copy) to `to`.
    Migrate {
        /// The minipage to re-home.
        mp: MinipageId,
        /// The dominant writer it moves to.
        to: HostId,
    },
}

impl AdaptAction {
    /// The minipage whose home shard must apply this action.
    pub fn target(&self) -> MinipageId {
        match self {
            AdaptAction::Split { mp, .. } | AdaptAction::Migrate { mp, .. } => *mp,
            AdaptAction::Merge { group } => group[0],
        }
    }

    /// Wire encoding for `AdaptApply` (little-endian, self-delimiting).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            AdaptAction::Split { mp, cuts } => {
                out.push(1);
                out.extend_from_slice(&mp.0.to_le_bytes());
                out.extend_from_slice(&(cuts.len() as u16).to_le_bytes());
                for c in cuts {
                    out.extend_from_slice(&c.to_le_bytes());
                }
            }
            AdaptAction::Merge { group } => {
                out.push(2);
                out.extend_from_slice(&(group.len() as u16).to_le_bytes());
                for id in group {
                    out.extend_from_slice(&id.0.to_le_bytes());
                }
            }
            AdaptAction::Migrate { mp, to } => {
                out.push(3);
                out.extend_from_slice(&mp.0.to_le_bytes());
                out.extend_from_slice(&to.0.to_le_bytes());
            }
        }
        out
    }

    /// Decodes an [`encode`](Self::encode)d action; `None` on any
    /// malformed input.
    pub fn decode(b: &[u8]) -> Option<AdaptAction> {
        let u16_at = |at: usize| Some(u16::from_le_bytes(b.get(at..at + 2)?.try_into().ok()?));
        let u32_at = |at: usize| Some(u32::from_le_bytes(b.get(at..at + 4)?.try_into().ok()?));
        match *b.first()? {
            1 => {
                let mp = MinipageId(u32_at(1)?);
                let n = u16_at(5)? as usize;
                let mut cuts = Vec::with_capacity(n);
                for k in 0..n {
                    cuts.push(u32_at(7 + 4 * k)?);
                }
                (b.len() == 7 + 4 * n).then_some(AdaptAction::Split { mp, cuts })
            }
            2 => {
                let n = u16_at(1)? as usize;
                let mut group = Vec::with_capacity(n);
                for k in 0..n {
                    group.push(MinipageId(u32_at(3 + 4 * k)?));
                }
                (b.len() == 3 + 4 * n && n >= 2).then_some(AdaptAction::Merge { group })
            }
            3 => {
                let mp = MinipageId(u32_at(1)?);
                let to = HostId(u16_at(5)?);
                (b.len() == 7).then_some(AdaptAction::Migrate { mp, to })
            }
            _ => None,
        }
    }
}

/// One applied action, as recorded in the run report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AdaptEvent {
    /// The barrier (1-based) at whose quiesce point the action applied.
    pub barrier: u64,
    /// `"split"`, `"merge"` or `"migrate"`.
    pub kind: String,
    /// The acted-on minipage (split parent, first merge sibling,
    /// migrated minipage).
    pub mp: u32,
    /// Deterministic human-readable detail (cut offsets, sibling ids,
    /// destination host).
    pub detail: String,
}

/// What the adaptation engine did over a run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AdaptReport {
    /// Applied actions in application order.
    pub actions: Vec<AdaptEvent>,
    /// Splits applied.
    pub splits: u64,
    /// Merges applied.
    pub merges: u64,
    /// Migrations applied.
    pub migrations: u64,
    /// Actions planned but skipped (busy directory entry, exhausted
    /// views, stale target).
    pub deferred: u64,
}

impl AdaptReport {
    /// Deterministic one-line fingerprint of the applied actions, for
    /// reproducibility checks across runs and backends.
    pub fn fingerprint(&self) -> String {
        let parts: Vec<String> = self
            .actions
            .iter()
            .map(|a| format!("b{}:{}:mp{}:{}", a.barrier, a.kind, a.mp, a.detail))
            .collect();
        format!("{}|deferred={}", parts.join(";"), self.deferred)
    }

    /// Folds another shard's report into this one (actions sorted by
    /// barrier, then kind, then minipage, for a deterministic merge).
    pub fn absorb(&mut self, other: AdaptReport) {
        self.actions.extend(other.actions);
        self.actions
            .sort_by(|a, b| (a.barrier, &a.kind, a.mp).cmp(&(b.barrier, &b.kind, b.mp)));
        self.splits += other.splits;
        self.merges += other.merges;
        self.migrations += other.migrations;
        self.deferred += other.deferred;
    }

    /// True if any action applied or was deferred.
    pub fn any_activity(&self) -> bool {
        !self.actions.is_empty() || self.deferred > 0
    }
}

/// The report as a JSON value (embedded in the run report).
impl ToJson for AdaptReport {
    fn write_json(&self, w: &mut Writer) {
        w.object(|w| {
            w.key("actions").array(|w| {
                for a in &self.actions {
                    w.object(|w| {
                        w.field("barrier", a.barrier)
                            .field("kind", &a.kind)
                            .field("mp", a.mp)
                            .field("detail", &a.detail);
                    });
                }
            });
            w.field("splits", self.splits)
                .field("merges", self.merges)
                .field("migrations", self.migrations)
                .field("deferred", self.deferred);
        });
    }
}

/// Hosts that wrote a minipage, per its diagnostics lanes.
fn writer_set(d: &MinipageDiag) -> Vec<u16> {
    d.per_host
        .iter()
        .filter(|l| l.write_faults > 0 || !l.write_extents.is_empty())
        .map(|l| l.host)
        .collect()
}

/// Planner + applied-action bookkeeping. One engine lives in every
/// manager shard; only the shard receiving barriers (the manager host)
/// ever plans, but every shard records the actions it applies.
pub(crate) struct AdaptEngine {
    cfg: AdaptConfig,
    /// Barriers completed at this shard (1-based after `note_barrier`).
    barriers: u64,
    /// Actions planned so far (counts against [`MAX_ACTIONS`]).
    planned: usize,
    /// Minipages never to split again (merge results, past split
    /// parents) — the anti-oscillation set.
    never_split: HashSet<u32>,
    /// Minipages already migrated once.
    migrated: HashSet<u32>,
    /// Rendezvous event ids for remote `AdaptApply` round-trips; high
    /// bit keeps them disjoint from application thread events.
    next_event: u64,
    report: AdaptReport,
}

impl AdaptEngine {
    pub(crate) fn new(cfg: AdaptConfig) -> Self {
        Self {
            cfg,
            barriers: 0,
            planned: 0,
            never_split: HashSet::new(),
            migrated: HashSet::new(),
            next_event: 1 << 62,
            report: AdaptReport::default(),
        }
    }

    /// Counts a completed barrier; returns its 1-based index.
    pub(crate) fn note_barrier(&mut self) -> u64 {
        self.barriers += 1;
        self.barriers
    }

    /// Whether the planner should run at this barrier.
    pub(crate) fn should_act(&self, barrier: u64) -> bool {
        self.cfg.enabled && barrier >= self.cfg.start_barrier && self.planned < MAX_ACTIONS
    }

    /// A fresh rendezvous event id for a remote apply.
    pub(crate) fn next_event(&mut self) -> u64 {
        self.next_event += 1;
        self.next_event
    }

    /// Marks a minipage as never-to-split (merge results).
    pub(crate) fn forbid_split(&mut self, mp: u32) {
        self.never_split.insert(mp);
    }

    pub(crate) fn record_deferred(&mut self) {
        self.report.deferred += 1;
    }

    pub(crate) fn record_split(&mut self, barrier: u64, mp: u32, cuts: &[u32]) {
        self.report.splits += 1;
        let cuts: Vec<String> = cuts.iter().map(|c| c.to_string()).collect();
        self.report.actions.push(AdaptEvent {
            barrier,
            kind: "split".into(),
            mp,
            detail: format!("cuts=[{}]", cuts.join(",")),
        });
    }

    pub(crate) fn record_merge(&mut self, barrier: u64, group: &[MinipageId], merged: u32) {
        self.report.merges += 1;
        let ids: Vec<String> = group.iter().map(|id| id.0.to_string()).collect();
        self.report.actions.push(AdaptEvent {
            barrier,
            kind: "merge".into(),
            mp: group[0].0,
            detail: format!("group=[{}]->mp{}", ids.join(","), merged),
        });
    }

    pub(crate) fn record_migrate(&mut self, barrier: u64, mp: u32, to: u16) {
        self.report.migrations += 1;
        self.report.actions.push(AdaptEvent {
            barrier,
            kind: "migrate".into(),
            mp,
            detail: format!("to=h{to}"),
        });
    }

    pub(crate) fn report(&self) -> &AdaptReport {
        &self.report
    }

    /// Plans actions from a diagnostics snapshot. Pure with respect to
    /// protocol state: the caller applies (or ships) what it gets back.
    /// Consumes planning budget; each returned action counts against
    /// [`MAX_ACTIONS`] whether or not it later applies.
    pub(crate) fn plan(
        &mut self,
        report: &DiagReport,
        active: &[Minipage],
        page_size: usize,
    ) -> Vec<AdaptAction> {
        let by_id: HashMap<u32, &Minipage> = active.iter().map(|m| (m.id.0, m)).collect();
        let diag_of = |mp: u32| report.minipages.iter().find(|d| d.mp == mp);
        let mut taken: HashSet<u32> = HashSet::new();
        let mut out = Vec::new();
        let mut budget = MAX_ACTIONS.saturating_sub(self.planned);

        // Splits: a false-sharing finding whose writers have pairwise
        // disjoint write hulls becomes one child per writer, cut at each
        // later writer's hull start.
        if self.cfg.regranulate {
            for f in &report.false_sharing {
                if budget == 0 {
                    break;
                }
                if self.never_split.contains(&f.mp)
                    || taken.contains(&f.mp)
                    || !by_id.contains_key(&f.mp)
                {
                    continue;
                }
                let Some(d) = diag_of(f.mp) else { continue };
                let mut hulls: Vec<(u64, u64)> =
                    d.per_host.iter().filter_map(|l| l.write_hull()).collect();
                hulls.sort_unstable();
                if hulls.len() < 2 || hulls.windows(2).any(|w| w[0].1 > w[1].0) {
                    continue; // Overlapping writers: a split cannot help.
                }
                let cuts: Vec<u32> = hulls[1..]
                    .iter()
                    .map(|h| h.0 as u32)
                    .filter(|&c| c > 0 && (c as usize) < d.len)
                    .collect();
                if cuts.is_empty() {
                    continue;
                }
                taken.insert(f.mp);
                self.never_split.insert(f.mp);
                budget -= 1;
                out.push(AdaptAction::Split {
                    mp: MinipageId(f.mp),
                    cuts,
                });
            }
        }

        // Merges: chains of physically adjacent ping-ponging minipages
        // with the same home and the same writer set collapse into one.
        if self.cfg.regranulate {
            let mut cands: Vec<&Minipage> = report
                .ping_pong
                .iter()
                .filter_map(|f| by_id.get(&f.mp).copied())
                .filter(|m| !taken.contains(&m.id.0) && !self.never_split.contains(&m.id.0))
                .collect();
            cands.sort_by_key(|m| m.phys_range(page_size).start);
            cands.dedup_by_key(|m| m.id);
            let mergeable = |a: &Minipage, b: &Minipage| {
                let (da, db) = match (diag_of(a.id.0), diag_of(b.id.0)) {
                    (Some(da), Some(db)) => (da, db),
                    _ => return false,
                };
                a.phys_range(page_size).end == b.phys_range(page_size).start
                    && da.home == db.home
                    && writer_set(da) == writer_set(db)
            };
            let mut i = 0;
            while i < cands.len() && budget > 0 {
                let mut j = i + 1;
                while j < cands.len() && mergeable(cands[j - 1], cands[j]) {
                    j += 1;
                }
                if j - i >= 2 {
                    let group: Vec<MinipageId> = cands[i..j].iter().map(|m| m.id).collect();
                    for id in &group {
                        taken.insert(id.0);
                    }
                    budget -= 1;
                    out.push(AdaptAction::Merge { group });
                }
                i = j.max(i + 1);
            }
        }

        // Migrations: every minipage homed at a hot host whose writes
        // come (in the majority) from one other host moves there.
        for f in &report.hot_home {
            let hot = f.host;
            for d in &report.minipages {
                if budget == 0 {
                    break;
                }
                if d.home != hot
                    || taken.contains(&d.mp)
                    || self.migrated.contains(&d.mp)
                    || !by_id.contains_key(&d.mp)
                {
                    continue;
                }
                let total: u64 = d.per_host.iter().map(|l| l.write_faults).sum();
                let Some(top) = d.per_host.iter().max_by_key(|l| l.write_faults) else {
                    continue;
                };
                // A strict majority writer, and not already the home.
                if top.write_faults == 0 || top.host == hot || top.write_faults * 2 < total {
                    continue;
                }
                taken.insert(d.mp);
                self.migrated.insert(d.mp);
                budget -= 1;
                out.push(AdaptAction::Migrate {
                    mp: MinipageId(d.mp),
                    to: HostId(top.host),
                });
            }
        }

        self.planned += out.len();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::{Finding, HostLane};
    use sim_mem::Geometry;

    fn lane(host: u16, rf: u64, wf: u64, extents: &[(u64, u64)]) -> HostLane {
        HostLane {
            host,
            read_faults: rf,
            write_faults: wf,
            inv_recv: 0,
            write_extents: extents.to_vec(),
        }
    }

    fn mp_diag(mp: u32, len: usize, home: u16, lanes: Vec<HostLane>) -> MinipageDiag {
        MinipageDiag {
            mp,
            len,
            home,
            first_vpage: 0,
            vpages: 1,
            inv_sent: 0,
            diff_bytes: 0,
            alternations: 0,
            last_writer: None,
            per_host: lanes,
        }
    }

    fn finding(detector: &'static str, mp: u32, host: u16) -> Finding {
        Finding {
            detector,
            mp,
            host,
            score: 10,
            evidence: String::new(),
        }
    }

    fn desc(id: u32, first_page: usize, offset: usize, len: usize) -> Minipage {
        let geo = Geometry::new(8, 4);
        Minipage {
            id: MinipageId(id),
            base: geo.addr_of(0, first_page, offset),
            len,
            view: 0,
            first_page,
            offset,
        }
    }

    fn empty_report() -> DiagReport {
        DiagReport {
            minipages: Vec::new(),
            ping_pong: Vec::new(),
            false_sharing: Vec::new(),
            hot_home: Vec::new(),
            links: Vec::new(),
            overflow: 0,
        }
    }

    #[test]
    fn actions_encode_and_decode() {
        let actions = [
            AdaptAction::Split {
                mp: MinipageId(7),
                cuts: vec![16, 48],
            },
            AdaptAction::Merge {
                group: vec![MinipageId(2), MinipageId(3)],
            },
            AdaptAction::Migrate {
                mp: MinipageId(9),
                to: HostId(3),
            },
        ];
        for a in actions {
            assert_eq!(AdaptAction::decode(&a.encode()), Some(a));
        }
        assert_eq!(AdaptAction::decode(&[]), None);
        assert_eq!(AdaptAction::decode(&[9, 0, 0]), None);
        // A merge of fewer than two siblings is malformed.
        let short = AdaptAction::Merge {
            group: vec![MinipageId(1)],
        };
        assert_eq!(AdaptAction::decode(&short.encode()), None);
    }

    #[test]
    fn disjoint_writer_hulls_split_at_hull_starts() {
        let mut report = empty_report();
        report.minipages = vec![mp_diag(
            0,
            64,
            0,
            vec![lane(0, 0, 5, &[(0, 16)]), lane(1, 0, 5, &[(32, 64)])],
        )];
        report.false_sharing = vec![finding("false-sharing", 0, 1)];
        let active = [desc(0, 0, 0, 64)];
        let mut eng = AdaptEngine::new(AdaptConfig::enabled());
        let plan = eng.plan(&report, &active, 4096);
        assert_eq!(
            plan,
            vec![AdaptAction::Split {
                mp: MinipageId(0),
                cuts: vec![32],
            }]
        );
        // The parent enters the never-split set: planning again from the
        // same (stale) report is a no-op.
        assert!(eng.plan(&report, &active, 4096).is_empty());
    }

    #[test]
    fn overlapping_writer_hulls_do_not_split() {
        let mut report = empty_report();
        report.minipages = vec![mp_diag(
            0,
            64,
            0,
            vec![lane(0, 0, 5, &[(0, 40)]), lane(1, 0, 5, &[(32, 64)])],
        )];
        report.false_sharing = vec![finding("false-sharing", 0, 1)];
        let active = [desc(0, 0, 0, 64)];
        let mut eng = AdaptEngine::new(AdaptConfig::enabled());
        assert!(eng.plan(&report, &active, 4096).is_empty());
    }

    #[test]
    fn adjacent_ping_pong_pair_merges_distant_pair_does_not() {
        let lanes = || vec![lane(0, 2, 8, &[(0, 8)]), lane(1, 2, 8, &[(0, 8)])];
        let mut report = empty_report();
        report.minipages = vec![
            mp_diag(0, 32, 0, lanes()),
            mp_diag(1, 32, 0, lanes()),
            mp_diag(2, 32, 0, lanes()),
        ];
        report.ping_pong = vec![
            finding("ping-pong", 0, 1),
            finding("ping-pong", 1, 1),
            finding("ping-pong", 2, 1),
        ];
        // 0 and 1 are physically adjacent; 2 sits one page away.
        let active = [desc(0, 0, 0, 32), desc(1, 0, 32, 32), desc(2, 1, 0, 32)];
        let mut eng = AdaptEngine::new(AdaptConfig::enabled());
        let plan = eng.plan(&report, &active, 4096);
        assert_eq!(
            plan,
            vec![AdaptAction::Merge {
                group: vec![MinipageId(0), MinipageId(1)],
            }]
        );
    }

    #[test]
    fn hot_home_migrates_majority_written_minipages_once() {
        let mut report = empty_report();
        report.minipages = vec![
            // mp0: host 2 does all the writing, homed at hot host 0.
            mp_diag(0, 32, 0, vec![lane(0, 0, 0, &[]), lane(2, 0, 9, &[(0, 4)])]),
            // mp1: written only by its home — stays put.
            mp_diag(1, 32, 0, vec![lane(0, 0, 9, &[(0, 4)])]),
            // mp2: homed elsewhere — not the hot host's problem.
            mp_diag(2, 32, 1, vec![lane(2, 0, 9, &[(0, 4)])]),
        ];
        report.hot_home = vec![finding("hot-home", 0, 0)];
        let active = [desc(0, 0, 0, 32), desc(1, 0, 32, 32), desc(2, 1, 0, 32)];
        let mut eng = AdaptEngine::new(AdaptConfig::enabled());
        let plan = eng.plan(&report, &active, 4096);
        assert_eq!(
            plan,
            vec![AdaptAction::Migrate {
                mp: MinipageId(0),
                to: HostId(2),
            }]
        );
        // Each minipage migrates at most once per run.
        assert!(eng.plan(&report, &active, 4096).is_empty());
    }

    #[test]
    fn planning_budget_caps_total_actions() {
        let mut report = empty_report();
        let n = MAX_ACTIONS as u32 + 1;
        for mp in 0..n {
            report.minipages.push(mp_diag(
                mp,
                32,
                0,
                vec![lane(0, 0, 0, &[]), lane(2, 0, 9, &[(0, 4)])],
            ));
        }
        report.hot_home = vec![finding("hot-home", 0, 0)];
        let active: Vec<Minipage> = (0..n).map(|k| desc(k, 0, 32 * k as usize, 32)).collect();
        let mut eng = AdaptEngine::new(AdaptConfig::enabled());
        assert_eq!(eng.plan(&report, &active, 4096).len(), MAX_ACTIONS);
        assert!(!eng.should_act(5));
    }

    #[test]
    fn report_fingerprint_and_merge_are_deterministic() {
        let mut eng = AdaptEngine::new(AdaptConfig::enabled());
        eng.record_split(2, 0, &[32]);
        eng.record_migrate(3, 4, 2);
        eng.record_deferred();
        let fp = eng.report().fingerprint();
        assert_eq!(fp, "b2:split:mp0:cuts=[32];b3:migrate:mp4:to=h2|deferred=1");
        let mut merged = AdaptReport::default();
        merged.absorb(eng.report().clone());
        merged.absorb(AdaptReport::default());
        assert_eq!(merged.fingerprint(), fp);
        assert!(merged.any_activity());
        let json = sim_core::json::document(|w| merged.write_json(w));
        assert!(json.contains("\"splits\":1"));
        assert!(json.contains("\"migrations\":1"));
    }

    #[test]
    fn disabled_engine_never_acts() {
        let eng = AdaptEngine::new(AdaptConfig::default());
        assert!(!eng.should_act(100));
    }
}

/// Property tests: random split/merge/migrate sequences — built with the
/// same placement arithmetic as `ManagerShard::apply_action` — interleaved
/// with allocations preserve the MPT geometry invariants and home
/// inheritance under every home policy. Lives in this crate because
/// building a [`HomeTable`] and replacing its minipages
/// ([`HomeTable::replace`]) is crate-private.
#[cfg(test)]
mod props {
    use crate::home::HomeTable;
    use crate::HomePolicyKind;
    use multiview::{AllocMode, Allocator, Minipage, MinipageId};
    use proptest::prelude::*;
    use sim_core::HostId;
    use sim_mem::Geometry;

    const HOSTS: usize = 4;
    /// Seeded minipages, each covering one full physical page.
    const SEEDED: usize = 3;

    const POLICIES: [HomePolicyKind; 3] = [
        HomePolicyKind::Centralized,
        HomePolicyKind::Interleaved,
        HomePolicyKind::FirstTouch,
    ];

    /// A descriptor covering `len` physical bytes from `phys` through
    /// `view` — the arithmetic `apply_action` uses to place children and
    /// merge results.
    fn descriptor(
        id: MinipageId,
        geo: &Geometry,
        view: usize,
        phys: usize,
        len: usize,
    ) -> Minipage {
        let ps = geo.page_size();
        Minipage {
            id,
            base: geo.addr_of(view, phys / ps, phys % ps),
            len,
            view,
            first_page: phys / ps,
            offset: phys % ps,
        }
    }

    fn pages_of(geo: &Geometry, phys: usize, len: usize) -> usize {
        let ps = geo.page_size();
        (phys % ps + len).div_ceil(ps)
    }

    /// Replays one op sequence against a fresh table; every op is
    /// followed by the full geometry oracle and a check of every id's
    /// home against a model: the policy's at allocation, the retired
    /// entries' for a replacement, the target's after a migration. Ops
    /// that cannot apply (no candidate, exhausted views or memory) are
    /// skipped, exactly like the manager defers them.
    fn run_sequence(
        kind: HomePolicyKind,
        ops: &[(usize, usize, usize)],
    ) -> Result<(), TestCaseError> {
        let geo = Geometry::new(24, SEEDED + 1);
        let ps = geo.page_size();
        let home = HomeTable::new(kind, HOSTS, Allocator::new(geo.clone(), AllocMode::FINE));
        let mut homes = Vec::new();
        for _ in 0..SEEDED {
            let (_, placed) = home.alloc(ps, HostId(0)).unwrap();
            homes.extend(placed.iter().map(|&(_, h)| h));
        }
        let mut allocated = SEEDED * ps;
        for &(op, pick, param) in ops {
            let mut active: Vec<Minipage> =
                home.table.borrow().mpt().iter_active().copied().collect();
            active.sort_by_key(|m| m.phys_range(ps).start);
            match op % 4 {
                // Split at an interior cut, children in fresh views.
                0 => {
                    let cands: Vec<&Minipage> = active.iter().filter(|m| m.len >= 2).collect();
                    if cands.is_empty() {
                        continue;
                    }
                    let parent = *cands[pick % cands.len()];
                    let cut = 1 + param % (parent.len - 1);
                    let children = {
                        let t = home.table.borrow();
                        let mpt = t.mpt();
                        let phys = parent.phys_range(ps).start;
                        let Some(va) =
                            mpt.free_view_for(&geo, phys / ps, pages_of(&geo, phys, cut), &[])
                        else {
                            continue;
                        };
                        let pb = phys + cut;
                        let lb = parent.len - cut;
                        let Some(vb) =
                            mpt.free_view_for(&geo, pb / ps, pages_of(&geo, pb, lb), &[va])
                        else {
                            continue;
                        };
                        let next = mpt.next_id().0;
                        vec![
                            descriptor(MinipageId(next), &geo, va, phys, cut),
                            descriptor(MinipageId(next + 1), &geo, vb, pb, lb),
                        ]
                    };
                    let parent_home = home.home(parent.id);
                    home.replace(&[parent.id], children, parent_home);
                    homes.extend([parent_home; 2]);
                }
                // Merge a physically adjacent same-home pair.
                1 => {
                    let pair = active.windows(2).find(|w| {
                        w[0].phys_range(ps).end == w[1].phys_range(ps).start
                            && home.home(w[0].id) == home.home(w[1].id)
                    });
                    let Some(pair) = pair else { continue };
                    let start = pair[0].phys_range(ps).start;
                    let len = pair[0].len + pair[1].len;
                    let pages = pages_of(&geo, start, len);
                    if start / ps + pages > geo.pages() {
                        continue;
                    }
                    let merged = {
                        let t = home.table.borrow();
                        let Some(view) = t.mpt().free_view_for(&geo, start / ps, pages, &[]) else {
                            continue;
                        };
                        descriptor(t.mpt().next_id(), &geo, view, start, len)
                    };
                    let group_home = home.home(pair[0].id);
                    home.replace(&[pair[0].id, pair[1].id], vec![merged], group_home);
                    homes.push(group_home);
                }
                // Migrate any active minipage.
                2 => {
                    let mp = active[pick % active.len()];
                    let to = HostId((param % HOSTS) as u16);
                    let epoch = home.migrate(mp.id, to);
                    prop_assert_eq!(home.epoch(), epoch);
                    prop_assert!(epoch > 0, "{:?}: migration did not bump the epoch", kind);
                    homes[mp.id.index()] = to;
                }
                // Allocate a small, a multi-page or a page-sized block
                // around whatever adaptation placed so far.
                _ => {
                    let size = match pick % 3 {
                        0 => 1 + param % 512,
                        1 => ps + 1 + param,
                        _ => ps,
                    };
                    let by = HostId((pick % HOSTS) as u16);
                    let Ok((addr, placed)) = home.alloc(size, by) else {
                        continue; // Out of memory.
                    };
                    let (mp, h) = placed[0];
                    prop_assert_eq!(placed.len(), 1);
                    prop_assert_eq!(mp.id.index(), homes.len());
                    prop_assert_eq!(h, kind.assign(mp.id, by, HOSTS));
                    prop_assert_eq!(home.translate(addr).map(|m| m.id), Some(mp.id));
                    homes.push(h);
                    allocated += mp.len;
                }
            }
            let t = home.table.borrow();
            let v = t.mpt().geometry_violations(&geo);
            prop_assert!(v.is_empty(), "{:?}: geometry violations: {:?}", kind, v);
            prop_assert_eq!(t.mpt().len(), homes.len(), "{:?}: ids out of step", kind);
            drop(t);
            for (id, &want) in homes.iter().enumerate() {
                prop_assert_eq!(
                    home.home(MinipageId(id as u32)),
                    want,
                    "{:?}: {} lost its home",
                    kind,
                    id
                );
            }
        }
        // End-to-end: every seeded physical byte still reaches exactly
        // one active owner through the original (view-0) addresses, the
        // active set covers exactly the allocated bytes, and every home is
        // a real host.
        let t = home.table.borrow();
        let mpt = t.mpt();
        let covered: usize = mpt.iter_active().map(|m| m.len).sum();
        prop_assert_eq!(covered, allocated, "{:?}: active bytes leaked", kind);
        for byte in (0..SEEDED * ps).step_by(97) {
            let addr = geo.addr_of(0, byte / ps, byte % ps);
            let owner = mpt.translate(&geo, addr);
            prop_assert!(
                owner.is_some_and(|m| m.phys_range(ps).contains(&byte) && !mpt.is_retired(m.id)),
                "{:?}: seeded byte {} lost its active owner",
                kind,
                byte
            );
        }
        prop_assert!(
            homes.iter().all(|h| h.index() < HOSTS),
            "{:?}: a minipage homed at an absent host",
            kind
        );
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random adaptation sequences, with allocations between the
        /// actions, round-trip the MPT under all three home policies.
        #[test]
        fn split_merge_migrate_sequences_round_trip_geometry(
            ops in collection::vec((0usize..4, 0usize..64, 0usize..4096), 1..12),
        ) {
            for kind in POLICIES {
                run_sequence(kind, &ops)?;
            }
        }
    }
}
