//! Sharing diagnostics: per-minipage heat statistics and pathology
//! detectors, shared by both backends.
//!
//! The ROADMAP's adaptive-granularity item (split/merge minipages online,
//! migrate homes to the dominant writer) needs per-minipage access
//! accounting before any policy can act on it. This module provides that
//! measurement layer:
//!
//! * [`DiagTable`] — a lock-free, pre-allocated, fixed-capacity table of
//!   relaxed atomics. Every counter update is a single
//!   `fetch_add`/`fetch_min`/`fetch_max` on a pre-allocated `AtomicU64`,
//!   which keeps the host backend's SIGSEGV resolver path legal: the
//!   resolver runs in signal context and may only touch async-signal-safe
//!   state (see `hostmv::fault`'s module docs). Per minipage the table
//!   keeps one *lane* per host (read/write faults, invalidations
//!   received, two bounded packed write extents) plus shard-side counters
//!   (invalidations fanned out, diff bytes, last writer, inter-host
//!   write-ownership alternations).
//! * [`DiagReport`] — the merged per-minipage statistics plus the ranked
//!   findings of three detectors (ping-pong, false sharing, hot home) and
//!   the per-link wire traffic.
//!
//! Nothing in the protocol calls the table directly: each recording thread
//! records through its probe (`core::probe`), which updates these lanes
//! from the same call that bumps the run's counters and writes the trace,
//! so the lanes and the counters cannot drift apart. A run with
//! diagnostics off has no table, and every report stays byte-for-byte
//! what it was.
//!
//! # Detector definitions
//!
//! * **Ping-pong**: write ownership of one minipage alternated between
//!   ≥ 2 hosts at least [`PING_PONG_MIN_ALTERNATIONS`] times. Under SW/MR
//!   an alternation is recorded when the directory forwards the writable
//!   copy to a different host than the previous writer; under HLRC, when
//!   a release diff arrives from a different host than the previous
//!   flusher. Ranked by alternation count.
//! * **False sharing**: ≥ 2 hosts wrote *pairwise-disjoint* byte ranges
//!   of one minipage (each with at least [`FALSE_SHARING_MIN_WRITES`]
//!   write faults). Extents come from fault offsets (SW/MR) and diff-run
//!   extents (HLRC); overlapping extents mean the hosts contend for the
//!   same bytes — true sharing — and are deliberately excluded. Ranked by
//!   write faults + invalidations fanned out (the traffic a split would
//!   remove).
//! * **Hot home**: one host's shard serves more than [`HOT_HOME_SKEW`] ×
//!   the mean fault load of the hosts that actually home active minipages
//!   (summed over the minipages homed there). When a single host homes
//!   everything (Centralized), the detector instead checks per-minipage
//!   concentration at that host, and single-host clusters never produce
//!   findings. Loads below [`HOT_HOME_MIN_LOAD`] are never flagged,
//!   whatever the ratio. Ranked by load.

use crate::home::HomeTable;
use multiview::Minipage;
use sim_core::json::{ToJson, Writer};
use sim_core::trace::NO_MP;
pub use sim_core::LinkStat;
use sim_mem::Geometry;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// Ping-pong detector threshold: minimum inter-host write-ownership
/// alternations (any alternation implies ≥ 2 distinct writers).
pub const PING_PONG_MIN_ALTERNATIONS: u64 = 4;

/// False-sharing detector threshold: minimum write faults per
/// participating host.
pub const FALSE_SHARING_MIN_WRITES: u64 = 2;

/// Hot-home detector threshold: a home is hot when its fault load exceeds
/// this multiple of the mean per-host load.
pub const HOT_HOME_SKEW: f64 = 1.5;

/// Minimum remote-fault load before a home (or, at a sole home, a single
/// minipage) can be flagged hot. Skew alone is not evidence: a handful of
/// cold-start faults can exceed any ratio threshold, and a finding built
/// on them would send the adaptation engine chasing noise.
pub const HOT_HOME_MIN_LOAD: u64 = 8;

/// "No writer yet" marker in the last-writer cell.
const NO_WRITER: u64 = u64::MAX;

// Per-(slot, host) lane layout. The two extent lanes each hold one packed
// byte range `(start << 32) | end` or [`EXT_EMPTY`]; keeping *two* bounded
// slots (instead of a single min/max hull) is what lets one host record two
// distant write ranges without manufacturing an artificial overlap that
// would suppress the false-sharing detector.
const L_READ: usize = 0;
const L_WRITE: usize = 1;
const L_INV: usize = 2;
const L_EXT0: usize = 3;
const L_EXT1: usize = 4;
const HOST_LANES: usize = 5;

/// "No extent recorded" marker in a packed extent cell. `u64::MAX` decodes
/// as the empty range `[u32::MAX, u32::MAX)`, which no real write produces
/// (extents always have `end > start`).
const EXT_EMPTY: u64 = u64::MAX;

/// Bound on CAS retries in [`DiagTable::write_extent`]: the updater must
/// stay legal in signal context, so it cannot spin unboundedly; past the
/// cap the update is dropped (a statistical loss, never a safety one).
const EXT_CAS_CAP: usize = 64;

#[inline]
fn ext_pack(start: u64, end: u64) -> u64 {
    (start.min(u32::MAX as u64) << 32) | end.min(u32::MAX as u64)
}

#[inline]
fn ext_unpack(cell: u64) -> Option<(u64, u64)> {
    if cell == EXT_EMPTY {
        return None;
    }
    Some((cell >> 32, cell & u32::MAX as u64))
}
// Per-slot (shard-side) lane layout, after the host lanes.
const S_INV_SENT: usize = 0;
const S_DIFF_BYTES: usize = 1;
const S_LAST_WRITER: usize = 2;
const S_ALTERNATIONS: usize = 3;
const SLOT_LANES: usize = 4;

/// The value lane `lane` of a slot's stride starts at, in a table of
/// `hosts` hosts: extents empty, the last writer none, counters zero.
fn initial(hosts: usize, lane: usize) -> u64 {
    match lane.checked_sub(hosts * HOST_LANES) {
        None if matches!(lane % HOST_LANES, L_EXT0 | L_EXT1) => EXT_EMPTY,
        Some(S_LAST_WRITER) => NO_WRITER,
        _ => 0,
    }
}

/// The lock-free statistics table. Pre-allocated at run start; every
/// update is one relaxed atomic RMW, so both the simulator's threads and
/// the host backend's signal-context resolver may record into it.
pub struct DiagTable {
    hosts: usize,
    slots: usize,
    /// `slots × (hosts · HOST_LANES + SLOT_LANES)` cells.
    cells: Vec<AtomicU64>,
    /// Events on minipages beyond the table capacity.
    overflow: AtomicU64,
}

impl DiagTable {
    /// A zeroed table with room for minipage ids `0..slots`. The backends
    /// pass the geometry's application-view vpage count, which bounds the
    /// minipage ids any allocation order can produce.
    pub fn with_slots(hosts: usize, slots: usize) -> Arc<Self> {
        let stride = hosts * HOST_LANES + SLOT_LANES;
        let cells = (0..slots * stride)
            .map(|i| AtomicU64::new(initial(hosts, i % stride)))
            .collect();
        Arc::new(Self {
            hosts,
            slots,
            cells,
            overflow: AtomicU64::new(0),
        })
    }

    #[inline]
    fn stride(&self) -> usize {
        self.hosts * HOST_LANES + SLOT_LANES
    }

    /// Cell index of `lane` in host `host`'s lane group of slot `mp`, or
    /// `None` (overflow counted) for out-of-range minipages.
    #[inline]
    fn host_cell(&self, mp: u32, host: u16, lane: usize) -> Option<usize> {
        let slot = mp as usize;
        if slot >= self.slots || (host as usize) >= self.hosts {
            self.overflow.fetch_add(1, Relaxed);
            return None;
        }
        Some(slot * self.stride() + host as usize * HOST_LANES + lane)
    }

    /// Cell index of the shard-side `lane` of slot `mp`.
    #[inline]
    fn slot_cell(&self, mp: u32, lane: usize) -> Option<usize> {
        let slot = mp as usize;
        if slot >= self.slots {
            self.overflow.fetch_add(1, Relaxed);
            return None;
        }
        Some(slot * self.stride() + self.hosts * HOST_LANES + lane)
    }

    /// Records a read fault taken by `host` on minipage `mp`.
    #[inline]
    pub fn read_fault(&self, mp: u32, host: u16) {
        if let Some(i) = self.host_cell(mp, host, L_READ) {
            self.cells[i].fetch_add(1, Relaxed);
        }
    }

    /// Records a write fault by `host` at byte `off` (extent `len`) of
    /// minipage `mp`.
    #[inline]
    pub fn write_fault(&self, mp: u32, host: u16, off: u64, len: u64) {
        if let Some(i) = self.host_cell(mp, host, L_WRITE) {
            self.cells[i].fetch_add(1, Relaxed);
        }
        self.write_extent(mp, host, off, len);
    }

    /// Records `host`'s write of `[off, off + len)` on `mp` into one of
    /// the two bounded extent slots: merge into an overlapping-or-touching
    /// extent, else claim an empty slot, else widen the nearest extent.
    /// Every path is a bounded sequence of relaxed CAS attempts on
    /// pre-allocated cells, so the host backend's signal-context resolver
    /// may call it; past `EXT_CAS_CAP` the update is dropped.
    pub fn write_extent(&self, mp: u32, host: u16, off: u64, len: u64) {
        let (Some(i0), Some(i1)) = (
            self.host_cell(mp, host, L_EXT0),
            self.host_cell(mp, host, L_EXT1),
        ) else {
            return;
        };
        let (s, e) = (off, off + len.max(1));
        for _ in 0..EXT_CAS_CAP {
            let cur = [self.cells[i0].load(Relaxed), self.cells[i1].load(Relaxed)];
            // Pick the slot to update: an extent the new range overlaps or
            // touches, else an empty slot, else the nearest extent.
            let mut pick: Option<(usize, u64)> = None;
            for (k, &cell) in cur.iter().enumerate() {
                if let Some((cs, ce)) = ext_unpack(cell) {
                    if s <= ce && cs <= e {
                        pick = Some((k, ext_pack(cs.min(s), ce.max(e))));
                        break;
                    }
                }
            }
            if pick.is_none() {
                pick = cur
                    .iter()
                    .position(|&c| c == EXT_EMPTY)
                    .map(|k| (k, ext_pack(s, e)));
            }
            let (k, next) = pick.unwrap_or_else(|| {
                // Both slots hold disjoint extents; widen whichever is
                // closer to the new range.
                let gap = |cell: u64| {
                    let (cs, ce) = ext_unpack(cell).expect("slot full");
                    if e < cs {
                        cs - e
                    } else {
                        s.saturating_sub(ce)
                    }
                };
                let k = usize::from(gap(cur[1]) < gap(cur[0]));
                let (cs, ce) = ext_unpack(cur[k]).expect("slot full");
                (k, ext_pack(cs.min(s), ce.max(e)))
            });
            let cell = if k == 0 {
                &self.cells[i0]
            } else {
                &self.cells[i1]
            };
            if cell
                .compare_exchange_weak(cur[k], next, Relaxed, Relaxed)
                .is_ok()
            {
                return;
            }
        }
    }

    /// Records an invalidation received (and applied) by `host`.
    #[inline]
    pub fn inv_recv(&self, mp: u32, host: u16) {
        if let Some(i) = self.host_cell(mp, host, L_INV) {
            self.cells[i].fetch_add(1, Relaxed);
        }
    }

    /// Records `n` invalidations fanned out by `mp`'s home shard.
    #[inline]
    pub fn inv_sent(&self, mp: u32, n: u64) {
        if let Some(i) = self.slot_cell(mp, S_INV_SENT) {
            self.cells[i].fetch_add(n, Relaxed);
        }
    }

    /// Records `bytes` of encoded release-diff data applied at the home.
    #[inline]
    pub fn diff_bytes(&self, mp: u32, bytes: u64) {
        if let Some(i) = self.slot_cell(mp, S_DIFF_BYTES) {
            self.cells[i].fetch_add(bytes, Relaxed);
        }
    }

    /// Records `host` becoming the current writer of `mp`, counting an
    /// alternation when the previous writer was a different host. Only the
    /// minipage's home shard calls this (one shard per minipage), so the
    /// load/store pair cannot race with itself.
    #[inline]
    pub fn writer(&self, mp: u32, host: u16) {
        let Some(last) = self.slot_cell(mp, S_LAST_WRITER) else {
            return;
        };
        let prev = self.cells[last].load(Relaxed);
        if prev == host as u64 {
            return;
        }
        if prev != NO_WRITER {
            if let Some(alt) = self.slot_cell(mp, S_ALTERNATIONS) {
                self.cells[alt].fetch_add(1, Relaxed);
            }
        }
        self.cells[last].store(host as u64, Relaxed);
    }

    /// Resets every lane of minipage `mp` to its initial state. The adapt
    /// engine calls this on each split/merge/home-migration so the first
    /// post-action write does not record a phantom alternation against the
    /// pre-action writer (which would re-flag a freshly fixed minipage and
    /// oscillate the adapt loop). Callers must quiesce the minipage first
    /// (no in-flight faults); adaptation actions run at barrier quorum,
    /// which guarantees exactly that.
    pub fn reset_slot(&self, mp: u32) {
        let slot = mp as usize;
        if slot >= self.slots {
            return;
        }
        let stride = self.stride();
        for (lane, cell) in self.cells[slot * stride..][..stride].iter().enumerate() {
            cell.store(initial(self.hosts, lane), Relaxed);
        }
    }

    fn host_lane(&self, mp: u32, host: usize, lane: usize) -> u64 {
        self.cells[mp as usize * self.stride() + host * HOST_LANES + lane].load(Relaxed)
    }

    /// The recorded write extents of `(mp, host)`, sorted by start.
    fn host_extents(&self, mp: u32, host: usize) -> Vec<(u64, u64)> {
        let mut out: Vec<(u64, u64)> = [L_EXT0, L_EXT1]
            .iter()
            .filter_map(|&lane| ext_unpack(self.host_lane(mp, host, lane)))
            .collect();
        out.sort_unstable();
        out
    }

    fn slot_lane(&self, mp: u32, lane: usize) -> u64 {
        self.cells[mp as usize * self.stride() + self.hosts * HOST_LANES + lane].load(Relaxed)
    }

    /// Every cell and the overflow count, in layout order: two tables
    /// recorded the same iff their snapshots are equal.
    #[cfg(test)]
    pub(crate) fn snapshot(&self) -> Vec<u64> {
        let all = self.cells.iter().chain([&self.overflow]);
        all.map(|c| c.load(Relaxed)).collect()
    }
}

/// One host's lane of a minipage's statistics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HostLane {
    /// The host.
    pub host: u16,
    /// Read faults this host took on the minipage.
    pub read_faults: u64,
    /// Write faults this host took on the minipage.
    pub write_faults: u64,
    /// Invalidations this host received for the minipage.
    pub inv_recv: u64,
    /// Byte ranges `[start, end)` of the host's recorded writes, sorted,
    /// empty if it never wrote. At most two bounded extents are kept (see
    /// the lane layout), so two distant write ranges stay distinct instead
    /// of collapsing into one hull that would fake an overlap.
    pub write_extents: Vec<(u64, u64)>,
}

impl HostLane {
    /// Whether the host faulted on, received invalidations for, or wrote
    /// the minipage.
    fn active(&self) -> bool {
        self.read_faults + self.write_faults + self.inv_recv > 0 || !self.write_extents.is_empty()
    }

    /// The convex hull of the recorded extents, or `None` if the host
    /// never wrote (display/heatmap convenience).
    pub fn write_hull(&self) -> Option<(u64, u64)> {
        let first = self.write_extents.first()?;
        let last = self.write_extents.last()?;
        Some((first.0, last.1))
    }
}

/// Merged statistics of one minipage.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MinipageDiag {
    /// Minipage id.
    pub mp: u32,
    /// Length in bytes.
    pub len: usize,
    /// Home host.
    pub home: u16,
    /// First global vpage the minipage occupies (heatmap row).
    pub first_vpage: usize,
    /// Number of vpages spanned.
    pub vpages: usize,
    /// Invalidations the home shard fanned out for this minipage.
    pub inv_sent: u64,
    /// Encoded release-diff bytes applied at the home.
    pub diff_bytes: u64,
    /// Inter-host write-ownership alternations.
    pub alternations: u64,
    /// The most recent writer, if any.
    pub last_writer: Option<u16>,
    /// Per-host lanes (dense, one per host).
    pub per_host: Vec<HostLane>,
}

impl MinipageDiag {
    /// Total read faults across hosts.
    pub fn read_faults(&self) -> u64 {
        self.per_host.iter().map(|l| l.read_faults).sum()
    }

    /// Total write faults across hosts.
    pub fn write_faults(&self) -> u64 {
        self.per_host.iter().map(|l| l.write_faults).sum()
    }

    fn any_activity(&self) -> bool {
        self.inv_sent > 0
            || self.diff_bytes > 0
            || self.alternations > 0
            || self.last_writer.is_some()
            || self.per_host.iter().any(HostLane::active)
    }
}

/// One ranked detector finding.
#[derive(Clone, Debug, PartialEq)]
pub struct Finding {
    /// Detector name (`"ping-pong"`, `"false-sharing"`, `"hot-home"`).
    pub detector: &'static str,
    /// The minipage the finding is about (for hot-home: the hottest
    /// minipage homed at the hot host).
    pub mp: u32,
    /// The host the finding is about (hot-home: the hot home; others: the
    /// last writer).
    pub host: u16,
    /// Ranking score (alternations / removable traffic / fault load).
    pub score: u64,
    /// Human-readable evidence: hosts, rates, byte ranges.
    pub evidence: String,
}

/// The merged diagnostics of one run: per-minipage statistics, ranked
/// detector findings, and per-link wire traffic.
#[derive(Clone, Debug, PartialEq)]
pub struct DiagReport {
    /// Minipages with any recorded activity, in id order.
    pub minipages: Vec<MinipageDiag>,
    /// Ping-pong findings, worst first.
    pub ping_pong: Vec<Finding>,
    /// False-sharing findings, worst first.
    pub false_sharing: Vec<Finding>,
    /// Hot-home findings, worst first.
    pub hot_home: Vec<Finding>,
    /// Per-link wire traffic (links with no traffic omitted).
    pub links: Vec<LinkStat>,
    /// Events on minipages beyond the table capacity (0 in any run this
    /// repository ships).
    pub overflow: u64,
}

/// Builds the merged report: reads the table, attaches allocation
/// metadata, and runs the detectors. `links` carries the per-link wire
/// traffic from whichever transport the run used.
pub(crate) fn build_report(
    table: &DiagTable,
    minipages: &[Minipage],
    geo: &Geometry,
    home: &HomeTable,
    links: Vec<LinkStat>,
) -> DiagReport {
    let hosts = table.hosts;
    let mut merged = Vec::new();
    for mp in minipages {
        let id = mp.id.0;
        if id as usize >= table.slots {
            continue; // Overflow slots carry no attribution.
        }
        let per_host = (0..hosts)
            .map(|h| HostLane {
                host: h as u16,
                read_faults: table.host_lane(id, h, L_READ),
                write_faults: table.host_lane(id, h, L_WRITE),
                inv_recv: table.host_lane(id, h, L_INV),
                write_extents: table.host_extents(id, h),
            })
            .collect();
        let last = table.slot_lane(id, S_LAST_WRITER);
        let vpages = mp.vpages(geo);
        let d = MinipageDiag {
            mp: id,
            len: mp.len,
            home: home.home(mp.id).0,
            first_vpage: vpages.start,
            vpages: vpages.len(),
            inv_sent: table.slot_lane(id, S_INV_SENT),
            diff_bytes: table.slot_lane(id, S_DIFF_BYTES),
            alternations: table.slot_lane(id, S_ALTERNATIONS),
            last_writer: (last != NO_WRITER).then_some(last as u16),
            per_host,
        };
        if d.any_activity() {
            merged.push(d);
        }
    }
    merged.sort_by_key(|d| d.mp);
    DiagReport {
        ping_pong: detect_ping_pong(&merged),
        false_sharing: detect_false_sharing(&merged),
        hot_home: detect_hot_home(&merged, hosts),
        minipages: merged,
        links,
        overflow: table.overflow.load(Relaxed),
    }
}

fn writing_hosts(d: &MinipageDiag) -> Vec<u16> {
    d.per_host
        .iter()
        .filter(|l| l.write_faults > 0 || !l.write_extents.is_empty())
        .map(|l| l.host)
        .collect()
}

/// Ping-pong detector: see the module docs for the definition.
pub fn detect_ping_pong(minipages: &[MinipageDiag]) -> Vec<Finding> {
    let mut out: Vec<Finding> = minipages
        .iter()
        .filter(|d| d.alternations >= PING_PONG_MIN_ALTERNATIONS)
        .map(|d| {
            let writers = writing_hosts(d);
            let rate = d.alternations as f64 / d.write_faults().max(1) as f64;
            Finding {
                detector: "ping-pong",
                mp: d.mp,
                host: d.last_writer.unwrap_or(u16::MAX),
                score: d.alternations,
                evidence: format!(
                    "ownership alternated {} times between hosts {:?} \
                     ({:.2} alternations/write-fault, {} invalidations fanned out)",
                    d.alternations, writers, rate, d.inv_sent
                ),
            }
        })
        .collect();
    out.sort_by_key(|f| (std::cmp::Reverse(f.score), f.mp));
    out
}

/// False-sharing detector: see the module docs for the definition.
pub fn detect_false_sharing(minipages: &[MinipageDiag]) -> Vec<Finding> {
    let mut out = Vec::new();
    for d in minipages {
        let lanes: Vec<&HostLane> = d
            .per_host
            .iter()
            .filter(|l| !l.write_extents.is_empty() && l.write_faults >= FALSE_SHARING_MIN_WRITES)
            .collect();
        if lanes.len() < 2 {
            continue;
        }
        // Pairwise-disjoint across hosts: no extent of host A may overlap
        // any extent of host B. A host's *own* extents being far apart is
        // fine — that is exactly the case the bounded extent slots exist to
        // preserve.
        let disjoint = lanes.iter().enumerate().all(|(i, a)| {
            lanes.iter().skip(i + 1).all(|b| {
                a.write_extents
                    .iter()
                    .all(|&(a0, a1)| b.write_extents.iter().all(|&(b0, b1)| a1 <= b0 || b1 <= a0))
            })
        });
        if !disjoint {
            continue;
        }
        let ranges: Vec<String> = lanes
            .iter()
            .map(|l| {
                let exts: Vec<String> = l
                    .write_extents
                    .iter()
                    .map(|&(s, e)| format!("[{s},{e})"))
                    .collect();
                format!("h{}:{}", l.host, exts.join("+"))
            })
            .collect();
        let score = d.write_faults() + d.inv_sent;
        out.push(Finding {
            detector: "false-sharing",
            mp: d.mp,
            host: d.last_writer.unwrap_or(u16::MAX),
            score,
            evidence: format!(
                "{} hosts wrote disjoint byte ranges {} of a {}-byte minipage \
                 ({} write faults + {} invalidations a split would remove)",
                lanes.len(),
                ranges.join(" "),
                d.len,
                d.write_faults(),
                d.inv_sent
            ),
        });
    }
    out.sort_by_key(|f| (std::cmp::Reverse(f.score), f.mp));
    out
}

/// Faults on `d` taken by hosts other than its home — the load the home
/// shard serves over the wire. The home's own faults are local (served
/// in place wherever the minipage lives), so counting them would re-flag
/// a home that was just migrated to its dominant writer.
fn remote_faults(d: &MinipageDiag) -> u64 {
    d.per_host
        .iter()
        .filter(|l| l.host != d.home)
        .map(|l| l.read_faults + l.write_faults)
        .sum()
}

/// Hot-home detector: see the module docs for the definition.
///
/// Load is the *remote* fault load per home — faults taken by hosts other
/// than the minipage's home, i.e. the service traffic that actually
/// crosses the wire to that shard. The home's own faults are excluded:
/// they are local no matter where the minipage is homed, so counting
/// them would re-flag a minipage freshly migrated to its dominant
/// writer. The skew baseline is the mean load over hosts that actually
/// *home* active minipages, not over all hosts — idle hosts would dilute
/// the denominator and make any centralized layout look hot even under
/// perfectly uniform load. When exactly one host homes everything
/// (Centralized), a host-level mean is meaningless, so the detector falls
/// back to a per-minipage concentration check at that host: is one
/// minipage drawing more than [`HOT_HOME_SKEW`] × the mean per-minipage
/// load? Single-host clusters have no remote faults and produce no
/// findings at all.
pub fn detect_hot_home(minipages: &[MinipageDiag], hosts: usize) -> Vec<Finding> {
    if hosts < 2 {
        return Vec::new();
    }
    let mut load = vec![0u64; hosts];
    let mut homed = vec![0usize; hosts];
    let mut hottest: Vec<Option<(u64, u32)>> = vec![None; hosts];
    for d in minipages {
        let h = d.home as usize;
        if h >= hosts {
            continue;
        }
        let remote = remote_faults(d);
        load[h] += remote;
        homed[h] += 1;
        if hottest[h].is_none_or(|(f, _)| remote > f) {
            hottest[h] = Some((remote, d.mp));
        }
    }
    let total: u64 = load.iter().sum();
    let homing: Vec<usize> = (0..hosts).filter(|&h| homed[h] > 0).collect();
    let mut out: Vec<Finding> = if homing.len() >= 2 {
        let mean = total as f64 / homing.len() as f64;
        homing
            .iter()
            .copied()
            .filter(|&h| load[h] >= HOT_HOME_MIN_LOAD && load[h] as f64 > HOT_HOME_SKEW * mean)
            .map(|h| Finding {
                detector: "hot-home",
                mp: hottest[h].map_or(NO_MP, |(_, mp)| mp),
                host: h as u16,
                score: load[h],
                evidence: format!(
                    "home h{h} serves {} of {total} remote faults across {} minipages \
                     ({:.1}x the mean load of the {} homing hosts); hottest minipage mp{}",
                    load[h],
                    homed[h],
                    load[h] as f64 / mean.max(1.0),
                    homing.len(),
                    hottest[h].map_or(NO_MP, |(_, mp)| mp),
                ),
            })
            .collect()
    } else if let Some(&h) = homing.first() {
        // Single homing host: flag it only when one minipage concentrates
        // the load (the thing home migration or a split could fix), never
        // merely for being the only home.
        let active = minipages
            .iter()
            .filter(|d| d.home as usize == h && remote_faults(d) > 0)
            .count();
        let mean_mp = total as f64 / active.max(1) as f64;
        let hot = hottest[h].filter(|&(f, _)| {
            active >= 2 && f >= HOT_HOME_MIN_LOAD && f as f64 > HOT_HOME_SKEW * mean_mp
        });
        hot.map(|(f, mp)| Finding {
            detector: "hot-home",
            mp,
            host: h as u16,
            score: load[h],
            evidence: format!(
                "sole home h{h} serves all {total} remote faults; minipage mp{mp} draws {f} \
                 ({:.1}x the mean per-minipage load across {active} active minipages)",
                f as f64 / mean_mp.max(1.0),
            ),
        })
        .into_iter()
        .collect()
    } else {
        Vec::new()
    };
    out.sort_by_key(|f| (std::cmp::Reverse(f.score), f.host));
    out
}

impl DiagReport {
    /// The per-`(minipage, host)` counters `[read_faults, write_faults,
    /// inv_recv]`, for comparison against another backend's report. Zero
    /// triples are omitted.
    pub fn counts(&self) -> BTreeMap<(u32, u16), [u64; 3]> {
        let mut m = BTreeMap::new();
        for d in &self.minipages {
            for l in &d.per_host {
                let c = [l.read_faults, l.write_faults, l.inv_recv];
                if c != [0, 0, 0] {
                    m.insert((d.mp, l.host), c);
                }
            }
        }
        m
    }

    /// A canonical string of every ranked finding, for equality checks
    /// between runs (the `repro diagnose` traced-vs-stats self-check).
    pub fn findings_fingerprint(&self) -> String {
        let mut s = String::new();
        for f in self
            .ping_pong
            .iter()
            .chain(&self.false_sharing)
            .chain(&self.hot_home)
        {
            s.push_str(&format!(
                "{}|mp{}|h{}|{}|{}\n",
                f.detector, f.mp, f.host, f.score, f.evidence
            ));
        }
        s
    }

    /// The vpage × host fault heatmap as CSV rows
    /// (`app,mp,vpage,host,read_faults,write_faults`), appended to `out`.
    /// Counts are attributed to the minipage's first vpage.
    pub fn heatmap_csv(&self, app: &str, out: &mut String) {
        for d in &self.minipages {
            for l in &d.per_host {
                if l.read_faults + l.write_faults == 0 {
                    continue;
                }
                out.push_str(&format!(
                    "{app},{},{},{},{},{}\n",
                    d.mp, d.first_vpage, l.host, l.read_faults, l.write_faults
                ));
            }
        }
    }
}

/// The report as a JSON value (embedded under `"diag"` in
/// [`RunReport::to_json`](crate::RunReport::to_json)); lanes with no
/// activity are left out.
impl ToJson for DiagReport {
    fn write_json(&self, w: &mut Writer) {
        let findings = |w: &mut Writer, key: &str, fs: &[Finding]| {
            w.key(key).array(|w| {
                for f in fs {
                    w.object(|w| {
                        w.field("detector", f.detector)
                            .field("mp", f.mp)
                            .field("host", f.host)
                            .field("score", f.score)
                            .field("evidence", &f.evidence);
                    });
                }
            });
        };
        w.object(|w| {
            w.key("minipages").array(|w| {
                for d in &self.minipages {
                    w.object(|w| {
                        w.field("mp", d.mp)
                            .field("len", d.len)
                            .field("home", d.home)
                            .field("first_vpage", d.first_vpage)
                            .field("vpages", d.vpages)
                            .field("inv_sent", d.inv_sent)
                            .field("diff_bytes", d.diff_bytes)
                            .field("alternations", d.alternations)
                            .field("last_writer", d.last_writer);
                        w.key("per_host").array(|w| {
                            for l in d.per_host.iter().filter(|l| l.active()) {
                                w.object(|w| {
                                    w.field("host", l.host)
                                        .field("read_faults", l.read_faults)
                                        .field("write_faults", l.write_faults)
                                        .field("inv_recv", l.inv_recv)
                                        .field("write_extents", &l.write_extents);
                                });
                            }
                        });
                    });
                }
            });
            findings(w, "ping_pong", &self.ping_pong);
            findings(w, "false_sharing", &self.false_sharing);
            findings(w, "hot_home", &self.hot_home);
            w.key("links").array(|w| {
                for l in &self.links {
                    w.object(|w| {
                        w.field("from", l.from)
                            .field("to", l.to)
                            .field("messages", l.messages)
                            .field("bytes", l.bytes);
                    });
                }
            });
            w.field("overflow", self.overflow);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lane(host: u16, reads: u64, writes: u64, ext: Option<(u64, u64)>) -> HostLane {
        HostLane {
            host,
            read_faults: reads,
            write_faults: writes,
            inv_recv: 0,
            write_extents: ext.into_iter().collect(),
        }
    }

    fn mp(id: u32, home: u16, alternations: u64, lanes: Vec<HostLane>) -> MinipageDiag {
        MinipageDiag {
            mp: id,
            len: 64,
            home,
            first_vpage: id as usize,
            vpages: 1,
            inv_sent: 0,
            diff_bytes: 0,
            alternations,
            last_writer: lanes.iter().find(|l| l.write_faults > 0).map(|l| l.host),
            per_host: lanes,
        }
    }

    #[test]
    fn table_records_and_merges() {
        let t = DiagTable::with_slots(2, 8);
        t.read_fault(3, 0);
        t.write_fault(3, 1, 8, 4);
        t.inv_recv(3, 0);
        t.inv_sent(3, 2);
        t.writer(3, 0);
        t.writer(3, 1);
        t.writer(3, 1);
        t.writer(3, 0);
        assert_eq!(t.host_lane(3, 0, L_READ), 1);
        assert_eq!(t.host_lane(3, 1, L_WRITE), 1);
        assert_eq!(t.host_extents(3, 1), vec![(8, 12)]);
        assert_eq!(t.host_lane(3, 0, L_INV), 1);
        assert_eq!(t.slot_lane(3, S_INV_SENT), 2);
        assert_eq!(t.slot_lane(3, S_ALTERNATIONS), 2);
    }

    /// Two distant write ranges from one host must stay two extents, not
    /// collapse into one hull; nearby writes merge into the existing
    /// extent; a third disjoint range widens the nearest slot only.
    #[test]
    fn extent_slots_keep_disjoint_ranges_distinct() {
        let t = DiagTable::with_slots(2, 8);
        t.write_extent(0, 0, 0, 8);
        t.write_extent(0, 0, 48, 8);
        assert_eq!(t.host_extents(0, 0), vec![(0, 8), (48, 56)]);
        // Touching range merges rather than widening across the gap.
        t.write_extent(0, 0, 8, 4);
        assert_eq!(t.host_extents(0, 0), vec![(0, 12), (48, 56)]);
        // Both slots full: a third range widens the nearest extent.
        t.write_extent(0, 0, 40, 2);
        assert_eq!(t.host_extents(0, 0), vec![(0, 12), (40, 56)]);
    }

    #[test]
    fn reset_slot_restores_initial_state() {
        let t = DiagTable::with_slots(2, 8);
        t.read_fault(5, 0);
        t.write_fault(5, 1, 8, 4);
        t.inv_recv(5, 0);
        t.inv_sent(5, 3);
        t.diff_bytes(5, 7);
        t.writer(5, 0);
        t.writer(5, 1);
        t.reset_slot(5);
        for h in 0..2 {
            assert_eq!(t.host_lane(5, h, L_READ), 0);
            assert_eq!(t.host_lane(5, h, L_WRITE), 0);
            assert_eq!(t.host_lane(5, h, L_INV), 0);
            assert!(t.host_extents(5, h).is_empty());
        }
        assert_eq!(t.slot_lane(5, S_INV_SENT), 0);
        assert_eq!(t.slot_lane(5, S_DIFF_BYTES), 0);
        assert_eq!(t.slot_lane(5, S_ALTERNATIONS), 0);
        assert_eq!(t.slot_lane(5, S_LAST_WRITER), NO_WRITER);
        // The first post-reset writer records no phantom alternation
        // against the pre-reset writer.
        t.writer(5, 0);
        assert_eq!(t.slot_lane(5, S_ALTERNATIONS), 0);
    }

    #[test]
    fn out_of_range_minipages_count_as_overflow() {
        let t = DiagTable::with_slots(2, 8);
        t.read_fault(8, 0);
        t.read_fault(NO_MP, 1);
        assert_eq!(t.overflow.load(Relaxed), 2);
    }

    #[test]
    fn ping_pong_requires_the_alternation_threshold() {
        let quiet = mp(
            0,
            0,
            PING_PONG_MIN_ALTERNATIONS - 1,
            vec![lane(0, 0, 3, None)],
        );
        let noisy = mp(1, 0, 9, vec![lane(0, 0, 5, None), lane(1, 0, 5, None)]);
        let noisier = mp(2, 0, 30, vec![lane(0, 0, 15, None), lane(1, 0, 15, None)]);
        let f = detect_ping_pong(&[quiet, noisy, noisier]);
        assert_eq!(f.len(), 2);
        assert_eq!(f[0].mp, 2);
        assert_eq!(f[1].mp, 1);
    }

    #[test]
    fn false_sharing_needs_disjoint_extents() {
        // Disjoint halves: false sharing. Overlapping: true sharing.
        let fs = mp(
            0,
            0,
            8,
            vec![lane(0, 0, 4, Some((0, 16))), lane(1, 0, 4, Some((32, 48)))],
        );
        let ts = mp(
            1,
            0,
            8,
            vec![lane(0, 0, 4, Some((0, 16))), lane(1, 0, 4, Some((8, 24)))],
        );
        let single = mp(2, 0, 0, vec![lane(0, 0, 9, Some((0, 64)))]);
        let f = detect_false_sharing(&[fs, ts, single]);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].mp, 0);
    }

    /// A host writing two distant ranges whose *hull* would swallow the
    /// other host's range is still false sharing when the actual extents
    /// are disjoint — the case the old min/max widening suppressed.
    #[test]
    fn false_sharing_survives_a_two_range_writer() {
        let mut straddled = mp(0, 0, 8, vec![lane(1, 0, 4, Some((24, 40)))]);
        straddled.per_host.push(HostLane {
            host: 0,
            read_faults: 0,
            write_faults: 4,
            inv_recv: 0,
            write_extents: vec![(0, 16), (48, 64)],
        });
        let f = detect_false_sharing(&[straddled]);
        assert_eq!(f.len(), 1, "two-range writer suppressed the finding");
        // But a genuine overlap with either range still disqualifies.
        let mut overlapping = mp(1, 0, 8, vec![lane(1, 0, 4, Some((8, 40)))]);
        overlapping.per_host.push(HostLane {
            host: 0,
            read_faults: 0,
            write_faults: 4,
            inv_recv: 0,
            write_extents: vec![(0, 16), (48, 64)],
        });
        assert!(detect_false_sharing(&[overlapping]).is_empty());
    }

    /// Centralized layouts under uniform load must not be flagged merely
    /// because one host homes everything (the old all-hosts mean let the
    /// sole home trivially exceed the skew threshold).
    #[test]
    fn hot_home_ignores_uniform_centralized_load() {
        for hosts in [1usize, 8] {
            let mps: Vec<MinipageDiag> = (0..8)
                .map(|i| {
                    mp(
                        i,
                        0,
                        0,
                        vec![lane((i as usize % hosts) as u16, 10, 0, None)],
                    )
                })
                .collect();
            let f = detect_hot_home(&mps, hosts);
            assert!(f.is_empty(), "{hosts} hosts, uniform load: {f:?}");
        }
    }

    /// A sole home *is* flagged when one minipage concentrates the load —
    /// the case migration or a split can actually fix.
    #[test]
    fn hot_home_flags_concentration_at_a_sole_home() {
        let mut mps = vec![mp(0, 0, 0, vec![lane(1, 100, 0, None)])];
        mps.extend((1..5).map(|i| mp(i, 0, 0, vec![lane(1, 5, 0, None)])));
        let f = detect_hot_home(&mps, 4);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].host, 0);
        assert_eq!(f[0].mp, 0);
    }

    #[test]
    fn hot_home_flags_the_skewed_host() {
        let mps = vec![
            mp(0, 1, 0, vec![lane(0, 100, 0, None)]),
            mp(1, 0, 0, vec![lane(1, 5, 0, None)]),
            mp(2, 2, 0, vec![lane(0, 5, 0, None)]),
        ];
        let f = detect_hot_home(&mps, 4);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].host, 1);
        assert_eq!(f[0].mp, 0);
    }

    /// Noise-level traffic never makes a hot home, however skewed the
    /// ratio: after a migration drains the planted load, the handful of
    /// cold-start faults left at the old home must not become a fresh
    /// finding for the adaptation engine to chase.
    #[test]
    fn hot_home_needs_minimum_load_not_just_skew() {
        // Two homes, 3 faults vs 0: a 2x skew on 3 total faults.
        let mps = vec![
            mp(0, 0, 0, vec![lane(1, 3, 0, None)]),
            mp(1, 1, 0, vec![lane(1, 0, 0, None)]),
        ];
        assert!(detect_hot_home(&mps, 4).is_empty());
        // Same shape at real load is flagged.
        let mps = vec![
            mp(0, 0, 0, vec![lane(1, 30, 0, None)]),
            mp(1, 1, 0, vec![lane(1, 0, 0, None)]),
        ];
        assert_eq!(detect_hot_home(&mps, 4).len(), 1);
    }
}
