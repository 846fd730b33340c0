//! Run reports: everything the paper's tables and figures need.

use crate::backend::MemoryBackend;
use crate::hlrc::Consistency;
use crate::home::HomeTable;
use crate::host::HostState;
use crate::manager::ManagerShard;
use multiview::{AllocStats, Minipage};
use sim_core::json::{self, ToJson, Writer};
use sim_core::{Category, HostId, LogHistogram, Ns, TimeBreakdown};
use sim_mem::{Geometry, Prot};
use std::rc::Rc;

/// Per-application-thread outcome.
#[derive(Clone, Debug)]
pub struct HostReport {
    /// The host this thread ran on.
    pub host: HostId,
    /// The application thread index within the host.
    pub thread: usize,
    /// The thread's final virtual time.
    pub end_vt: Ns,
    /// Where its virtual time went (Figure 6 right).
    pub breakdown: TimeBreakdown,
    /// Read faults taken by this host.
    pub read_faults: u64,
    /// Write faults taken by this host.
    pub write_faults: u64,
    /// Fault service times (fault entry to resume) of this thread.
    pub fault_latency: LogHistogram,
}

/// Per-shard manager-side counters: where the management load landed.
///
/// Under the centralized policy only the manager host's shard shows
/// activity; the distributed policies spread it, and the spread (in
/// particular the peak `competing_requests`) is the Figure 7 hot-spot
/// measurement per shard.
#[derive(Clone, Debug)]
pub struct ShardStats {
    /// The host this shard ran on.
    pub host: HostId,
    /// Competing requests queued at this shard.
    pub competing_requests: u64,
    /// Invalidation requests this shard fanned out.
    pub invalidations_sent: u64,
    /// Release-consistency diffs applied at this shard.
    pub rc_diffs: u64,
    /// Directory entries that materialized here (minipages homed here
    /// that saw any remote traffic).
    pub directory_entries: usize,
}

/// Wire-fault activity of one run; present only when the cluster ran
/// with an active [`FaultPlane`](crate::FaultPlane).
#[derive(Clone, Debug)]
pub struct NetFaultStats {
    /// Transmissions the fault plane discarded (each costs one
    /// retransmission round-trip of added latency).
    pub drops: u64,
    /// Retransmissions the reliable channel charged for.
    pub retransmits: u64,
    /// Duplicate copies injected and physically delivered.
    pub dups_delivered: u64,
    /// Duplicates (and stale retransmissions) the receive side discarded.
    pub dups_suppressed: u64,
    /// Packets delivered out of order by the fault plane.
    pub reorders: u64,
    /// Packets that exhausted their retransmit budget and were never
    /// delivered (0 on any run that completed cleanly).
    pub expired: u64,
    /// Latency the fault plane added per delivered packet (backoff
    /// penalties plus jitter; only packets with a nonzero penalty).
    pub delay: LogHistogram,
}

/// The outcome of one cluster run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Number of hosts.
    pub hosts: usize,
    /// Parallel virtual completion time: max over application threads.
    pub virtual_time: Ns,
    /// Per-host reports.
    pub per_host: Vec<HostReport>,
    /// Merged breakdown over all hosts.
    pub breakdown: TimeBreakdown,
    /// Total read faults.
    pub read_faults: u64,
    /// Total write faults.
    pub write_faults: u64,
    /// Prefetch requests issued.
    pub prefetches: u64,
    /// Invalidations received across hosts.
    pub invalidations: u64,
    /// Competing requests queued across all manager shards (Figure 7).
    pub competing_requests: u64,
    /// Barriers completed (Table 2).
    pub barriers: u64,
    /// Lock acquisitions (Table 2).
    pub lock_acquires: u64,
    /// Push broadcasts performed.
    pub pushes: u64,
    /// Messages on the wire.
    pub messages: u64,
    /// Payload bytes on the wire (communication volume).
    pub payload_bytes: u64,
    /// Allocator statistics (Table 2's memory size / views / granularity).
    pub alloc: AllocStats,
    /// Release-consistency diffs applied at the homes (0 under SW/MR).
    pub rc_diffs: u64,
    /// The home policy the run used (e.g. `"centralized"`).
    pub policy: &'static str,
    /// Per-shard manager-side counters, indexed by host.
    pub shards: Vec<ShardStats>,
    /// Coherence violations found post-run (must be empty).
    pub coherence_violations: Vec<String>,
    /// Fault service times (fault entry to resume) over all application
    /// threads.
    pub fault_latency: LogHistogram,
    /// Arrival→service-start delays at the DSM servers (poll/sweeper
    /// delay plus queueing behind earlier handlers).
    pub server_queue_delay: LogHistogram,
    /// Invalidation round-trips at the manager shards: fan-out to last
    /// confirmation, per completed round.
    pub inv_round_trip: LogHistogram,
    /// Typed protocol errors the run degraded through (empty on a clean
    /// wire): server-side handler failures first, then failed application
    /// waits, each rendered as its `ProtocolError` display form.
    pub protocol_errors: Vec<String>,
    /// Wire-fault counters; `None` unless the run injected faults.
    pub net_faults: Option<NetFaultStats>,
    /// Trace events the per-thread rings could not hold, per host
    /// (`(host, dropped)`, hosts without drops omitted; empty on any
    /// untraced run). `repro trace` and `repro diagnose` refuse to trust
    /// a log with a nonzero entry here.
    pub trace_dropped: Vec<(u16, u64)>,
    /// Sharing diagnostics; `None` unless the run enabled
    /// [`ClusterConfig::diag`](crate::ClusterConfig).
    pub diag: Option<crate::diag::DiagReport>,
    /// Online adaptation actions; `None` unless the run enabled
    /// [`ClusterConfig::adapt`](crate::ClusterConfig).
    pub adapt: Option<crate::adapt::AdaptReport>,
}

impl RunReport {
    /// Speedup relative to a single-host run time.
    pub fn speedup(&self, t1: Ns) -> f64 {
        t1 as f64 / self.virtual_time.max(1) as f64
    }

    /// Median fault service time (ns); `None` if the run took no faults.
    pub fn fault_latency_p50(&self) -> Option<Ns> {
        self.fault_latency.p50()
    }

    /// 95th-percentile fault service time (ns).
    pub fn fault_latency_p95(&self) -> Option<Ns> {
        self.fault_latency.p95()
    }

    /// 99th-percentile fault service time (ns).
    pub fn fault_latency_p99(&self) -> Option<Ns> {
        self.fault_latency.p99()
    }

    /// Parallel efficiency relative to a single-host run time.
    pub fn efficiency(&self, t1: Ns) -> f64 {
        self.speedup(t1) / self.hosts as f64
    }

    /// The largest per-shard competing-request count: the hot-spot metric
    /// the distributed policies exist to flatten.
    pub fn peak_shard_competing(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.competing_requests)
            .max()
            .unwrap_or(0)
    }

    /// The report as a JSON document (machine-readable run output; the
    /// `repro --json` flag).
    pub fn to_json(&self) -> String {
        json::document(|w| self.write_json(w))
    }
}

impl ToJson for RunReport {
    fn write_json(&self, w: &mut Writer) {
        w.object(|w| {
            w.field("hosts", self.hosts)
                .field("virtual_time_ns", self.virtual_time)
                .field("policy", self.policy)
                .field("read_faults", self.read_faults)
                .field("write_faults", self.write_faults)
                .field("prefetches", self.prefetches)
                .field("invalidations", self.invalidations)
                .field("competing_requests", self.competing_requests)
                .field("barriers", self.barriers)
                .field("lock_acquires", self.lock_acquires)
                .field("pushes", self.pushes)
                .field("messages", self.messages)
                .field("payload_bytes", self.payload_bytes)
                .field("rc_diffs", self.rc_diffs);
            w.key("breakdown_ns").object(|w| {
                for c in Category::ALL {
                    w.field(&format!("{c:?}"), self.breakdown.get(c));
                }
            });
            w.field("fault_latency", &self.fault_latency)
                .field("server_queue_delay", &self.server_queue_delay)
                .field("inv_round_trip", &self.inv_round_trip);
            w.key("shards").array(|w| {
                for sh in &self.shards {
                    w.object(|w| {
                        w.field("host", sh.host.index())
                            .field("competing_requests", sh.competing_requests)
                            .field("invalidations_sent", sh.invalidations_sent)
                            .field("rc_diffs", sh.rc_diffs)
                            .field("directory_entries", sh.directory_entries);
                    });
                }
            });
            w.key("per_host").array(|w| {
                for h in &self.per_host {
                    w.object(|w| {
                        w.field("host", h.host.index())
                            .field("thread", h.thread)
                            .field("end_vt", h.end_vt)
                            .field("read_faults", h.read_faults)
                            .field("write_faults", h.write_faults);
                    });
                }
            });
            w.field("coherence_violations", &self.coherence_violations);
            // Fault-plane and diagnostics fields appear only when the run
            // recorded something, keeping the default report byte-for-byte
            // what it always was.
            if !self.protocol_errors.is_empty() {
                w.field("protocol_errors", &self.protocol_errors);
            }
            if let Some(nf) = &self.net_faults {
                w.key("net_faults").object(|w| {
                    w.field("drops", nf.drops)
                        .field("retransmits", nf.retransmits)
                        .field("dups_delivered", nf.dups_delivered)
                        .field("dups_suppressed", nf.dups_suppressed)
                        .field("reorders", nf.reorders)
                        .field("expired", nf.expired)
                        .field("delay", &nf.delay);
                });
            }
            if !self.trace_dropped.is_empty() {
                w.field("trace_dropped", &self.trace_dropped);
            }
            if let Some(d) = &self.diag {
                w.field("diag", d);
            }
            if let Some(a) = &self.adapt {
                w.field("adapt", a);
            }
        });
    }
}

/// Post-run validation for the release-consistency mode: after the final
/// synchronization every present copy must byte-for-byte match its
/// minipage's home copy (all dirty data flushed, all stale copies
/// invalidated or refetched).
pub(crate) fn check_rc_consistency<M: MemoryBackend, W>(
    minipages: &[Minipage],
    geo: &Geometry,
    states: &[Rc<HostState<M, W>>],
    home: &HomeTable,
) -> Vec<String> {
    let mut violations = Vec::new();
    let (mut home_bytes, mut local) = (Vec::new(), Vec::new());
    for mp in minipages {
        let home_host = home.home(mp.id);
        let priv_base = mp.priv_base(geo);
        home_bytes.resize(mp.len, 0);
        states[home_host.index()]
            .space
            .priv_read_into(priv_base, &mut home_bytes)
            .expect("home copy in range");
        for st in states {
            if st.host == home_host {
                continue;
            }
            let present = mp.vpages(geo).all(|vp| st.space.prot(vp) != Prot::NoAccess);
            if !present {
                continue;
            }
            local.resize(mp.len, 0);
            st.space
                .priv_read_into(priv_base, &mut local)
                .expect("local copy in range");
            if local != home_bytes {
                violations.push(format!(
                    "{}: copy on {} diverges from the home copy on {}",
                    mp.id, st.host, home_host
                ));
            }
        }
    }
    violations
}

/// Post-run validation of the Single-Writer/Multiple-Readers invariant:
/// for every minipage, across all hosts, there is at most one writable
/// copy, and never both a writable copy and read copies.
pub(crate) fn check_coherence<M: MemoryBackend, W>(
    minipages: &[Minipage],
    geo: &Geometry,
    states: &[Rc<HostState<M, W>>],
) -> Vec<String> {
    let mut violations = Vec::new();
    let (mut writers, mut readers) = (Vec::new(), Vec::new());
    for mp in minipages {
        writers.clear();
        readers.clear();
        for st in states {
            // A minipage's vpages move together; mixed protection within
            // one minipage on one host is itself a violation.
            let mut vpages = mp.vpages(geo);
            let first = vpages.next().map_or(Prot::NoAccess, |vp| st.space.prot(vp));
            if vpages.any(|vp| st.space.prot(vp) != first) {
                let prots: Vec<Prot> = mp.vpages(geo).map(|vp| st.space.prot(vp)).collect();
                violations.push(format!(
                    "{}: mixed vpage protections {:?} on {}",
                    mp.id, prots, st.host
                ));
            }
            match first {
                Prot::ReadWrite => writers.push(st.host),
                Prot::ReadOnly => readers.push(st.host),
                Prot::NoAccess => {}
            }
        }
        if writers.len() > 1 {
            violations.push(format!("{}: multiple writers {:?}", mp.id, writers));
        }
        if writers.len() == 1 && !readers.is_empty() {
            violations.push(format!(
                "{}: writer {} coexists with readers {:?}",
                mp.id, writers[0], readers
            ));
        }
    }
    violations
}

/// Post-run validation of the directory shards: every service window must
/// have closed, every queued request drained, every invalidation round
/// completed. Under SW/MR an exclusive owner must also be the sole
/// copyset member (HLRC keeps `owner = Some(home)` on fresh entries while
/// readers join the copyset, so that check is mode-specific).
pub(crate) fn check_directories<M: MemoryBackend, W>(
    shards: &[ManagerShard<M, W>],
    consistency: Consistency,
) -> Vec<String> {
    let mut violations = Vec::new();
    for shard in shards {
        let waiting = shard.directory().waiting();
        if waiting != 0 {
            violations.push(format!(
                "shard {}: {waiting} requests counted as waiting",
                shard.me()
            ));
        }
        for (id, e) in shard.directory().iter() {
            let tag = || format!("mp{} @ shard {}", id, shard.me());
            if e.in_service {
                violations.push(format!("{}: service window still open", tag()));
            }
            if !e.queue.is_empty() {
                violations.push(format!(
                    "{}: {} requests still queued",
                    tag(),
                    e.queue.len()
                ));
            }
            if e.inv_pending != 0 {
                violations.push(format!(
                    "{}: {} invalidation replies outstanding",
                    tag(),
                    e.inv_pending
                ));
            }
            if e.pending_write.is_some() {
                violations.push(format!("{}: a write is still parked", tag()));
            }
            if consistency == Consistency::SequentialSwMr {
                if let Some(owner) = e.owner {
                    if e.copyset != 1u64 << owner.index() {
                        violations.push(format!(
                            "{}: owner {} but copyset {:#b}",
                            tag(),
                            owner,
                            e.copyset
                        ));
                    }
                }
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{ClusterConfig, Stack};
    use crate::host::Waiters;
    use sim_mem::AddressSpace;

    /// The post-run checkers read protections and bytes of every host;
    /// reading must not make a host pay for a page it never wrote.
    #[test]
    fn checkers_on_an_idle_cluster_back_no_page() {
        let cfg = ClusterConfig {
            hosts: 2,
            pages: 8,
            views: 4,
            consistency: Consistency::HomeEagerRc,
            ..ClusterConfig::default()
        };
        let geo = Geometry::new(cfg.pages, cfg.views);
        let space = |_| (AddressSpace::new(geo.clone()), Waiters::default());
        let (stack, _, ()) = Stack::new(&cfg, geo.clone(), space, |s| {
            s.alloc_bytes(256);
        });
        let (home, states) = (&stack.home, &stack.states);
        let minipages: Vec<Minipage> = home.table.borrow().mpt().iter().copied().collect();
        assert_eq!(minipages.len(), 1);
        // A read copy away from home, so the RC check compares bytes.
        for vp in minipages[0].vpages(&geo) {
            states[1].space.set_prot(vp, Prot::ReadOnly).unwrap();
        }
        assert!(check_coherence(&minipages, &geo, states).is_empty());
        assert!(check_rc_consistency(&minipages, &geo, states, home).is_empty());
        for st in states {
            assert_eq!(st.space.backed_pages(), 0, "{}", st.host);
        }
    }
}
