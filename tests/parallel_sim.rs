//! Parallel-simulation parity: the conservative parallel scheduler must
//! produce the *byte-identical* canonical schedule — same trace JSON,
//! same `RunReport` — as the sequential scheduler at the same seed, for
//! every worker count, home policy, consistency mode, and fault-plane
//! setting, with the online-adaptation engine running. Partitioning is a
//! wall-clock optimization; if any observable byte depends on it, replay
//! and exploration artifacts recorded sequentially would silently stop
//! reproducing on parallel runs.
//!
//! Hashes are SHA-256, computed by the inline implementation below (the
//! workspace vendors no crypto crate; FIPS 180-4, ~40 lines).

use millipage::{
    run, AdaptConfig, AllocMode, ChromeTrace, ClusterConfig, Consistency, HomePolicyKind, HostId,
    ParallelConfig, ProtocolError, SchedMode, Tracer, WireFaults,
};
use proptest::prelude::*;

// ----------------------------------------------------------------------
// Inline SHA-256 (FIPS 180-4).
// ----------------------------------------------------------------------

mod sha256 {
    const K: [u32; 64] = [
        0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
        0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
        0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
        0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
        0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
        0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
        0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
        0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
        0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
        0xc67178f2,
    ];

    /// SHA-256 of `data`, as a lowercase hex string.
    pub fn digest_hex(data: &[u8]) -> String {
        let mut h: [u32; 8] = [
            0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
            0x5be0cd19,
        ];
        let mut msg = data.to_vec();
        let bits = (data.len() as u64) * 8;
        msg.push(0x80);
        while msg.len() % 64 != 56 {
            msg.push(0);
        }
        msg.extend_from_slice(&bits.to_be_bytes());
        for block in msg.chunks_exact(64) {
            let mut w = [0u32; 64];
            for (i, c) in block.chunks_exact(4).enumerate() {
                w[i] = u32::from_be_bytes(c.try_into().unwrap());
            }
            for i in 16..64 {
                let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
                let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
                w[i] = w[i - 16]
                    .wrapping_add(s0)
                    .wrapping_add(w[i - 7])
                    .wrapping_add(s1);
            }
            let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = h;
            for i in 0..64 {
                let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
                let ch = (e & f) ^ (!e & g);
                let t1 = hh
                    .wrapping_add(s1)
                    .wrapping_add(ch)
                    .wrapping_add(K[i])
                    .wrapping_add(w[i]);
                let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
                let maj = (a & b) ^ (a & c) ^ (b & c);
                let t2 = s0.wrapping_add(maj);
                hh = g;
                g = f;
                f = e;
                e = d.wrapping_add(t1);
                d = c;
                c = b;
                b = a;
                a = t1.wrapping_add(t2);
            }
            for (s, v) in h.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
                *s = s.wrapping_add(v);
            }
        }
        h.iter().map(|x| format!("{x:08x}")).collect()
    }

    #[test]
    fn known_vectors() {
        // FIPS 180-4 test vectors.
        assert_eq!(
            digest_hex(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            digest_hex(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }
}

// ----------------------------------------------------------------------
// One run, rendered to bytes.
// ----------------------------------------------------------------------

const HOSTS: usize = 8;

/// The acceptance fault mix (1% drop + 0.5% dup + 2% reorder).
fn lossy_plane() -> WireFaults {
    WireFaults::lossy(13, 0.01, 0.005, 0.02)
}

/// One deterministic run — sequential when `parallel` is `None` — with
/// diagnostics and the adaptation engine on, rendered to the bytes whose
/// hash defines the observable schedule: the full Chrome-trace export
/// plus the `RunReport` JSON dump.
fn run_to_bytes(
    policy: HomePolicyKind,
    consistency: Consistency,
    faults: WireFaults,
    parallel: Option<ParallelConfig>,
) -> String {
    // Ample ring capacity: a dropped trace event would silently shrink
    // the bytes under comparison.
    let tracer = Tracer::enabled(1 << 16);
    let cfg = ClusterConfig {
        hosts: HOSTS,
        views: 16,
        pages: 64,
        alloc_mode: AllocMode::FINE,
        consistency,
        home_policy: policy,
        tracer: tracer.clone(),
        seed: 13,
        faults,
        sched: SchedMode::deterministic(),
        diag: true,
        adapt: AdaptConfig::enabled(),
        parallel,
        ..ClusterConfig::default()
    };
    let report = run(
        cfg,
        |s| {
            let cells = (0..8)
                .map(|_| s.alloc_vec_init(&[0u64; 2]))
                .collect::<Vec<_>>();
            let counter = s.alloc_cell_init::<u64>(0);
            (cells, counter)
        },
        |ctx, (cells, counter)| {
            for phase in 0..2u64 {
                if ctx.host() == HostId((phase as usize % ctx.hosts()) as u16) {
                    for (i, c) in cells.iter().enumerate() {
                        let v = ctx.get(c, 0);
                        ctx.set(c, 0, v + phase + i as u64);
                    }
                }
                ctx.barrier();
            }
            ctx.lock(1);
            let v = ctx.cell_get(counter);
            ctx.cell_set(counter, v + 1);
            ctx.unlock(1);
            ctx.barrier();
            ctx.prefetch_vec(&cells[0]);
            let _ = ctx.get(&cells[0], 1);
            ctx.barrier();
        },
    );
    assert!(
        report.coherence_violations.is_empty() && report.protocol_errors.is_empty(),
        "{policy:?}/{consistency:?}: {:?} {:?}",
        report.coherence_violations,
        report.protocol_errors
    );
    assert!(
        report.trace_dropped.is_empty(),
        "{policy:?}/{consistency:?}: trace ring overflow {:?}",
        report.trace_dropped
    );
    let log = tracer.drain();
    assert_eq!(log.dropped, 0, "{policy:?}/{consistency:?}: ring overflow");
    let mut chrome = ChromeTrace::new();
    chrome.add_run("parallel_sim", 0, &log.events);
    format!("{}\n{}", chrome.finish(), report.to_json())
}

/// Asserts the parallel schedule at each worker count hashes identically
/// to the sequential one; on mismatch, reports the first diverging byte.
fn assert_parity(policy: HomePolicyKind, consistency: Consistency, faults: fn() -> WireFaults) {
    let seq = run_to_bytes(policy, consistency, faults(), None);
    let seq_hash = sha256::digest_hex(seq.as_bytes());
    for workers in [1usize, 2, 4, 8] {
        let par = run_to_bytes(
            policy,
            consistency,
            faults(),
            Some(ParallelConfig::workers(workers)),
        );
        let par_hash = sha256::digest_hex(par.as_bytes());
        if par_hash != seq_hash {
            let at = seq
                .bytes()
                .zip(par.bytes())
                .position(|(x, y)| x != y)
                .unwrap_or(seq.len().min(par.len()));
            let lo = at.saturating_sub(80);
            panic!(
                "{policy:?}/{consistency:?}/{workers} workers: schedule diverged \
                 (sha256 {seq_hash} vs {par_hash}) at byte {at}:\n  seq: …{}\n  par: …{}",
                &seq[lo..(at + 80).min(seq.len())],
                &par[lo..(at + 80).min(par.len())]
            );
        }
    }
}

// The full matrix — 3 home policies × SC/HLRC × faults off/on, adapt
// engine always on, each cell at 1/2/4/8 workers vs sequential — split
// per policy so the harness can run the cells concurrently.

#[test]
fn parallel_matches_sequential_centralized() {
    for consistency in [Consistency::SequentialSwMr, Consistency::HomeEagerRc] {
        assert_parity(
            HomePolicyKind::Centralized,
            consistency,
            WireFaults::disabled,
        );
        assert_parity(HomePolicyKind::Centralized, consistency, lossy_plane);
    }
}

#[test]
fn parallel_matches_sequential_interleaved() {
    for consistency in [Consistency::SequentialSwMr, Consistency::HomeEagerRc] {
        assert_parity(
            HomePolicyKind::Interleaved,
            consistency,
            WireFaults::disabled,
        );
        assert_parity(HomePolicyKind::Interleaved, consistency, lossy_plane);
    }
}

#[test]
fn parallel_matches_sequential_first_touch() {
    for consistency in [Consistency::SequentialSwMr, Consistency::HomeEagerRc] {
        assert_parity(
            HomePolicyKind::FirstTouch,
            consistency,
            WireFaults::disabled,
        );
        assert_parity(HomePolicyKind::FirstTouch, consistency, lossy_plane);
    }
}

// ----------------------------------------------------------------------
// The canonical schedule, pinned across commits.
// ----------------------------------------------------------------------

/// SHA-256 of [`run_to_bytes`] (sequential) for every cell of the matrix:
/// per home policy, one digest for each of [`PINNED_CELLS`] in order. The
/// parity tests above and `tests/determinism.rs` compare a commit with
/// itself; these compare it with its ancestors, so a scheduler change that
/// shifts the `VirtualTime` schedule *consistently* is still noticed.
/// Recorded at commit 4e9c1f7 (PR 14). A change that means to move the
/// canonical schedule, the trace format or the report format re-records
/// them and says why; a wall-clock optimization must leave every one
/// alone.
const PINNED: [(HomePolicyKind, [&str; 4]); 3] = [
    (
        HomePolicyKind::Centralized,
        [
            "49de9982522cbebc0e3aec03963803448b0166d0fd7147dd5fbedacd44fe7f06",
            "321a227166760170a8229dbd77c1412c0de94ba4eac96a46d2284e89ef43de65",
            "fc12dc42a62cec43626ec3f060f8860b9d4fdf7b965475983cb7ba7717f1faa1",
            "7c45ab6e1615e0a73e9923fe9df136833ea215c3127b77096860527358970ba2",
        ],
    ),
    (
        HomePolicyKind::Interleaved,
        [
            "3e0c296c5e17807a758b7ef858b20b7d9f08da2183a031737b57c23f3e2ec257",
            "9cb7252aeb3aebfede5e65da613d7787304fb952cf018212ab586499c8c40202",
            "caf4d544939be3c70e59520ed07369ee9103c296de5914c33ff409c7fca698d3",
            "4fd5aeb3955e6249ceba4a48898fe25a5359781e631cb725a12a9475760dec6f",
        ],
    ),
    (
        HomePolicyKind::FirstTouch,
        [
            "0b3b67e15a7fb6e493f3c4a05c8ddafca9df24b375a4cef7484320c6d059ecba",
            "9ee11bb9002d0dac0d47f7927b8080384ec548dc6765f044d691ac1aa16f3b34",
            "4868f2d71d765a4f618ad8e0fb0952b977bfd1066cf222131197e8313e43a459",
            "5a180f837ff4ce9b7fb4039fffef3e6f64310d2ed04aa36a2e5c417e6128c22f",
        ],
    ),
];

/// The `(consistency, fault plane)` cells behind each policy's pins.
const PINNED_CELLS: [(Consistency, fn() -> WireFaults); 4] = [
    (Consistency::SequentialSwMr, WireFaults::disabled),
    (Consistency::SequentialSwMr, lossy_plane),
    (Consistency::HomeEagerRc, WireFaults::disabled),
    (Consistency::HomeEagerRc, lossy_plane),
];

#[test]
fn canonical_schedule_is_pinned_across_commits() {
    let mut moved = Vec::new();
    for (policy, pins) in PINNED {
        for ((consistency, faults), pin) in PINNED_CELLS.into_iter().zip(pins) {
            let bytes = run_to_bytes(policy, consistency, faults(), None);
            let got = sha256::digest_hex(bytes.as_bytes());
            if got != pin {
                let lossy = faults().is_active();
                moved.push(format!(
                    "({policy:?}, {consistency:?}, lossy={lossy}): pinned {pin}, got {got}"
                ));
            }
        }
    }
    assert!(
        moved.is_empty(),
        "the canonical schedule (or the trace/report encoding) moved:\n{}",
        moved.join("\n")
    );
}

// ----------------------------------------------------------------------
// A failed run cancels every host, in every partition.
// ----------------------------------------------------------------------

/// Host 0's application thread fails *after* hosts 1–3 are parked in the
/// barrier (its virtual clock is far ahead when it next yields, so every
/// other host runs into its wait first — sequentially and partitioned
/// alike). The cluster then fails every host's pending waits, and each
/// sibling must report that cancellation whatever partition it lives in.
/// A wake that stops at the failing thread's own partition leaves the
/// others to the deadlock verdict instead.
#[test]
fn failed_thread_cancels_siblings_in_every_partition() {
    for workers in [None, Some(1), Some(2), Some(4)] {
        let cfg = ClusterConfig {
            hosts: 4,
            views: 8,
            pages: 16,
            sched: SchedMode::deterministic(),
            parallel: workers.map(ParallelConfig::workers),
            ..ClusterConfig::default()
        };
        let report = run(
            cfg,
            |_| (),
            |ctx, ()| {
                if ctx.host() == HostId(0) {
                    ctx.compute(1_000_000_000);
                    ctx.lock(1);
                    ctx.unlock(1);
                    std::panic::panic_any(ProtocolError::Timeout {
                        host: ctx.host(),
                        what: "planted failure",
                        event: 0,
                    });
                }
                ctx.barrier();
            },
        );
        let errors = &report.protocol_errors;
        assert_eq!(errors.len(), 4, "{workers:?} workers: {errors:?}");
        for h in 1..4 {
            let prefix = format!("{}: ", HostId(h));
            let own: Vec<&String> = errors.iter().filter(|e| e.starts_with(&prefix)).collect();
            assert!(
                own.len() == 1 && own[0].ends_with("cancelled by cluster shutdown"),
                "{workers:?} workers: host {h} must report one cancellation, got {own:?} \
                 (all: {errors:?})"
            );
        }
    }
}

// ----------------------------------------------------------------------
// Property: ANY partition map preserves the canonical schedule.
// ----------------------------------------------------------------------

/// The sequential reference bytes for the proptest configuration,
/// computed once.
fn proptest_reference() -> &'static str {
    static REF: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    REF.get_or_init(|| {
        run_to_bytes(
            HomePolicyKind::Centralized,
            Consistency::SequentialSwMr,
            WireFaults::disabled(),
            None,
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A *randomized* host → worker map — unbalanced, interleaved, some
    /// partitions possibly empty — still produces the canonical schedule
    /// byte for byte. Partitioning must never be observable.
    #[test]
    fn random_partition_maps_preserve_schedule(
        map in proptest::collection::vec(0usize..4, HOSTS..HOSTS + 1),
    ) {
        let workers = map.iter().max().copied().unwrap_or(0) + 1;
        let par = run_to_bytes(
            HomePolicyKind::Centralized,
            Consistency::SequentialSwMr,
            WireFaults::disabled(),
            Some(ParallelConfig {
                workers,
                partition_map: Some(map.clone()),
                lookahead: None,
            }),
        );
        let seq = proptest_reference();
        prop_assert_eq!(
            sha256::digest_hex(par.as_bytes()),
            sha256::digest_hex(seq.as_bytes()),
            "map {:?} diverged from the canonical schedule",
            map
        );
    }
}
