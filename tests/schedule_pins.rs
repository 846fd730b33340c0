//! Exploration schedules, pinned across commits.
//!
//! `tests/parallel_sim.rs::PINNED` pins the canonical `VirtualTime`
//! schedule; nothing pinned what a `SchedMode::random`/`pct` seed *names*,
//! so a scheduler change could silently re-map every seed (PR 15 did, on
//! purpose) and leave reproducers recorded by an older `repro explore`
//! replaying something else. These are the SHA-256 digests of the decision
//! log ([`SchedMode::decisions`], little-endian `u32`s) of the racy
//! workload `tests/schedule_explore.rs` sweeps, recorded at commit 54cb4b3
//! (PR 15), and of SOR on 32 hosts — 64 slots, enough for "which slot is
//! next" to be worth an index — under all three kinds of policy. A change
//! that means to move an exploration schedule re-records them and says
//! why; anything else must leave all seven alone.

use millipage::explore::{race_config, race_workload};
use millipage::{ClusterConfig, RunReport, SchedMode};
use millipage_apps::sor;

/// The FIPS 180-4 implementation of `tests/parallel_sim.rs` (which holds
/// its test vectors), copied because integration tests share no module
/// and that file must stay byte-identical while its pins are the gate.
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
}

/// Runs the racy workload under `mode`.
fn race(mode: SchedMode) -> RunReport {
    let mut cfg = race_config();
    cfg.sched = mode;
    race_workload(cfg)
}

/// SOR `small()` on 32 hosts under `mode`: 64 slots, where the dispatcher's
/// candidate index does the work a scan of all of them did.
fn sor32(mode: SchedMode) -> RunReport {
    let cfg = ClusterConfig {
        hosts: 32,
        sched: mode,
        ..ClusterConfig::default()
    };
    sor::run_sor(cfg, sor::SorParams::small()).report
}

type Workload = fn(SchedMode) -> RunReport;

/// Runs `workload` under `mode`; returns the decision count and the digest
/// of the decision log.
fn decision_digest(workload: Workload, mode: SchedMode) -> (usize, String) {
    let report = workload(mode.clone());
    assert!(
        report.coherence_violations.is_empty() && report.protocol_errors.is_empty(),
        "{:?} {:?}",
        report.coherence_violations,
        report.protocol_errors
    );
    let decisions = mode.decisions();
    let bytes: Vec<u8> = decisions.iter().flat_map(|d| d.to_le_bytes()).collect();
    (decisions.len(), sha256::digest_hex(&bytes))
}

/// `(schedule name, workload, mode, decisions, digest)` per pinned
/// schedule. The `sor32` rows were recorded at 2cc6fc5, the last commit
/// whose dispatcher found its pick by scanning every slot.
fn pinned() -> [(&'static str, Workload, SchedMode, usize, &'static str); 7] {
    [
        (
            "random(1)",
            race,
            SchedMode::random(1),
            521,
            "e2df4ad630f094613846e4b43855e57eb031f0e26dab3f16b5a238d31e961bee",
        ),
        (
            "random(7)",
            race,
            SchedMode::random(7),
            493,
            "a6b507dda9c90a7dc1a377b76802debd2deda3aaec01a2a1b5f7097b6df95fda",
        ),
        (
            "random(42)",
            race,
            SchedMode::random(42),
            503,
            "f800dccb1d090aaabf96578085f3dfa4dbc427e8271d6a8bdbdf9e1fd4ad230e",
        ),
        (
            "pct(7, 3)",
            race,
            SchedMode::pct(7, 3),
            696,
            "6df288169486d9781bae90e33866af6a0e3be8e21ffa2aecc97edb0ee17b22e6",
        ),
        (
            "sor32 deterministic()",
            sor32,
            SchedMode::deterministic(),
            13661,
            "0bcce68733c6dda1b66c337ab4da70f6bff0f0031b812759020885d7c39426e8",
        ),
        (
            "sor32 random(7)",
            sor32,
            SchedMode::random(7),
            56673,
            "c564f2bff0078e9850c6f7b9a0c53046ab4d0b9802691fa69e05358cb68d6aea",
        ),
        (
            "sor32 pct(7, 3)",
            sor32,
            SchedMode::pct(7, 3),
            95671,
            "769a67a3907bf58cd326e6755d6aa9b4e113f467d0ca7d1c45eb9d280d910268",
        ),
    ]
}

#[test]
fn exploration_schedules_are_pinned_across_commits() {
    let mut moved = Vec::new();
    for (name, workload, mode, len, pin) in pinned() {
        let (got_len, got) = decision_digest(workload, mode);
        if (got_len, got.as_str()) != (len, pin) {
            moved.push(format!(
                "{name}: pinned {len} decisions {pin}, got {got_len} decisions {got}"
            ));
        }
    }
    assert!(
        moved.is_empty(),
        "a seed names a different schedule than when it was pinned:\n{}",
        moved.join("\n")
    );
}
