//! Property-based tests of the word-scanning diff against a byte-wise
//! reference implementation (the algorithm the paper describes, kept here
//! as the specification the optimized scan must match run for run).

use bytes::Bytes;
use millipage::diff::Diff;
use millipage::MemoryBackend;
use proptest::prelude::*;
use sim_mem::{AddressSpace, Geometry};

/// The specification: the naive byte-at-a-time run scan.
fn reference_runs(twin: &[u8], current: &[u8]) -> Vec<(usize, Vec<u8>)> {
    assert_eq!(twin.len(), current.len());
    let mut runs = Vec::new();
    let mut i = 0;
    while i < twin.len() {
        if twin[i] == current[i] {
            i += 1;
            continue;
        }
        let start = i;
        while i < twin.len() && twin[i] != current[i] {
            i += 1;
        }
        runs.push((start, current[start..i].to_vec()));
    }
    runs
}

/// The wire format, spelled out: `[source_len u32][n u32]`, then per run
/// `[off u32][len u32][bytes]`, little-endian. The simulated network
/// charges a diff's payload length in virtual time, so every byte of it is
/// pinned here.
fn reference_wire(source_len: usize, runs: &[(usize, Vec<u8>)]) -> Vec<u8> {
    let mut wire = Vec::new();
    wire.extend_from_slice(&(source_len as u32).to_le_bytes());
    wire.extend_from_slice(&(runs.len() as u32).to_le_bytes());
    for (off, bytes) in runs {
        wire.extend_from_slice(&(*off as u32).to_le_bytes());
        wire.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        wire.extend_from_slice(bytes);
    }
    wire
}

/// Builds a (twin, current) pair of `len` bytes: `twin` from `seed`,
/// `current` by flipping the bytes `edits` selects (offset, run length).
fn build_pair(len: usize, seed: u8, edits: &[(u16, u8)]) -> (Vec<u8>, Vec<u8>) {
    let twin: Vec<u8> = (0..len)
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
        .collect();
    let mut cur = twin.clone();
    for &(off, run) in edits {
        let start = off as usize % len.max(1);
        for b in cur.iter_mut().skip(start).take(run as usize % 17 + 1) {
            *b ^= 0xFF;
        }
    }
    (twin, cur)
}

proptest! {
    /// Word-wise compute produces byte-identical runs to the byte-wise
    /// reference on random edit patterns — including none (all-equal) and
    /// runs straddling u64 word boundaries, which `edits` hits constantly
    /// since offsets are arbitrary.
    #[test]
    fn compute_matches_bytewise_reference(
        len in 1usize..700,
        seed in any::<u8>(),
        edits in proptest::collection::vec((any::<u16>(), any::<u8>()), 0..12),
    ) {
        let (twin, cur) = build_pair(len, seed, &edits);
        let d = Diff::compute(&twin, &cur);
        let got: Vec<(usize, Vec<u8>)> =
            d.iter_runs().map(|(o, b)| (o, b.to_vec())).collect();
        prop_assert_eq!(got, reference_runs(&twin, &cur));
    }

    /// All-different pairs: one run covering everything, same as the
    /// reference (the dense worst case the paper's 250 µs figure is about).
    #[test]
    fn compute_matches_on_all_different(len in 1usize..600, seed in any::<u8>()) {
        let twin: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_add(seed)).collect();
        let cur: Vec<u8> = twin.iter().map(|b| b ^ 0x80).collect();
        let d = Diff::compute(&twin, &cur);
        prop_assert_eq!(d.runs(), 1);
        prop_assert_eq!(d.changed_bytes(), len);
        let got: Vec<(usize, Vec<u8>)> =
            d.iter_runs().map(|(o, b)| (o, b.to_vec())).collect();
        prop_assert_eq!(got, reference_runs(&twin, &cur));
    }

    /// `apply(compute(twin, current), twin) == current` — the twin/diff
    /// contract HLRC's release path depends on.
    #[test]
    fn apply_compute_rebuilds_current(
        len in 1usize..700,
        seed in any::<u8>(),
        edits in proptest::collection::vec((any::<u16>(), any::<u8>()), 0..12),
    ) {
        let (twin, cur) = build_pair(len, seed, &edits);
        let d = Diff::compute(&twin, &cur);
        let mut rebuilt = twin.clone();
        d.apply(&mut rebuilt);
        prop_assert_eq!(rebuilt, cur);
    }

    /// `compute(..).encode()` is the reference encoding of the reference
    /// runs, byte for byte, `8 + wire_bytes()` long, and decoding it gives
    /// back the same runs.
    #[test]
    fn the_wire_format_is_pinned(
        len in 0usize..700,
        seed in any::<u8>(),
        edits in proptest::collection::vec((any::<u16>(), any::<u8>()), 0..40),
    ) {
        let (twin, cur) = build_pair(len, seed, &edits);
        let runs = reference_runs(&twin, &cur);
        let d = Diff::compute(&twin, &cur);
        let wire = d.encode();
        prop_assert_eq!(wire.as_ref(), &reference_wire(len, &runs)[..]);
        prop_assert_eq!(wire.len(), 8 + d.wire_bytes());
        let d2 = Diff::decode(&wire).expect("own encoding is valid");
        let got: Vec<(usize, Vec<u8>)> =
            d2.iter_runs().map(|(o, b)| (o, b.to_vec())).collect();
        prop_assert_eq!(got, runs);
    }

    /// decode(encode(d)) round-trips semantically for arbitrary diffs.
    #[test]
    fn encode_decode_roundtrips(
        len in 1usize..700,
        seed in any::<u8>(),
        edits in proptest::collection::vec((any::<u16>(), any::<u8>()), 0..12),
    ) {
        let (twin, cur) = build_pair(len, seed, &edits);
        let d = Diff::compute(&twin, &cur);
        let wire = d.encode();
        let d2 = Diff::decode(&wire).expect("own encoding is valid");
        prop_assert_eq!(&d, &d2);
        prop_assert_eq!(d.wire_bytes(), d2.wire_bytes());
        let mut rebuilt = twin.clone();
        d2.apply(&mut rebuilt);
        prop_assert_eq!(rebuilt, cur);
    }

    /// Hostile wire bytes never panic decode: it returns `Some` only for
    /// well-formed input, and anything it accepts is safe to `apply` to a
    /// `source_len`-sized buffer.
    #[test]
    fn decode_is_total_on_arbitrary_bytes(
        raw in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let wire = Bytes::from(raw);
        if let Some(d) = Diff::decode(&wire) {
            for (off, bytes) in d.iter_runs() {
                prop_assert!(off + bytes.len() <= d.source_len());
            }
            let mut target = vec![0u8; d.source_len()];
            d.apply(&mut target); // must not panic
        }
    }

    /// A release diff patched in one pass — one decode, then one page
    /// borrow per page the minipage covers ([`MemoryBackend::apply_diff`])
    /// — leaves the same bytes as writing its runs one `priv_write` at a
    /// time into a twin space. The minipage starts `before_end` bytes
    /// before its first page ends, so it crosses into the next page when
    /// `len` exceeds that (about half the cases); both pages hold other
    /// bytes everywhere, or are unbacked zeros. Bytes outside the runs
    /// keep their values.
    #[test]
    fn one_pass_patch_equals_per_run_writes(
        first_page in 0usize..3,
        before_end in 1usize..700,
        len in 1usize..700,
        seed in any::<u8>(),
        edits in proptest::collection::vec((any::<u16>(), any::<u8>()), 0..12),
        backed in any::<bool>(),
    ) {
        let geo = Geometry::new(4, 2);
        let ps = geo.page_size();
        let pages = geo.addr_of(geo.priv_view(), first_page, 0);
        let start = ps - before_end;
        let base = pages.add(start);
        let (one_pass, per_run) = (AddressSpace::new(geo.clone()), AddressSpace::new(geo.clone()));
        let mut want: Vec<u8> = if backed {
            (0..2 * ps).map(|i| (i as u8).wrapping_mul(7) ^ seed).collect()
        } else {
            vec![0; 2 * ps]
        };
        if backed {
            for s in [&one_pass, &per_run] {
                s.priv_write(pages, &want).unwrap();
            }
        }
        let (twin, cur) = build_pair(len, seed, &edits);
        let d = Diff::compute(&twin, &cur);
        one_pass.apply_diff(base, &d).expect("in range");
        for (off, bytes) in d.iter_runs() {
            per_run.priv_write(base.add(off), bytes).expect("in range");
            want[start + off..start + off + bytes.len()].copy_from_slice(bytes);
        }
        let got = one_pass.priv_read(pages, 2 * ps).unwrap();
        prop_assert_eq!(&got, &per_run.priv_read(pages, 2 * ps).unwrap());
        prop_assert_eq!(got, want);
    }
}
