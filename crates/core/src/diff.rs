//! Twins and run-length diffs (§4.2's comparison point, §5's extension).
//!
//! Millipage deliberately needs **no** diffs — that is the thin-layer
//! thesis. The paper still measures them to argue the point: "a run-length
//! diff operation (as described in Munin) for 4 KB page takes 250 µs and
//! decreases linearly with the size of the page. Obviously, this time is
//! not negligible, and would have dominated the overhead if it were
//! required in the DSM protocol." This module provides the diff machinery
//! so the reproduction can (a) measure that cost and (b) build the §5
//! reduced-consistency extension ([`crate::hlrc`]), whose twin is the
//! plain copy of the minipage its write fault read.
//!
//! The *virtual* cost of a diff is what [`sim_core::cost::CostModel`]
//! charges (61 ns/byte, the paper's 250 µs/4 KB); the implementation here
//! only has to be fast in *wall-clock* terms. `compute` scans u64 words
//! and refines byte-by-byte only inside a mismatching word. A diff *is*
//! its wire encoding — `[source_len u32][n u32]`, then per run
//! `[off u32][len u32][bytes]`, little-endian — in one [`Bytes`]:
//! `compute` writes it into one buffer reserved at the worst case,
//! `encode` hands it out as a [`Wire`] (a refcount bump), `decode`
//! validates an incoming buffer where it lies, and `iter_runs`/`apply_at`
//! walk it. Only `compute` allocates, at most twice.

use bytes::Bytes;

/// A run-length diff: the `(offset, bytes)` runs that changed between a
/// twin and the current contents, held as their wire encoding. Diffs are
/// equal when their encodings are: the same source length and the same
/// run sequence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diff {
    /// Every run lies inside the header's `source_len` and the buffer
    /// ends with the last run: true by construction after
    /// [`compute`](Diff::compute), checked by [`decode`](Diff::decode).
    wire: Bytes,
}

/// A diff's wire encoding as [`Diff::encode`] hands it out: the diff's own
/// buffer, read in place through `Deref` (so `Diff::decode(&d.encode())`
/// works) and taken for a message with `Bytes::from` or `.into()`, a move.
/// It is a type of its own so that `d.encode().into()` is a conversion,
/// not a same-type no-op.
#[derive(Clone, Debug)]
pub struct Wire(Bytes);

impl std::ops::Deref for Wire {
    type Target = Bytes;

    fn deref(&self) -> &Bytes {
        &self.0
    }
}

impl From<Wire> for Bytes {
    fn from(w: Wire) -> Bytes {
        w.0
    }
}

/// All-ones in each byte; `x - LO` borrows out of exactly the zero bytes.
const LO: u64 = 0x0101_0101_0101_0101;
/// High bit of each byte.
const HI: u64 = 0x8080_8080_8080_8080;

/// Reads the u64 at `b[i..i + 8]` (caller guarantees the bounds).
#[inline]
fn word_at(b: &[u8], i: usize) -> u64 {
    u64::from_le_bytes(b[i..i + 8].try_into().unwrap())
}

/// Buffers up to this take the byte-at-a-time path in
/// [`Diff::compute`]. Measured crossover: at two words or fewer the word
/// scan's setup — the `word_at` bounds checks and the two-phase
/// find-start/find-end loop, run per word on at most two words — costs
/// more than it saves, while from 32 B up it wins decisively. The hot
/// small case is the 8-byte cell minipage (every `SharedCell<u64>` diff
/// under HLRC), which sits squarely on the byte path.
const WORD_SCAN_MIN: usize = 16;

/// The wire encoding of a diff being computed, in a buffer reserved at
/// the worst case so that no run grows it: an `n`-byte source has at most
/// `⌈n/2⌉` runs (an equal byte ends each but the last) holding at most
/// `n` bytes.
struct Encoder {
    wire: Vec<u8>,
    runs: usize,
}

impl Encoder {
    fn new(source_len: usize) -> Self {
        let n = u32::try_from(source_len).expect("a diffed buffer is under 4 GiB");
        let mut wire = Vec::with_capacity(8 + source_len + 8 * source_len.div_ceil(2));
        // The run count half is patched by `finish`.
        wire.extend_from_slice(&u64::from(n).to_le_bytes());
        Self { wire, runs: 0 }
    }

    /// Appends the run of `bytes` at offset `off`, its header in one
    /// 8-byte write: sparse diffs are header-dominated.
    #[inline]
    fn run(&mut self, off: usize, bytes: &[u8]) {
        let hdr = off as u64 | (bytes.len() as u64) << 32;
        self.wire.extend_from_slice(&hdr.to_le_bytes());
        self.wire.extend_from_slice(bytes);
        self.runs += 1;
    }

    fn finish(mut self) -> Diff {
        self.wire[4..8].copy_from_slice(&(self.runs as u32).to_le_bytes());
        Diff {
            wire: Bytes::from(self.wire),
        }
    }
}

impl Diff {
    /// Computes the run-length diff turning `twin` into `current`.
    ///
    /// Scans u64 words: equal words are skipped in one compare; inside a
    /// mismatching word `trailing_zeros` locates the first differing byte
    /// and the has-zero-byte trick locates the run's end, so run
    /// boundaries are byte-exact — identical to a byte-at-a-time scan.
    ///
    /// # Panics
    ///
    /// Panics if the buffers differ in length.
    pub fn compute(twin: &[u8], current: &[u8]) -> Self {
        assert_eq!(twin.len(), current.len(), "twin/current size mismatch");
        let n = twin.len();
        if n <= WORD_SCAN_MIN {
            return Self::compute_small(twin, current);
        }
        let mut out = Encoder::new(n);
        let mut i = 0usize;
        while i < n {
            // Find the next differing byte, whole equal words at a time.
            while i + 8 <= n {
                let x = word_at(twin, i) ^ word_at(current, i);
                if x != 0 {
                    i += (x.trailing_zeros() / 8) as usize;
                    break;
                }
                i += 8;
            }
            while i < n && twin[i] == current[i] {
                i += 1; // tail bytes past the last whole word
            }
            if i >= n {
                break;
            }
            // Find the run's end: the next *equal* byte. A zero byte in
            // the xor word is an equal byte; the lowest set bit of the
            // has-zero mask is exactly the first one (no borrow can
            // propagate from below it).
            let start = i;
            while i + 8 <= n {
                let x = word_at(twin, i) ^ word_at(current, i);
                let z = x.wrapping_sub(LO) & !x & HI;
                if z != 0 {
                    i += (z.trailing_zeros() / 8) as usize;
                    break;
                }
                i += 8;
            }
            while i < n && twin[i] != current[i] {
                i += 1;
            }
            out.run(start, &current[start..i]);
        }
        out.finish()
    }

    /// Byte-at-a-time [`compute`](Diff::compute) for buffers below
    /// [`WORD_SCAN_MIN`]. Produces exactly the same runs as the word scan
    /// (the word scan's boundaries are defined as byte-exact). The
    /// zipped-`position` scans compile to vectorized compares, which is
    /// what beats the word loop's per-word setup at minipage sizes.
    fn compute_small(twin: &[u8], current: &[u8]) -> Self {
        let n = twin.len();
        let mut out = Encoder::new(n);
        let mut i = 0usize;
        while i < n {
            let Some(d) = twin[i..]
                .iter()
                .zip(&current[i..])
                .position(|(a, b)| a != b)
            else {
                break;
            };
            let start = i + d;
            let len = twin[start..]
                .iter()
                .zip(&current[start..])
                .position(|(a, b)| a == b)
                .unwrap_or(n - start);
            i = start + len;
            out.run(start, &current[start..i]);
        }
        out.finish()
    }

    /// Applies the diff to `target` in place.
    ///
    /// # Panics
    ///
    /// Panics if `target` is shorter than the diffed buffer.
    pub fn apply(&self, target: &mut [u8]) {
        assert!(
            target.len() >= self.source_len(),
            "target shorter than the diffed page"
        );
        self.apply_at(0, target);
    }

    /// Applies the part of the diff that lands in bytes `at..at +
    /// window.len()` of the diffed buffer, `window` being those bytes: a
    /// buffer split into pieces (a minipage spanning pages) is patched one
    /// piece at a time, each run clipped to the piece.
    pub fn apply_at(&self, at: usize, window: &mut [u8]) {
        let end = at + window.len();
        for (off, bytes) in self.iter_runs() {
            let (lo, hi) = (off.max(at), (off + bytes.len()).min(end));
            if lo < hi {
                window[lo - at..hi - at].copy_from_slice(&bytes[lo - off..hi - off]);
            }
        }
    }

    /// Iterates `(offset, bytes)` runs in wire order, the bytes borrowed
    /// from the wire buffer (used to apply a diff in place without a
    /// whole-page read-modify-write).
    pub fn iter_runs(&self) -> impl Iterator<Item = (usize, &[u8])> {
        let mut rest = &self.wire[8..];
        (0..self.runs()).map(move |_| {
            let hdr = word_at(rest, 0);
            let (off, len) = (hdr as u32 as usize, (hdr >> 32) as usize);
            let (bytes, tail) = rest[8..].split_at(len);
            rest = tail;
            (off, bytes)
        })
    }

    /// Number of changed runs.
    pub fn runs(&self) -> usize {
        (word_at(&self.wire, 0) >> 32) as usize
    }

    /// Total changed bytes.
    pub fn changed_bytes(&self) -> usize {
        self.wire_bytes() - 8 * self.runs()
    }

    /// Whether nothing changed.
    pub fn is_empty(&self) -> bool {
        self.runs() == 0
    }

    /// Length of the diffed buffer: every run fits inside it, and
    /// [`apply`](Diff::apply) requires a target at least this long.
    pub fn source_len(&self) -> usize {
        word_at(&self.wire, 0) as u32 as usize
    }

    /// Wire size: 8 bytes of run header per run plus the changed bytes
    /// (the encoding Munin-style systems ship at release time).
    pub fn wire_bytes(&self) -> usize {
        self.wire.len() - 8
    }

    /// The diff for the wire: `[source_len u32][n u32]` then `n` runs of
    /// `[offset u32][len u32][bytes]`, little-endian. The diff already is
    /// this buffer, so encoding is a refcount bump.
    pub fn encode(&self) -> Wire {
        Wire(self.wire.clone())
    }

    /// Parses a diff serialized by [`encode`](Diff::encode) without
    /// copying or allocating: the returned diff holds `wire` itself (a
    /// refcount bump).
    ///
    /// Returns `None` on malformed input — truncated headers or payloads,
    /// trailing junk, or any run whose `offset + len` exceeds
    /// `source_len` (a hostile diff must not be able to make
    /// [`apply`](Diff::apply) write out of bounds). Callers surface this
    /// as a `ProtocolError`.
    pub fn decode(wire: &Bytes) -> Option<Diff> {
        let b: &[u8] = wire.as_ref();
        if b.len() > u32::MAX as usize {
            return None;
        }
        fn take_u32(b: &[u8], pos: &mut usize) -> Option<usize> {
            let v = b.get(*pos..*pos + 4)?;
            *pos += 4;
            Some(u32::from_le_bytes(v.try_into().unwrap()) as usize)
        }
        let mut pos = 0usize;
        let source_len = take_u32(b, &mut pos)?;
        let runs = take_u32(b, &mut pos)?;
        for _ in 0..runs {
            let off = take_u32(b, &mut pos)?;
            let len = take_u32(b, &mut pos)?;
            if b.len() - pos < len || off.checked_add(len)? > source_len {
                return None;
            }
            pos += len;
        }
        (pos == b.len()).then(|| Diff { wire: wire.clone() })
    }
}
#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time scan the word-wise `compute` must match exactly.
    fn compute_bytewise(twin: &[u8], current: &[u8]) -> Vec<(usize, Vec<u8>)> {
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

    fn assert_matches_reference(twin: &[u8], current: &[u8]) {
        let d = Diff::compute(twin, current);
        let reference = compute_bytewise(twin, current);
        let got: Vec<(usize, Vec<u8>)> = d.iter_runs().map(|(o, b)| (o, b.to_vec())).collect();
        assert_eq!(got, reference, "twin={twin:?} current={current:?}");
    }

    #[test]
    fn identical_buffers_produce_empty_diff() {
        let a = vec![7u8; 256];
        let d = Diff::compute(&a, &a);
        assert!(d.is_empty());
        assert_eq!(d.runs(), 0);
        assert_eq!(d.changed_bytes(), 0);
    }

    #[test]
    fn diff_apply_roundtrip() {
        let twin = (0..200u8).collect::<Vec<_>>();
        let mut cur = twin.clone();
        cur[3] = 99;
        cur[4] = 98;
        cur[150] = 1;
        let d = Diff::compute(&twin, &cur);
        assert_eq!(d.runs(), 2);
        assert_eq!(d.changed_bytes(), 3);
        let mut rebuilt = twin.clone();
        d.apply(&mut rebuilt);
        assert_eq!(rebuilt, cur);
    }

    #[test]
    fn adjacent_changes_merge_into_one_run() {
        let twin = vec![0u8; 64];
        let mut cur = twin.clone();
        for b in cur[10..20].iter_mut() {
            *b = 5;
        }
        let d = Diff::compute(&twin, &cur);
        assert_eq!(d.runs(), 1);
        assert_eq!(d.changed_bytes(), 10);
        assert_eq!(d.wire_bytes(), 8 + 10);
    }

    #[test]
    fn word_scan_matches_bytewise_on_crafted_shapes() {
        // All equal, all different, and every run placement that
        // straddles, starts, or ends on a u64 word boundary — at a size
        // below WORD_SCAN_MIN (the byte fast path) and one above it (the
        // word scan).
        for n in [96usize, 192] {
            let twin: Vec<u8> = (0..n).map(|i| (i * 7 % 250) as u8).collect();
            assert_matches_reference(&twin, &twin);
            let all_diff: Vec<u8> = twin.iter().map(|b| b ^ 0xFF).collect();
            assert_matches_reference(&twin, &all_diff);
            for start in 0..24 {
                for len in 1..24 {
                    let mut cur = twin.clone();
                    for b in cur[start..start + len].iter_mut() {
                        *b ^= 0xFF;
                    }
                    assert_matches_reference(&twin, &cur);
                }
            }
        }
        // Changes in the tail past the last whole word.
        for n in [1usize, 7, 9, 15, 17] {
            let twin = vec![3u8; n];
            let mut cur = twin.clone();
            *cur.last_mut().unwrap() = 4;
            assert_matches_reference(&twin, &cur);
        }
    }

    #[test]
    fn small_and_word_paths_agree_across_the_threshold() {
        // The same change pattern computed just below and just above
        // WORD_SCAN_MIN must produce identical runs: the fast path is an
        // implementation detail, never a behavioral one.
        for n in [WORD_SCAN_MIN - 1, WORD_SCAN_MIN, WORD_SCAN_MIN + 9] {
            let twin: Vec<u8> = (0..n).map(|i| (i * 13 % 251) as u8).collect();
            let mut cur = twin.clone();
            for i in (3..n).step_by(17) {
                cur[i] ^= 0x40;
            }
            let d = Diff::compute(&twin, &cur);
            let small = Diff::compute_small(&twin, &cur);
            let a: Vec<(usize, Vec<u8>)> = d.iter_runs().map(|(o, b)| (o, b.to_vec())).collect();
            let b: Vec<(usize, Vec<u8>)> =
                small.iter_runs().map(|(o, b)| (o, b.to_vec())).collect();
            assert_eq!(a, b);
            let mut rebuilt = twin.clone();
            d.apply(&mut rebuilt);
            assert_eq!(rebuilt, cur);
        }
    }

    #[test]
    fn diffs_from_disjoint_writers_compose() {
        // The Munin insight: two hosts writing disjoint parts of a page
        // can both diff against the twin and both diffs apply cleanly.
        let twin = vec![0u8; 100];
        let mut a = twin.clone();
        let mut b = twin.clone();
        a[5] = 1;
        b[60] = 2;
        let da = Diff::compute(&twin, &a);
        let db = Diff::compute(&twin, &b);
        let mut merged = twin.clone();
        da.apply(&mut merged);
        db.apply(&mut merged);
        assert_eq!(merged[5], 1);
        assert_eq!(merged[60], 2);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn size_mismatch_panics() {
        let _ = Diff::compute(&[0u8; 4], &[0u8; 5]);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let twin = vec![0u8; 300];
        let mut cur = twin.clone();
        cur[3] = 1;
        cur[200] = 2;
        cur[201] = 3;
        let d = Diff::compute(&twin, &cur);
        let d2 = Diff::decode(&d.encode()).expect("valid encoding");
        assert_eq!(d, d2);
        let mut rebuilt = twin.clone();
        d2.apply(&mut rebuilt);
        assert_eq!(rebuilt, cur);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Diff::decode(&Bytes::from(vec![1, 2, 3])).is_none());
        // Truncated run payload.
        let twin = vec![0u8; 64];
        let mut cur = twin.clone();
        cur[10] = 9;
        let mut bytes = Diff::compute(&twin, &cur).encode().to_vec();
        bytes.truncate(bytes.len() - 1);
        assert!(Diff::decode(&Bytes::from(bytes)).is_none());
        // Trailing junk.
        let mut bytes2 = Diff::compute(&twin, &cur).encode().to_vec();
        bytes2.push(0);
        assert!(Diff::decode(&Bytes::from(bytes2)).is_none());
    }

    #[test]
    fn decode_rejects_runs_past_source_len() {
        // A hostile run claims offset+len beyond the page: apply() on a
        // source_len-sized target would write out of bounds. decode must
        // reject it, not defer the crash.
        let mut wire = Vec::new();
        wire.extend_from_slice(&16u32.to_le_bytes()); // source_len = 16
        wire.extend_from_slice(&1u32.to_le_bytes()); // one run
        wire.extend_from_slice(&12u32.to_le_bytes()); // offset 12
        wire.extend_from_slice(&8u32.to_le_bytes()); // len 8: 12+8 > 16
        wire.extend_from_slice(&[0xAA; 8]);
        assert!(Diff::decode(&Bytes::from(wire)).is_none());
        // Offset alone past the end, zero-length payload.
        let mut wire = Vec::new();
        wire.extend_from_slice(&16u32.to_le_bytes());
        wire.extend_from_slice(&1u32.to_le_bytes());
        wire.extend_from_slice(&17u32.to_le_bytes());
        wire.extend_from_slice(&1u32.to_le_bytes());
        wire.push(0xAA);
        assert!(Diff::decode(&Bytes::from(wire)).is_none());
    }

    #[test]
    fn decoded_diff_borrows_the_wire_buffer() {
        let twin = vec![0u8; 4096];
        let mut cur = twin.clone();
        for b in cur[100..300].iter_mut() {
            *b = 7;
        }
        let wire = Diff::compute(&twin, &cur).encode();
        let d = Diff::decode(&wire).expect("valid");
        let (_, run) = d.iter_runs().next().expect("one run");
        // Zero-copy: the run's bytes live inside the wire allocation.
        let wire_range = wire.as_ref().as_ptr_range();
        assert!(wire_range.contains(&run.as_ptr()));
    }
}
