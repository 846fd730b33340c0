//! A hasher for the integer-keyed maps on the protocol's fault path.
//!
//! Those maps are keyed by vpages, minipage ids, event ids and lock ids,
//! and are probed once or more per message. The standard library's
//! SipHash is built to resist keys chosen by an adversary, which an id a
//! run allocates itself is not; [`IntHasher`] takes one widening multiply
//! per word instead and folds the product's well-mixed high half into the
//! low bits a table indexes by (the step of `foldhash`), so ids that
//! differ only in their high bits still land in different buckets.
//! Nothing may depend on a map's iteration order: it differs from
//! SipHash's, which differed from process to process.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` hashed by [`IntHasher`].
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// A multiplicative hasher for integer keys (see the module docs).
#[derive(Clone, Copy, Default)]
pub struct IntHasher(u64);

/// An odd constant with well-spread bits (`rustc-hash`'s).
const K: u64 = 0xf135_7aea_2e62_a9c5;

impl IntHasher {
    fn add(&mut self, word: u64) {
        let product = u128::from(self.0 ^ word) * u128::from(K);
        self.0 = product as u64 ^ (product >> 64) as u64;
    }
}

impl Hasher for IntHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.add(n.into());
    }

    fn write_u16(&mut self, n: u16) {
        self.add(n.into());
    }

    fn write_u32(&mut self, n: u32) {
        self.add(n.into());
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    /// Dense ids, and ids that differ only above their low bits (an
    /// event id range starts at a multiple of 2^40), spread over a table's
    /// buckets (the low bits of the hash) and its tags (the top seven): no
    /// bucket or tag is empty or holds more than three times its share.
    #[test]
    fn dense_and_strided_ids_spread_over_buckets_and_tags() {
        let build = BuildHasherDefault::<IntHasher>::default();
        for (base, stride) in [(0u64, 1u64), (3 << 40, 1), (0, 1 << 12), (0, 1 << 40)] {
            let (mut buckets, mut tags) = ([0u32; 256], [0u32; 128]);
            for i in 0..4096 {
                let h = build.hash_one(base + i * stride);
                buckets[(h & 255) as usize] += 1;
                tags[(h >> 57) as usize] += 1;
            }
            for (what, counts) in [("bucket", &buckets[..]), ("tag", &tags[..])] {
                let share = 4096 / counts.len() as u32;
                let (min, max) = (counts.iter().min(), counts.iter().max());
                let even = min > Some(&0) && max <= Some(&(3 * share));
                assert!(
                    even,
                    "base {base}, stride {stride}: {what}s {min:?}..{max:?}"
                );
            }
        }
    }

    #[test]
    fn an_int_map_is_a_map() {
        let mut m: IntMap<u64, u32> = IntMap::default();
        for i in 0..1000 {
            m.insert(i << 40 | i, i as u32);
        }
        assert!((0..1000).all(|i| m.get(&(i << 40 | i)) == Some(&(i as u32))));
        assert_eq!(m.len(), 1000);
    }
}
