//! MurmurHash 2.0, 64-bit variant (MurmurHash64A), and the engine's
//! in-memory table hasher.
//!
//! The paper hashes partitioning keys to partitions with MurmurHash 2.0
//! (§8.1, ref 17) and observes near-uniform access and data distribution. We
//! implement the canonical 64-bit variant so routing behaviour is
//! reproducible and key-distribution tests are meaningful.
//!
//! [`FxHasher`] is what the engine's own hash tables use: it decides where
//! an entry sits in memory and nothing else, so it is cheap where
//! `murmur64a` is faithful.

use std::hash::{BuildHasherDefault, Hasher};

/// Hashes `key` with MurmurHash64A under the given `seed`.
pub fn murmur64a(key: &[u8], seed: u64) -> u64 {
    const M: u64 = 0xc6a4_a793_5bd1_e995;
    const R: u32 = 47;

    let len = key.len();
    let mut h: u64 = seed ^ (len as u64).wrapping_mul(M);

    let n_blocks = len / 8;
    for i in 0..n_blocks {
        let mut k = u64::from_le_bytes(
            key[i * 8..i * 8 + 8]
                .try_into()
                .unwrap_or_else(|_| unreachable!("an 8-byte slice converts to [u8; 8]")),
        );
        k = k.wrapping_mul(M);
        k ^= k >> R;
        k = k.wrapping_mul(M);
        h ^= k;
        h = h.wrapping_mul(M);
    }

    let tail = &key[n_blocks * 8..];
    if !tail.is_empty() {
        let mut k: u64 = 0;
        for (i, &b) in tail.iter().enumerate() {
            k |= (b as u64) << (8 * i);
        }
        h ^= k;
        h = h.wrapping_mul(M);
    }

    h ^= h >> R;
    h = h.wrapping_mul(M);
    h ^= h >> R;
    h
}

/// Default seed used for routing (fixed so plans are stable across runs).
pub const ROUTING_SEED: u64 = 0x9747_b28c;

/// Hashes a routing key to one of `buckets` buckets.
pub fn bucket_of(key: &[u8], buckets: u64) -> u64 {
    assert!(buckets > 0, "buckets must be positive");
    murmur64a(key, ROUTING_SEED) % buckets
}

/// The multiply-rotate hasher of the Firefox and rustc hash tables
/// (FxHash): per word, rotate the state, xor the word in, multiply. A slot
/// id costs one multiply. It is unkeyed, hence identical in every process
/// — and offers no resistance to chosen keys, which slot ids, procedure
/// names and row keys of a simulated workload are not.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher(u64);

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            let word: [u8; 8] = word
                .try_into()
                .unwrap_or_else(|_| unreachable!("an 8-byte chunk converts to [u8; 8]"));
            self.add(u64::from_le_bytes(word));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    /// A product's top bits are its best mixed and its low bits depend on
    /// the low bits of the last word alone, while a hash table takes its
    /// bucket from the low bits: the top ones are turned down to them.
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// The `S` of the engine's hash maps and sets on the transaction and
/// migration paths: `HashMap<K, V, FxBuild>`.
pub type FxBuild = BuildHasherDefault<FxHasher>;

#[cfg(test)]
mod tests {
    #![allow(
        clippy::float_cmp,
        clippy::cast_possible_truncation,
        reason = "tests use exact values and tiny ids"
    )]
    use super::*;
    use crate::catalog::Catalog;
    use crate::cluster::{Cluster, ClusterConfig};
    use crate::value::{Key, Text};
    use std::collections::HashMap;
    use std::hash::{BuildHasher, Hash};

    #[test]
    fn matches_reference_vectors() {
        // Vectors cross-checked against an independent re-implementation of
        // the canonical MurmurHash64A reference code (seed 0).
        assert_eq!(murmur64a(b"", 0), 0);
        assert_eq!(murmur64a(b"a", 0), 0x071717d2d36b6b11);
        assert_eq!(murmur64a(b"abc", 0), 0x9cc9c33498a95efb);
        assert_eq!(murmur64a(b"hello world", 0), 0xd3ba2368a832afce);
        assert_eq!(
            murmur64a(b"The quick brown fox jumps over the lazy dog", 0),
            0x5589ca33042a861b
        );
    }

    #[test]
    fn seed_changes_output() {
        assert_ne!(murmur64a(b"key", 1), murmur64a(b"key", 2));
    }

    #[test]
    fn deterministic() {
        assert_eq!(murmur64a(b"cart-12345", 7), murmur64a(b"cart-12345", 7));
    }

    #[test]
    fn handles_all_tail_lengths() {
        // Exercise every tail branch (0..8 trailing bytes).
        let data = b"0123456789abcdef";
        let mut seen = std::collections::HashSet::new();
        for len in 0..=data.len() {
            assert!(
                seen.insert(murmur64a(&data[..len], 0)),
                "collision at {len}"
            );
        }
    }

    #[test]
    fn buckets_are_roughly_uniform() {
        // 30 partitions over 100k random-ish keys: max deviation from the
        // mean should be small — the §8.1 uniformity argument.
        let buckets = 30u64;
        let mut counts = vec![0usize; buckets as usize];
        for i in 0..100_000u64 {
            let key = format!("cart-{i:08x}");
            counts[bucket_of(key.as_bytes(), buckets) as usize] += 1;
        }
        let mean = 100_000.0 / buckets as f64;
        for (b, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - mean).abs() / mean;
            assert!(dev < 0.05, "bucket {b} deviates {:.1}%", dev * 100.0);
        }
    }

    #[test]
    #[should_panic(expected = "buckets must be positive")]
    fn zero_buckets_rejected() {
        let _ = bucket_of(b"x", 0);
    }

    fn fx(v: &impl Hash) -> u64 {
        FxBuild::default().hash_one(v)
    }

    #[test]
    fn fx_hashes_are_the_same_in_every_process() {
        // No per-process key: the values are pinned, so that where an
        // entry sits — and with it what a run allocates — repeats.
        assert_eq!(fx(&0u64), 0);
        assert_eq!(fx(&1u64), 0x517c_c1b7_2722_0a95_u64.rotate_left(26));
        assert_eq!(fx(&3_599u64), 0x7c9e_4b12_ee63_9d77);
        // A row's key as the moved-key sets hold it, and a procedure name.
        let line = (1usize, Key::str_int("cart-0000deadbeef", 2));
        assert_eq!(fx(&line), 0x9d15_0acf_e528_53ca);
        assert_eq!(fx(&"ReserveStock"), 0xf5ee_94bc_04aa_43ac);
        // A text hashes as the `str` it holds, either side of the inline
        // boundary.
        for id in ["sku-0001f3a9", "stx-8badf00d8badf00d-and-then-some"] {
            assert_eq!(fx(&Text::from(id)), fx(&id));
        }
    }

    /// The load of the fullest of `buckets` buckets, as a multiple of the
    /// mean load, when `hashes` are dealt by `bucket`.
    fn fullest_over_mean(hashes: &[u64], buckets: usize, bucket: impl Fn(u64) -> usize) -> f64 {
        let mut load = vec![0usize; buckets];
        for &h in hashes {
            load[bucket(h)] += 1;
        }
        let fullest = load.iter().copied().max().unwrap_or(0);
        fullest as f64 * buckets as f64 / hashes.len() as f64
    }

    /// A hash table takes its bucket from a hash's low bits and the tag
    /// it filters candidates by from the top seven.
    fn low_bits(buckets: usize) -> impl Fn(u64) -> usize {
        assert!(buckets.is_power_of_two());
        move |h| h as usize & (buckets - 1)
    }

    fn top_seven_bits(h: u64) -> usize {
        (h >> 57) as usize
    }

    #[test]
    fn fx_spreads_the_slot_ids_one_store_holds() {
        // The benchmark's two sizings: 3 600 slots on 6 x 6 stores (about
        // 100 ids each) and 7 200 on 3 x 6 (about 400). A store's ids are
        // what murmur deals its local partition out of its node's share
        // of the slots, and on six nodes that share is every sixth id —
        // all odd or all even, which an unrotated product would carry
        // into the bucket. The fullest bucket holds at most 2.5 times the
        // mean; the commonest of the 128 tags at most 8 ids of 100 and 4
        // times the mean of 400. (Independent uniform hashes read 1.8 to
        // 2.1, 4 ids, and 2.6 in the median store, and 2.9, 7 ids and 3.8
        // in the worst of 300.)
        for (num_slots, nodes, top_bound) in [(3_600usize, 6u32, 8.0 / 0.75), (7_200, 3, 4.0)] {
            let cfg = ClusterConfig {
                partitions_per_node: 6,
                num_slots,
            };
            let cluster = Cluster::new(Catalog::new(), cfg, nodes);
            let mut stores: HashMap<(u32, u32), Vec<u64>> = HashMap::new();
            for slot in 0..num_slots as u64 {
                stores
                    .entry(cluster.partition_of_slot(slot))
                    .or_default()
                    .push(fx(&slot));
            }
            assert_eq!(stores.len(), nodes as usize * 6);
            for (store, hashes) in stores {
                // Eight ids to a bucket on average, 16 buckets at least.
                let buckets = (hashes.len() / 8).next_power_of_two().max(16);
                let low = fullest_over_mean(&hashes, buckets, low_bits(buckets));
                let top = fullest_over_mean(&hashes, 128, top_seven_bits);
                assert!(
                    low <= 2.5 && top <= top_bound,
                    "{num_slots} slots, store {store:?}, {} ids: fullest bucket {low:.2}, \
                     commonest tag {top:.2} times the mean",
                    hashes.len()
                );
            }
        }
    }

    #[test]
    fn fx_spreads_b2w_keys() {
        fn splitmix(mut z: u64) -> u64 {
            z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
        let mut hashes = Vec::new();
        for i in 0..25_000u64 {
            let id = splitmix(i);
            // As the moved-key sets hold them: `(table, key)`.
            hashes.push(fx(&(0usize, Key::str(format!("cart-{id:012x}")))));
            hashes.push(fx(&(
                1usize,
                Key::str_int(format!("cart-{id:012x}"), (i % 8) as i64),
            )));
            hashes.push(fx(&(2usize, Key::str(format!("chk-{id:012x}")))));
            hashes.push(fx(&(6usize, Key::str(format!("stx-{id:012x}")))));
        }
        for i in 0..25_000u64 {
            // SKUs are eight digits of a counter's hash.
            let id = splitmix(0x5C0C ^ i) >> 32;
            hashes.push(fx(&(5usize, Key::str(format!("sku-{id:08x}")))));
        }
        // 125 000 keys, eight to a bucket on average: the fullest holds
        // at most 3.5 times the mean (independent uniform hashes read
        // 2.6 to 3.1), the commonest tag at most 1.15 times (1.08 to 1.11).
        let buckets = 16_384;
        let low = fullest_over_mean(&hashes, buckets, low_bits(buckets));
        let top = fullest_over_mean(&hashes, 128, top_seven_bits);
        assert!(
            low <= 3.5 && top <= 1.15,
            "fullest bucket {low:.2}, commonest tag {top:.2} times the mean"
        );
    }
}
