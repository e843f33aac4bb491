//! Splitter sampling and key routing — the probabilistic-splitting recipe
//! shared by the shared-nothing baseline, netsort's coordinator, and the
//! partitioned parallel merge ([`crate::pmerge`]).
//!
//! Keys are sampled with a deterministic golden-ratio stride, the pooled
//! sample is sorted, and its quantiles become the splitters. Everything
//! downstream routes with the same pure function of the key
//! ([`route`]: first interval whose upper splitter exceeds the key, equal
//! keys go right), so a record's destination never depends on which node,
//! run, or range examined it — the property the partitioned merge's
//! stability argument rests on.

use std::borrow::Borrow;

use alphasort_dmgen::{records_of, KEY_LEN, RECORD_LEN};

/// Sample up to `count` keys from `input` (whole records) with a
/// golden-ratio stride, returning them concatenated (KEY_LEN bytes each) —
/// the payload of a netsort `Frame::Sample`.
pub fn sample_keys(input: &[u8], count: usize) -> Vec<u8> {
    assert!(input.len().is_multiple_of(RECORD_LEN));
    let records = records_of(input);
    let n = records.len();
    if n == 0 {
        return Vec::new();
    }
    let count = count.min(n);
    let mut out = Vec::with_capacity(count * KEY_LEN);
    for i in 0..count {
        let idx = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) % n as u64;
        out.extend_from_slice(&records[idx as usize].key);
    }
    out
}

/// Pick `parts - 1` splitter keys from a pooled key sample — fixed
/// Datamation keys or var-len byte strings. The pool is sorted and its
/// quantiles become the splitters, so every part's key range should hold
/// roughly the same record count. An empty pool (no data anywhere) yields
/// default keys, which partition nothing incorrectly.
pub fn splitters_from_keys<K: Ord + Clone + Default>(mut pool: Vec<K>, parts: usize) -> Vec<K> {
    assert!(parts >= 1);
    pool.sort_unstable();
    if pool.is_empty() {
        return vec![K::default(); parts - 1];
    }
    (1..parts)
        .map(|k| pool[k * pool.len() / parts].clone())
        .collect()
}

/// Pick `nodes - 1` splitter keys from pooled sample payloads (the
/// concatenated-key form [`sample_keys`] produces).
pub fn compute_splitters(samples: &[Vec<u8>], nodes: usize) -> Vec<[u8; KEY_LEN]> {
    let mut pool: Vec<[u8; KEY_LEN]> = Vec::new();
    for payload in samples {
        assert!(payload.len().is_multiple_of(KEY_LEN), "ragged sample");
        for key in payload.chunks_exact(KEY_LEN) {
            pool.push(key.try_into().expect("KEY_LEN chunk"));
        }
    }
    splitters_from_keys(pool, nodes)
}

/// Serialize splitters for a netsort `Frame::Splitters` payload.
pub fn encode_splitters(splitters: &[[u8; KEY_LEN]]) -> Vec<u8> {
    splitters.concat()
}

/// Parse a netsort `Frame::Splitters` payload.
pub fn decode_splitters(payload: &[u8]) -> Vec<[u8; KEY_LEN]> {
    assert!(payload.len().is_multiple_of(KEY_LEN), "ragged splitters");
    payload
        .chunks_exact(KEY_LEN)
        .map(|k| k.try_into().expect("KEY_LEN chunk"))
        .collect()
}

/// Which part owns `key` under `splitters`: the first interval whose upper
/// splitter exceeds the key (keys equal to a splitter go right). A pure
/// function of the key, so duplicates never straddle parts. `key` is a
/// fixed key against fixed splitters, or a byte string against `Vec<u8>`
/// splitters.
#[inline]
pub fn route<S: Borrow<Q>, Q: Ord + ?Sized>(key: &Q, splitters: &[S]) -> usize {
    splitters.partition_point(|s| s.borrow() <= key)
}

/// Scatter `input` (whole records) into one byte buffer per part.
pub fn partition_records(input: &[u8], splitters: &[[u8; KEY_LEN]]) -> Vec<Vec<u8>> {
    assert!(input.len().is_multiple_of(RECORD_LEN));
    let mut outs: Vec<Vec<u8>> = vec![Vec::new(); splitters.len() + 1];
    for r in records_of(input) {
        outs[route(&r.key, splitters)].extend_from_slice(r.as_bytes());
    }
    outs
}

#[cfg(test)]
mod tests {
    use super::*;
    use alphasort_dmgen::{generate, GenConfig, KeyDistribution};

    #[test]
    fn splitters_balance_random_keys() {
        let (input, _) = generate(GenConfig::datamation(40_000, 11));
        let sample = sample_keys(&input, 1024);
        let splitters = compute_splitters(&[sample], 8);
        assert_eq!(splitters.len(), 7);
        assert!(splitters.windows(2).all(|w| w[0] <= w[1]));
        let parts = partition_records(&input, &splitters);
        let ideal = 40_000.0 / 8.0;
        for p in &parts {
            let records = (p.len() / RECORD_LEN) as f64;
            assert!(records < ideal * 1.5, "partition holds {records}");
        }
    }

    #[test]
    fn routing_respects_splitter_intervals() {
        let splitters = [[5u8; KEY_LEN], [9u8; KEY_LEN]];
        assert_eq!(route(&[0u8; KEY_LEN], &splitters), 0);
        assert_eq!(route(&[5u8; KEY_LEN], &splitters), 1); // equal goes right
        assert_eq!(route(&[7u8; KEY_LEN], &splitters), 1);
        assert_eq!(route(&[255u8; KEY_LEN], &splitters), 2);
        assert_eq!(route(&[3u8; KEY_LEN], &[] as &[[u8; KEY_LEN]]), 0); // one part, no splitters
    }

    #[test]
    fn partitions_concatenate_to_input_multiset_in_key_order() {
        let (input, _) = generate(GenConfig {
            records: 5_000,
            seed: 3,
            dist: KeyDistribution::DupHeavy { cardinality: 4 },
        });
        let sample = sample_keys(&input, 256);
        let splitters = compute_splitters(&[sample], 4);
        let parts = partition_records(&input, &splitters);
        let total: usize = parts.iter().map(|p| p.len()).sum();
        assert_eq!(total, input.len());
        // Every key in partition i is <= every key in partition i+1 (ranges
        // are disjoint up to the splitter-equality rule).
        for w in parts.windows(2) {
            let max_lo = records_of(&w[0]).iter().map(|r| r.key).max();
            let min_hi = records_of(&w[1]).iter().map(|r| r.key).min();
            if let (Some(lo), Some(hi)) = (max_lo, min_hi) {
                assert!(lo <= hi);
            }
        }
    }

    #[test]
    fn byte_splitters_agree_with_fixed_splitters_on_fixed_keys() {
        let (input, _) = generate(GenConfig::datamation(3_000, 17));
        let fixed = decode_splitters(&sample_keys(&input, 400));
        let bytes: Vec<Vec<u8>> = fixed.iter().map(|k| k.to_vec()).collect();
        let fs = splitters_from_keys(fixed, 6);
        let bs = splitters_from_keys(bytes, 6);
        assert_eq!(fs.len(), bs.len());
        for (f, b) in fs.iter().zip(&bs) {
            assert_eq!(&f[..], &b[..]);
            assert_eq!(route(f, &fs), route(b.as_slice(), &bs));
        }
    }

    #[test]
    fn byte_string_routing_handles_empty_and_prefix_keys() {
        let splitters = vec![b"app".to_vec(), b"apple".to_vec()];
        let route_str = |k: &[u8]| route(k, &splitters);
        assert_eq!(route_str(b""), 0);
        assert_eq!(route_str(b"ap"), 0);
        assert_eq!(route_str(b"app"), 1); // equal goes right
        assert_eq!(route_str(b"appl"), 1);
        assert_eq!(route_str(b"apple"), 2);
        assert_eq!(route_str(b"zebra"), 2);
        assert_eq!(route(b"anything".as_slice(), &[] as &[Vec<u8>]), 0);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let splitters = vec![[1u8; KEY_LEN], [200u8; KEY_LEN]];
        assert_eq!(decode_splitters(&encode_splitters(&splitters)), splitters);
    }

    #[test]
    fn empty_cluster_input_still_produces_splitters() {
        let splitters = compute_splitters(&[Vec::new(), Vec::new()], 4);
        assert_eq!(splitters.len(), 3);
        assert!(partition_records(&[], &splitters).iter().all(Vec::is_empty));
    }

    #[test]
    fn splitters_from_keys_matches_payload_path() {
        let (input, _) = generate(GenConfig::datamation(2_000, 9));
        let payload = sample_keys(&input, 300);
        let keys = decode_splitters(&payload);
        assert_eq!(
            splitters_from_keys(keys, 5),
            compute_splitters(&[payload], 5)
        );
    }
}
