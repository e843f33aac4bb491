//! Sort-array entry types: what the QuickSort actually moves.
//!
//! §4 of the paper analyses three QuickSorts by what their arrays hold —
//! whole records (R = 100 bytes), bare pointers (P = 4), or key-pointer
//! pairs (K + P = 14) — and lands on a fourth: *(key-prefix, pointer)*
//! pairs, where the prefix is "normalized to an integer type, allowing most
//! comparisons to be resolved with an integer comparison".

use alphasort_dmgen::{Record, KEY_LEN};

/// Which record model a sort operates on. The layout is threaded through
/// [`crate::SortConfig`], the one-pass driver (the two-pass driver takes
/// `Datamation` only), `sortcli --layout`, and the sortd job manifest; for
/// a given layout every configuration produces byte-identical output, so
/// the other knobs move CPU time only.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RecordLayout {
    /// Fixed Datamation records: 100 bytes, 10-byte key at offset 0. The
    /// fast path — every fixed-stride assumption stays intact.
    #[default]
    Datamation,
    /// Length-prefixed variable-length records with an (offset, length)
    /// string-key descriptor (see [`alphasort_dmgen::varlen`]), sorted in
    /// memory with the runs merged on LCP/OVC codes ([`crate::varlen`]).
    VarLen,
}

impl RecordLayout {
    /// Every registered layout, fast path first.
    pub const ALL: [RecordLayout; 2] = [RecordLayout::Datamation, RecordLayout::VarLen];

    /// Registry name (CLI flag value, manifest field value, oracle key).
    pub fn name(self) -> &'static str {
        match self {
            RecordLayout::Datamation => "datamation",
            RecordLayout::VarLen => "varlen",
        }
    }

    /// Look a layout up by its registry name.
    pub fn from_name(name: &str) -> Option<RecordLayout> {
        RecordLayout::ALL.into_iter().find(|l| l.name() == name)
    }

    /// One-line description for help text and docs.
    pub fn describe(self) -> &'static str {
        match self {
            RecordLayout::Datamation => "fixed 100-byte records, 10-byte keys (fast path)",
            RecordLayout::VarLen => "length-prefixed records, string keys, LCP/OVC merge",
        }
    }
}

/// The prefix-entry integer for an arbitrary-length key: the first 8 key
/// bytes big-endian, zero-padded on the right when the key is shorter.
///
/// Padding with 0x00 understates short keys but never overstates them, so
/// prefix order is faithful wherever prefixes differ; equal prefixes fall
/// through to the full-key comparison (the overflow path), exactly like
/// the fixed layout's tie handling.
#[inline]
pub fn key_prefix_u64(key: &[u8]) -> u64 {
    let mut buf = [0u8; 8];
    let n = key.len().min(8);
    buf[..n].copy_from_slice(&key[..n]);
    u64::from_be_bytes(buf)
}

/// Hard ceiling on records addressable within one run: the entry types
/// carry 32-bit record indices, so a run may hold at most `u32::MAX`
/// records (≈ 400 GB of 100-byte records — runs are sized to memory and
/// sit orders of magnitude below this). Keeping the ceiling at
/// `u32::MAX` rather than `u32::MAX + 1` also reserves `u32::MAX` as a
/// sentinel index no real entry can carry.
pub const MAX_RUN_RECORDS: usize = u32::MAX as usize;

/// Convert a run length (or in-run position) into the 32-bit entry index
/// space, panicking with an attributed message instead of wrapping.
///
/// Silent `as u32` truncation here would mis-sort quietly: record
/// 2³² of a run would alias record 0. Every extract and merge-bound site
/// funnels through this check; `what` names the site in the panic.
#[inline]
pub fn checked_run_len(len: usize, what: &str) -> u32 {
    assert!(
        len <= MAX_RUN_RECORDS,
        "{what}: {len} records exceed the {MAX_RUN_RECORDS}-records-per-run \
         limit of the 32-bit entry index"
    );
    len as u32
}

/// A *(key-prefix, pointer)* pair — AlphaSort's choice.
///
/// 8 prefix bytes as a big-endian `u64` plus a 4-byte record index: 12 bytes
/// more than 8× denser than records, and comparable with one integer
/// compare except on prefix ties.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PrefixEntry {
    /// First 8 key bytes, big-endian, so integer order = byte-string order.
    pub prefix: u64,
    /// Record index within the run's buffer.
    pub idx: u32,
}

impl PrefixEntry {
    /// Build the entry for record `idx` of `records`.
    #[inline]
    pub fn of(records: &[Record], idx: u32) -> Self {
        PrefixEntry {
            prefix: records[idx as usize].prefix(),
            idx,
        }
    }

    /// Extract the entry array for a whole record buffer — the paper's
    /// "streamed into an array" step that runs while input arrives.
    pub fn extract(records: &[Record]) -> Vec<PrefixEntry> {
        checked_run_len(records.len(), "PrefixEntry::extract");
        records
            .iter()
            .enumerate()
            .map(|(i, r)| PrefixEntry {
                prefix: r.prefix(),
                idx: i as u32,
            })
            .collect()
    }

    /// Compare two entries, falling through to the full keys (via the
    /// record buffer) only on a prefix tie — §4's degenerate-case handling.
    #[inline]
    pub fn cmp_via(&self, other: &Self, records: &[Record]) -> core::cmp::Ordering {
        match self.prefix.cmp(&other.prefix) {
            core::cmp::Ordering::Equal => records[self.idx as usize]
                .key
                .cmp(&records[other.idx as usize].key),
            ord => ord,
        }
    }
}

/// A *(codeword, pointer)* pair — the Baer & Lin (1989) representation §4
/// discusses: "They recommended keys be prefix compressed into codewords so
/// that the (pointer, codeword) QuickSort would fit in cache. We did not
/// use their version of codewords since they cannot be used to later merge
/// the record pointers."
///
/// The codeword here is the first 4 key bytes as a big-endian `u32`: the
/// entry shrinks to 8 bytes (twice the cache density of [`PrefixEntry`]),
/// at the price of 2³² times more ties than the 64-bit prefix — the merge
/// handicap the authors rejected it for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CodewordEntry {
    /// First 4 key bytes, big-endian.
    pub code: u32,
    /// Record index within the run's buffer.
    pub idx: u32,
}

impl CodewordEntry {
    /// Build the entry for record `idx` of `records`.
    #[inline]
    pub fn of(records: &[Record], idx: u32) -> Self {
        let k = &records[idx as usize].key;
        CodewordEntry {
            code: u32::from_be_bytes([k[0], k[1], k[2], k[3]]),
            idx,
        }
    }

    /// Extract the entry array for a whole record buffer.
    pub fn extract(records: &[Record]) -> Vec<CodewordEntry> {
        (0..checked_run_len(records.len(), "CodewordEntry::extract"))
            .map(|i| CodewordEntry::of(records, i))
            .collect()
    }
}

/// A *(full key, pointer)* pair — §4's "key sort" (detached key sort).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KeyEntry {
    /// The complete 10-byte key.
    pub key: [u8; KEY_LEN],
    /// Record index within the run's buffer.
    pub idx: u32,
}

impl KeyEntry {
    /// Build the entry for record `idx` of `records`.
    #[inline]
    pub fn of(records: &[Record], idx: u32) -> Self {
        KeyEntry {
            key: records[idx as usize].key,
            idx,
        }
    }

    /// Extract the entry array for a whole record buffer.
    pub fn extract(records: &[Record]) -> Vec<KeyEntry> {
        checked_run_len(records.len(), "KeyEntry::extract");
        records
            .iter()
            .enumerate()
            .map(|(i, r)| KeyEntry {
                key: r.key,
                idx: i as u32,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alphasort_dmgen::{generate, records_of, GenConfig};

    #[test]
    fn layout_names_round_trip() {
        for l in RecordLayout::ALL {
            assert_eq!(RecordLayout::from_name(l.name()), Some(l));
            assert!(!l.describe().is_empty());
        }
        assert_eq!(RecordLayout::from_name("no-such-layout"), None);
        assert_eq!(RecordLayout::default(), RecordLayout::Datamation);
    }

    #[test]
    fn key_prefix_is_order_faithful_where_prefixes_differ() {
        // Shorter keys pad with 0x00: never overstated, so prefix order may
        // only tie (fall through), never invert, byte-string order.
        let cases: [&[u8]; 7] = [
            b"",
            b"a",
            b"ab",
            b"abcdefgh",
            b"abcdefghZZZ",
            b"abd",
            b"\xff\xff\xff\xff\xff\xff\xff\xff\xff",
        ];
        for x in cases {
            for y in cases {
                let (px, py) = (key_prefix_u64(x), key_prefix_u64(y));
                if px != py {
                    assert_eq!(px < py, x < y, "{x:?} vs {y:?}");
                }
            }
        }
        // A key that is a prefix of another ties on the integer prefix when
        // they agree through 8 bytes — the overflow path must break it.
        assert_eq!(key_prefix_u64(b"abcdefgh"), key_prefix_u64(b"abcdefghZZZ"));
    }

    #[test]
    fn prefix_entry_is_12_bytes_padded_to_16() {
        // The array stride is what matters for cache behaviour.
        assert!(core::mem::size_of::<PrefixEntry>() <= 16);
        assert_eq!(core::mem::size_of::<KeyEntry>(), 16);
    }

    #[test]
    fn extract_preserves_indices() {
        let (data, _) = generate(GenConfig::datamation(50, 1));
        let records = records_of(&data);
        let entries = PrefixEntry::extract(records);
        for (i, e) in entries.iter().enumerate() {
            assert_eq!(e.idx as usize, i);
            assert_eq!(e.prefix, records[i].prefix());
        }
    }

    #[test]
    fn checked_run_len_accepts_up_to_the_index_ceiling() {
        // Contract-level boundary check: no 400 GB allocation needed, the
        // conversion itself carries the invariant.
        assert_eq!(checked_run_len(0, "t"), 0);
        assert_eq!(checked_run_len(1, "t"), 1);
        assert_eq!(checked_run_len(MAX_RUN_RECORDS, "t"), u32::MAX);
    }

    #[test]
    #[should_panic(expected = "records-per-run")]
    fn checked_run_len_panics_past_the_ceiling() {
        // The old `as u32` wrapped this to 0 silently; it must refuse, and
        // the message must attribute the site.
        checked_run_len(MAX_RUN_RECORDS + 1, "boundary-test");
    }

    #[test]
    #[should_panic(expected = "boundary-test")]
    fn checked_run_len_panic_names_the_site() {
        checked_run_len(1 << 33, "boundary-test");
    }

    #[test]
    fn cmp_via_falls_through_on_ties() {
        let mut a = Record::with_key([1, 2, 3, 4, 5, 6, 7, 8, 0, 1], 0);
        let b = Record::with_key([1, 2, 3, 4, 5, 6, 7, 8, 0, 2], 1);
        a.payload[0] = 0xFF;
        let records = vec![a, b];
        let ea = PrefixEntry::of(&records, 0);
        let eb = PrefixEntry::of(&records, 1);
        assert_eq!(ea.prefix, eb.prefix);
        assert_eq!(ea.cmp_via(&eb, &records), core::cmp::Ordering::Less);
        assert_eq!(eb.cmp_via(&ea, &records), core::cmp::Ordering::Greater);
        assert_eq!(ea.cmp_via(&ea, &records), core::cmp::Ordering::Equal);
    }
}
