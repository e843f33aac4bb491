//! Run formation: the four QuickSort representations of §4.
//!
//! | Representation | array holds        | bytes moved per exchange |
//! |----------------|--------------------|--------------------------|
//! | `Record`       | whole records      | 2R = 200                 |
//! | `Pointer`      | record indices     | 2P = 8 (but each compare dereferences two records) |
//! | `Key`          | (key, pointer)     | 2(K+P) = 28              |
//! | `KeyPrefix`    | (prefix, pointer)  | 24, compares are integer ops |
//!
//! The paper measures record sort 30% slower than pointer sort and "270%
//! slower than key sort", and a further 25% QuickSort improvement from the
//! prefix. `exp_variants` and the `sort_variants` bench reproduce those
//! ratios with these implementations.
//!
//! Production `KeyPrefix` run formation ([`form_run`]) adds one step in
//! front of the QuickSort: a 256-bucket scatter on the prefix's top byte
//! ([`radix_prefix_order`]), the distributive pass the paper's footnote
//! says "might beat AlphaSort". [`key_prefix_order`] stays as the plain
//! §4 QuickSort the experiments measure and the tests compare against.

use alphasort_dmgen::{records_of, records_of_mut, Record, RECORD_LEN};

use crate::entry::{KeyEntry, PrefixEntry};
use crate::kernel::quicksort_by;

/// Which sort-array representation run formation uses.
///
/// All detached representations (everything but `Record`) break key ties on
/// the record's position within the run, and the merge breaks cross-run
/// ties on run number — so the full sort is **stable** for them. In-place
/// record sort exchanges records physically and is not stable (the paper's
/// §4 concedes stability to replacement-selection for exactly this reason).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Representation {
    /// Sort the 100-byte records in place.
    Record,
    /// Sort 4-byte record indices; compares dereference the records.
    Pointer,
    /// Sort (10-byte key, index) pairs.
    Key,
    /// Sort (8-byte prefix, index) pairs, full-key compare on prefix ties —
    /// AlphaSort's choice.
    KeyPrefix,
    /// Sort (4-byte codeword, index) pairs — the Baer & Lin compressed-key
    /// representation §4 considers: densest cache packing, but codewords
    /// "cannot be used to later merge the record pointers".
    Codeword,
}

impl Representation {
    /// All five: the paper's four, then the Baer & Lin codeword variant.
    pub const ALL: [Representation; 5] = [
        Representation::Record,
        Representation::Pointer,
        Representation::Key,
        Representation::KeyPrefix,
        Representation::Codeword,
    ];

    /// Short name for tables.
    pub fn name(self) -> &'static str {
        match self {
            Representation::Record => "record",
            Representation::Pointer => "pointer",
            Representation::Key => "key",
            Representation::KeyPrefix => "key-prefix",
            Representation::Codeword => "codeword",
        }
    }
}

/// A sorted run: the record bytes plus the order in which to read them.
pub struct SortedRun {
    buf: Vec<u8>,
    /// `None` when the records are physically sorted (record sort);
    /// otherwise the sorted index permutation.
    order: Option<Vec<u32>>,
}

impl SortedRun {
    /// Number of records in the run.
    pub fn len(&self) -> usize {
        self.buf.len() / RECORD_LEN
    }

    /// Whether the run holds no records.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The run's records (in *storage* order, not sorted order).
    pub fn records(&self) -> &[Record] {
        records_of(&self.buf)
    }

    /// The record at sorted position `pos`.
    #[inline]
    pub fn record_at(&self, pos: usize) -> &Record {
        let i = match &self.order {
            None => pos,
            Some(order) => order[pos] as usize,
        };
        &self.records()[i]
    }

    /// The key prefix at sorted position `pos`.
    #[inline]
    pub fn prefix_at(&self, pos: usize) -> u64 {
        self.record_at(pos).prefix()
    }

    /// Iterate records in sorted order.
    pub fn iter_sorted(&self) -> impl Iterator<Item = &Record> + '_ {
        (0..self.len()).map(move |p| self.record_at(p))
    }

    /// Consume the run, returning its raw buffer (storage order).
    pub fn into_buf(self) -> Vec<u8> {
        self.buf
    }
}

/// Form a sorted run from a record buffer using `rep`. `KeyPrefix` sorts
/// with [`radix_prefix_order`], whose permutation is identical to
/// [`key_prefix_order`]'s.
///
/// # Panics
/// If `buf.len()` is not a multiple of the record length.
pub fn form_run(mut buf: Vec<u8>, rep: Representation) -> SortedRun {
    match rep {
        Representation::Record => {
            sort_records_in_place(&mut buf);
            SortedRun { buf, order: None }
        }
        Representation::Pointer => {
            let order = pointer_order(&buf);
            SortedRun {
                buf,
                order: Some(order),
            }
        }
        Representation::Key => {
            let order = key_order(&buf);
            SortedRun {
                buf,
                order: Some(order),
            }
        }
        Representation::KeyPrefix => {
            let order = radix_prefix_order(&buf);
            SortedRun {
                buf,
                order: Some(order),
            }
        }
        Representation::Codeword => {
            let order = codeword_order(&buf);
            SortedRun {
                buf,
                order: Some(order),
            }
        }
    }
}

/// §4 "record sort": QuickSort the records themselves. Each exchange moves
/// 200 bytes; each compare touches two records in situ.
pub fn sort_records_in_place(buf: &mut [u8]) {
    let records = records_of_mut(buf);
    quicksort_by(records, |a, b| a.key < b.key);
}

/// §4 "pointer sort": QuickSort indices; every compare dereferences two
/// records (poor locality — the point of the experiment).
pub fn pointer_order(buf: &[u8]) -> Vec<u32> {
    let records = records_of(buf);
    let mut order: Vec<u32> = (0..records.len() as u32).collect();
    quicksort_by(&mut order, |&a, &b| {
        // Final index tie-break: indices follow arrival order within the
        // run, so equal keys keep input order (stability, for free).
        (&records[a as usize].key, a) < (&records[b as usize].key, b)
    });
    order
}

/// §4 "key sort" (detached keys): QuickSort (full key, index) pairs; no
/// record access during the sort.
pub fn key_order(buf: &[u8]) -> Vec<u32> {
    let records = records_of(buf);
    let mut entries = KeyEntry::extract(records);
    quicksort_by(&mut entries, |a, b| (&a.key, a.idx) < (&b.key, b.idx));
    entries.into_iter().map(|e| e.idx).collect()
}

/// The key-prefix order: prefix first, full key on prefix ties, arrival
/// index last (which makes the order total and the sorted permutation
/// unique).
#[inline]
pub fn prefix_entry_less(records: &[Record], a: &PrefixEntry, b: &PrefixEntry) -> bool {
    if a.prefix != b.prefix {
        a.prefix < b.prefix
    } else {
        (&records[a.idx as usize].key, a.idx) < (&records[b.idx as usize].key, b.idx)
    }
}

/// AlphaSort's key-prefix sort: integer compares on the 8-byte prefix,
/// full-key fall-through only on ties.
pub fn key_prefix_order(buf: &[u8]) -> Vec<u32> {
    let records = records_of(buf);
    let mut entries = PrefixEntry::extract(records);
    quicksort_by(&mut entries, |a, b| prefix_entry_less(records, a, b));
    entries.into_iter().map(|e| e.idx).collect()
}

/// Key-prefix sort with a distributive first pass (DPG): one counting pass
/// over the prefix's top byte scatters the entries into 256 buckets, then
/// each bucket QuickSorts under [`prefix_entry_less`]. The bucket key is
/// the comparator's most significant byte, so the result is exactly
/// [`key_prefix_order`]'s permutation, reached through 256 small
/// cache-resident sorts instead of one large one.
pub fn radix_prefix_order(buf: &[u8]) -> Vec<u32> {
    let records = records_of(buf);
    let entries = PrefixEntry::extract(records);
    let less = |x: &PrefixEntry, y: &PrefixEntry| prefix_entry_less(records, x, y);
    let mut counts = [0usize; 256];
    for e in &entries {
        counts[(e.prefix >> 56) as usize] += 1;
    }
    let mut starts = [0usize; 256];
    let mut acc = 0usize;
    for b in 0..256 {
        starts[b] = acc;
        acc += counts[b];
    }
    let mut bucketed = vec![PrefixEntry { prefix: 0, idx: 0 }; entries.len()];
    let mut cursor = starts;
    for e in entries {
        let b = (e.prefix >> 56) as usize;
        bucketed[cursor[b]] = e;
        cursor[b] += 1;
    }
    for b in 0..256 {
        let (s, e) = (starts[b], starts[b] + counts[b]);
        if e - s > 1 {
            quicksort_by(&mut bucketed[s..e], less);
        }
    }
    bucketed.into_iter().map(|e| e.idx).collect()
}

/// Baer & Lin codeword sort: 8-byte (u32 codeword, u32 index) entries —
/// densest packing, most ties.
pub fn codeword_order(buf: &[u8]) -> Vec<u32> {
    let records = records_of(buf);
    let mut entries = crate::entry::CodewordEntry::extract(records);
    quicksort_by(&mut entries, |a, b| {
        if a.code != b.code {
            a.code < b.code
        } else {
            (&records[a.idx as usize].key, a.idx) < (&records[b.idx as usize].key, b.idx)
        }
    });
    entries.into_iter().map(|e| e.idx).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use alphasort_dmgen::{generate, GenConfig, KeyDistribution};

    fn dataset(n: u64, dist: KeyDistribution) -> Vec<u8> {
        generate(GenConfig {
            records: n,
            seed: 0xA1FA,
            dist,
        })
        .0
    }

    fn assert_run_sorted(run: &SortedRun, n: usize) {
        assert_eq!(run.len(), n);
        for p in 1..run.len() {
            assert!(
                run.record_at(p - 1).key <= run.record_at(p).key,
                "out of order at {p}"
            );
        }
    }

    #[test]
    fn all_representations_sort_random_input() {
        let data = dataset(2_000, KeyDistribution::Random);
        for rep in Representation::ALL {
            let run = form_run(data.clone(), rep);
            assert_run_sorted(&run, 2_000);
        }
    }

    #[test]
    fn all_representations_agree_on_order() {
        let data = dataset(500, KeyDistribution::Random);
        let reference: Vec<[u8; 10]> = form_run(data.clone(), Representation::Record)
            .iter_sorted()
            .map(|r| r.key)
            .collect();
        for rep in [
            Representation::Pointer,
            Representation::Key,
            Representation::KeyPrefix,
        ] {
            let run = form_run(data.clone(), rep);
            let keys: Vec<[u8; 10]> = run.iter_sorted().map(|r| r.key).collect();
            assert_eq!(keys, reference, "{} disagrees", rep.name());
        }
    }

    #[test]
    fn key_prefix_handles_common_prefix_degeneracy() {
        // All prefixes equal: every compare falls through to the full key.
        let data = dataset(1_000, KeyDistribution::CommonPrefix { shared: 8 });
        let run = form_run(data, Representation::KeyPrefix);
        assert_run_sorted(&run, 1_000);
    }

    #[test]
    fn duplicate_heavy_input_sorts() {
        let data = dataset(1_500, KeyDistribution::DupHeavy { cardinality: 7 });
        for rep in Representation::ALL {
            let run = form_run(data.clone(), rep);
            assert_run_sorted(&run, 1_500);
        }
    }

    #[test]
    fn presorted_and_reverse_inputs() {
        for dist in [KeyDistribution::Sorted, KeyDistribution::Reverse] {
            let data = dataset(1_000, dist);
            let run = form_run(data, Representation::KeyPrefix);
            assert_run_sorted(&run, 1_000);
        }
    }

    #[test]
    fn empty_run() {
        let run = form_run(Vec::new(), Representation::KeyPrefix);
        assert!(run.is_empty());
        assert_eq!(run.iter_sorted().count(), 0);
    }

    #[test]
    fn record_sort_buffer_is_physically_sorted() {
        let data = dataset(300, KeyDistribution::Random);
        let run = form_run(data, Representation::Record);
        let recs = run.records();
        assert!(recs.windows(2).all(|w| w[0].key <= w[1].key));
    }

    #[test]
    fn permutation_is_preserved() {
        let data = dataset(800, KeyDistribution::Random);
        let mut rc_in = alphasort_dmgen::RunningChecksum::new();
        rc_in.update_bytes(&data);
        for rep in Representation::ALL {
            let run = form_run(data.clone(), rep);
            let mut rc_out = alphasort_dmgen::RunningChecksum::new();
            for p in 0..run.len() {
                rc_out.update(run.record_at(p));
            }
            assert_eq!(rc_out.finish(), rc_in.finish(), "{}", rep.name());
        }
    }
}
