//! The gather step: copy records into output buffers, exactly once.
//!
//! "The record pointers emerging from the tree are used to gather (copy)
//! records from where they were read into memory to output buffers. Records
//! are only copied this one time." (§4). The paper notes this is the
//! memory-hungry part: the source records are touched in pseudo-random
//! order, so "the gathering has terrible cache and TLB behavior" and "more
//! time is spent gathering the records than is consumed in creating,
//! sorting and merging the key-prefix/pointer pairs."

use alphasort_dmgen::RECORD_LEN;

use crate::memrun::MemRun;
use crate::merge::{MergedPtr, RunMerger};
use crate::runform::SortedRun;

/// Copy the records named by `ptrs` (in order) onto the end of `out`.
pub fn gather_into<R: MemRun>(runs: &[R], ptrs: &[MergedPtr], out: &mut Vec<u8>) {
    out.reserve(ptrs.len() * R::STRIDE);
    for p in ptrs {
        out.extend_from_slice(runs[p.run as usize].frame(p.pos as usize));
    }
}

/// Drive a full merge+gather of `runs` into one contiguous output buffer.
pub fn merge_gather_all(runs: &[SortedRun]) -> Vec<u8> {
    let total: usize = runs.iter().map(|r| r.len()).sum();
    let mut out = Vec::with_capacity(total * RECORD_LEN);
    for p in RunMerger::new(runs) {
        let rec = runs[p.run as usize].record_at(p.pos as usize);
        out.extend_from_slice(rec.as_bytes());
    }
    out
}

/// Pull up to `n` pointers from a merger — the root's unit of work when it
/// hands gather chores to workers buffer by buffer.
pub fn take_ptrs(merger: &mut impl Iterator<Item = MergedPtr>, n: usize) -> Vec<MergedPtr> {
    let mut v = Vec::with_capacity(n.min(merger.size_hint().0));
    v.extend(merger.take(n));
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runform::{form_run, Representation};
    use alphasort_dmgen::{generate, validate_records, GenConfig};

    fn runs_for(n: u64, run_records: usize) -> (alphasort_dmgen::Checksum, Vec<SortedRun>) {
        let (data, cs) = generate(GenConfig::datamation(n, 31));
        let runs = data
            .chunks(run_records * RECORD_LEN)
            .map(|c| form_run(c.to_vec(), Representation::KeyPrefix))
            .collect();
        (cs, runs)
    }

    #[test]
    fn merge_gather_produces_valid_sorted_permutation() {
        let (cs, runs) = runs_for(2_500, 300);
        let out = merge_gather_all(&runs);
        let report = validate_records(&out, cs).unwrap();
        assert_eq!(report.records, 2_500);
    }

    #[test]
    fn chunked_gather_equals_whole_gather() {
        let (_, runs) = runs_for(1_000, 128);
        let whole = merge_gather_all(&runs);

        let mut merger = RunMerger::new(&runs);
        let mut chunked = Vec::new();
        loop {
            let ptrs = take_ptrs(&mut merger, 77);
            if ptrs.is_empty() {
                break;
            }
            gather_into(&runs, &ptrs, &mut chunked);
        }
        assert_eq!(chunked, whole);
    }

    #[test]
    fn gather_from_record_sorted_runs() {
        let (data, cs) = generate(GenConfig::datamation(900, 32));
        let runs: Vec<SortedRun> = data
            .chunks(200 * RECORD_LEN)
            .map(|c| form_run(c.to_vec(), Representation::Record))
            .collect();
        let out = merge_gather_all(&runs);
        validate_records(&out, cs).unwrap();
    }
}
