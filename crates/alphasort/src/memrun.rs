//! What the in-memory pipeline needs from a record layout.
//!
//! AlphaSort's one-pass pipeline (§4–§5) does not depend on the record
//! format: workers QuickSort *(key-prefix, pointer)* runs, the root drives
//! one tournament over them and hands gather chores back to the workers.
//! A layout decides just three things, and [`MemRun`] is where it decides
//! them:
//!
//! * how input chunks are cut into run buffers ([`RunCutter`]: a fixed
//!   stride, or length-prefixed frames cut by record count);
//! * how a buffer becomes a sorted run ([`MemRun::form`]);
//! * which tournament the root drives over the runs ([`MemRun::merger`]) and
//!   which bytes the gather copies ([`MemRun::frame`]).
//!
//! [`SortedRun`] is the Datamation layout, [`VarRun`] the var-len one. The
//! read loop, the worker pools, the partitioned-merge plan and the stats
//! epilogue in [`crate::driver::one_pass`] are shared.

use std::io;

use alphasort_dmgen::{KEY_LEN, RECORD_LEN};

use crate::entry::checked_run_len;
use crate::merge::{MergedPtr, RunMerger};
use crate::runform::{form_run, Representation, SortedRun};
use crate::varlen::{MergeMode, VarFramer, VarRun, VarRunMerger};

/// A sorted in-memory run of one record layout.
pub trait MemRun: Sized + Send + Sync + 'static {
    /// A key as the partition planner samples and compares it.
    type Key: Ord + Clone + Default;
    /// The tournament over a set of these runs.
    type Merger<'a>: Iterator<Item = MergedPtr>;
    /// Bytes per record when every record has the same size (output
    /// buffers are pre-sized by it), 0 when records are ragged.
    const STRIDE: usize;

    /// The cutter that turns input chunks into runs of `run_records`.
    fn cutter(run_records: usize) -> RunCutter;
    /// Sort one run buffer of whole records.
    fn form(buf: Vec<u8>, rep: Representation) -> io::Result<Self>;
    /// Records in the run.
    fn run_len(&self) -> usize;
    /// Key of the record at sorted position `pos`.
    fn sample_key(&self, pos: usize) -> Self::Key;
    /// Bytes of the record at sorted position `pos`.
    fn frame(&self, pos: usize) -> &[u8];
    /// Merge `bounds[r] = [start, end)` of each run's sorted order. Equal
    /// keys tie-break by run index, so range merges concatenate to the
    /// full merge.
    fn merger<'a>(runs: &'a [Self], bounds: &[(u32, u32)]) -> Self::Merger<'a>;
}

/// Bounds covering every record of every run.
pub(crate) fn full_bounds<R: MemRun>(runs: &[R]) -> Vec<(u32, u32)> {
    runs.iter()
        .map(|r| (0, checked_run_len(r.run_len(), "merge run")))
        .collect()
}

impl MemRun for SortedRun {
    type Key = [u8; KEY_LEN];
    type Merger<'a> = RunMerger<'a>;
    const STRIDE: usize = RECORD_LEN;

    fn cutter(run_records: usize) -> RunCutter {
        RunCutter::Stride {
            run_bytes: run_records * RECORD_LEN,
            cur: Vec::with_capacity(run_records * RECORD_LEN),
        }
    }

    fn form(buf: Vec<u8>, rep: Representation) -> io::Result<Self> {
        Ok(form_run(buf, rep))
    }

    fn run_len(&self) -> usize {
        self.len()
    }

    fn sample_key(&self, pos: usize) -> Self::Key {
        self.record_at(pos).key
    }

    #[inline]
    fn frame(&self, pos: usize) -> &[u8] {
        self.record_at(pos).as_bytes()
    }

    fn merger<'a>(runs: &'a [Self], bounds: &[(u32, u32)]) -> RunMerger<'a> {
        RunMerger::with_bounds(runs, bounds)
    }
}

impl MemRun for VarRun {
    type Key = Vec<u8>;
    type Merger<'a> = VarRunMerger<'a>;
    const STRIDE: usize = 0;

    fn cutter(run_records: usize) -> RunCutter {
        RunCutter::Frames {
            framer: VarFramer::new(),
            run_records,
            cur: Vec::new(),
            records: 0,
        }
    }

    /// Var-len runs always sort *(key-prefix, index)* entries; `rep` picks
    /// among the Datamation representations only.
    fn form(buf: Vec<u8>, _rep: Representation) -> io::Result<Self> {
        VarRun::from_frames(buf)
    }

    fn run_len(&self) -> usize {
        self.len()
    }

    fn sample_key(&self, pos: usize) -> Self::Key {
        self.key_at(pos).to_vec()
    }

    #[inline]
    fn frame(&self, pos: usize) -> &[u8] {
        self.frame_at(pos)
    }

    fn merger<'a>(runs: &'a [Self], bounds: &[(u32, u32)]) -> VarRunMerger<'a> {
        VarRunMerger::with_bounds(runs.iter().collect(), bounds, MergeMode::Ovc)
    }
}

/// Cuts the input stream into run buffers of whole records.
pub enum RunCutter {
    /// Fixed-size records: every run is `run_bytes` long.
    Stride {
        /// Bytes per full run.
        run_bytes: usize,
        /// The run being filled.
        cur: Vec<u8>,
    },
    /// Length-prefixed frames, reassembled across chunks and cut every
    /// `run_records` records.
    Frames {
        /// Frame reassembly (and truncation/corruption attribution).
        framer: VarFramer,
        /// Records per full run.
        run_records: usize,
        /// The run being filled.
        cur: Vec<u8>,
        /// Records in `cur`.
        records: usize,
    },
}

impl RunCutter {
    /// Feed one input chunk; `emit` receives every run it completes.
    pub fn push(&mut self, chunk: &[u8], mut emit: impl FnMut(Vec<u8>)) -> io::Result<()> {
        match self {
            RunCutter::Stride { run_bytes, cur } => {
                let mut off = 0;
                while off < chunk.len() {
                    let take = (*run_bytes - cur.len()).min(chunk.len() - off);
                    cur.extend_from_slice(&chunk[off..off + take]);
                    off += take;
                    if cur.len() == *run_bytes {
                        emit(std::mem::replace(cur, Vec::with_capacity(*run_bytes)));
                    }
                }
                Ok(())
            }
            RunCutter::Frames {
                framer,
                run_records,
                cur,
                records,
            } => framer.push(chunk, |frame: &[u8]| {
                cur.extend_from_slice(frame);
                *records += 1;
                if *records == *run_records {
                    emit(std::mem::take(cur));
                    *records = 0;
                }
                Ok::<(), io::Error>(())
            }),
        }
    }

    /// End of input: the last, partial run (if any). Input that ends
    /// inside a record is an attributed `InvalidData` error.
    pub fn finish(self) -> io::Result<Option<Vec<u8>>> {
        let cur = match self {
            RunCutter::Stride { cur, .. } => {
                if !cur.len().is_multiple_of(RECORD_LEN) {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "input ends mid-record ({} trailing bytes)",
                            cur.len() % RECORD_LEN
                        ),
                    ));
                }
                cur
            }
            RunCutter::Frames { framer, cur, .. } => {
                framer.finish()?;
                cur
            }
        };
        Ok((!cur.is_empty()).then_some(cur))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alphasort_dmgen::{generate, generate_varlen, GenConfig, TextCorpus, VarGenConfig};

    fn cut(mut cutter: RunCutter, data: &[u8], chunk: usize) -> io::Result<Vec<Vec<u8>>> {
        let mut runs = Vec::new();
        for c in data.chunks(chunk) {
            cutter.push(c, |r| runs.push(r))?;
        }
        runs.extend(cutter.finish()?);
        Ok(runs)
    }

    #[test]
    fn frame_cutter_cuts_by_record_count() {
        let data = generate_varlen(VarGenConfig {
            records: 250,
            seed: 5,
            corpus: TextCorpus::Urls,
        });
        let runs = cut(VarRun::cutter(100), &data, 13).unwrap();
        let lens: Vec<usize> = runs
            .into_iter()
            .map(|r| VarRun::from_frames(r).unwrap().len())
            .collect();
        assert_eq!(lens, [100, 100, 50]);
    }

    #[test]
    fn both_cutters_attribute_a_truncated_tail() {
        let (data, _) = generate(GenConfig::datamation(10, 4));
        let err = cut(SortedRun::cutter(4), &data[..data.len() - 1], 64).unwrap_err();
        assert!(err.to_string().contains("input ends mid-record"), "{err}");
        let data = generate_varlen(VarGenConfig {
            records: 10,
            seed: 6,
            corpus: TextCorpus::LogLines,
        });
        let err = cut(VarRun::cutter(4), &data[..data.len() - 1], 64).unwrap_err();
        assert!(err.to_string().contains("input ends mid-record"), "{err}");
    }
}
