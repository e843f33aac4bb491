//! External-sort drivers: one-pass, two-pass, and the facade that picks.
//!
//! §6 frames the choice: "A two-pass sort uses less memory, but uses twice
//! the disk bandwidth. … In particular, the Datamation sort benchmark should
//! be done in one pass." [`ExternalSorter`] consults the [`Planner`] and
//! dispatches to [`one_pass`] or [`two_pass`].

mod onepass;
mod scratch;
mod twopass;

pub use onepass::one_pass;
pub use scratch::{
    BufferedRunStream, MemScratch, RecoveredRun, ResumeReport, ScratchStore, StripeScratch,
};
pub use twopass::two_pass;

use std::io;
use std::time::Instant;

use alphasort_obs as obs;

use crate::entry::RecordLayout;
use crate::io::{RecordSink, RecordSource};
use crate::planner::{PassPlan, Planner};
use crate::runform::Representation;
use crate::stats::{timed_phase, SortStats};

/// Tuning knobs for a sort run.
#[derive(Clone, Debug)]
pub struct SortConfig {
    /// Records per QuickSort run (the paper uses 100,000 for 1 M records:
    /// "between ten and one hundred runs" in a one-pass sort).
    pub run_records: usize,
    /// Sort-array representation for run formation.
    pub representation: Representation,
    /// Worker threads for sort and gather chores (0 = uniprocessor).
    pub workers: usize,
    /// Records per gather batch / output buffer.
    pub gather_batch: usize,
    /// Memory budget in bytes for the planner (one- vs two-pass decision).
    pub memory_budget: u64,
    /// Maximum merge fan-in for the two-pass driver. When a sort produces
    /// more runs than this, intermediate *cascade* merge passes combine
    /// groups of `max_fanin` runs until one final merge fits (classic
    /// external sorting; beyond the paper's one/two-pass regime but needed
    /// once inputs are thousands of times memory).
    pub max_fanin: usize,
    /// Key ranges for the partitioned parallel merge (0 = the classic
    /// serial tournament). With `P > 0` the final merge is cut into `P`
    /// disjoint key ranges by sampled splitters and each range merges
    /// independently — output stays byte-identical to the serial merge.
    pub merge_workers: usize,
    /// Record model the sort operates on (see [`RecordLayout`]). The
    /// layout only moves CPU time: for a given layout every
    /// configuration produces byte-identical output. [`one_pass`] sorts
    /// both layouts (`VarLen` runs merge on LCP/OVC codes, see
    /// [`crate::varlen`]); [`two_pass`] takes `Datamation` only.
    pub layout: RecordLayout,
}

impl Default for SortConfig {
    fn default() -> Self {
        SortConfig {
            run_records: 100_000,
            representation: Representation::KeyPrefix,
            workers: 0,
            gather_batch: 10_000,
            memory_budget: 256 << 20,
            max_fanin: 128,
            merge_workers: 0,
            layout: RecordLayout::Datamation,
        }
    }
}

/// Result of a sort: where the time went plus total bytes written.
#[derive(Clone, Debug)]
pub struct SortOutcome {
    /// Phase breakdown and counters.
    pub stats: SortStats,
    /// Logical bytes written to the output sink.
    pub bytes: u64,
    /// The plan that was executed.
    pub plan: PassPlan,
}

/// Both drivers' epilogue: flush the sink, stop the clock, and publish the
/// record and byte counts as metrics and as attributes of the driver's
/// top-level span.
fn finish(
    sink: &mut impl RecordSink,
    mut stats: SortStats,
    top: &mut obs::SpanGuard,
    t_start: Instant,
    plan: PassPlan,
) -> io::Result<SortOutcome> {
    let bytes = timed_phase(obs::phase::WRITE, &mut stats.write_wait, || sink.complete())?;
    stats.elapsed = t_start.elapsed();
    obs::metrics::counter_add("sort.records", stats.records);
    obs::metrics::counter_add("sort.bytes", stats.bytes_sorted);
    top.attr("records", stats.records);
    top.attr("bytes", stats.bytes_sorted);
    Ok(SortOutcome { stats, bytes, plan })
}

/// Facade: plan (one- vs two-pass) and run the sort.
pub struct ExternalSorter {
    cfg: SortConfig,
}

impl ExternalSorter {
    /// Sorter with the given configuration.
    pub fn new(cfg: SortConfig) -> Self {
        ExternalSorter { cfg }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SortConfig {
        &self.cfg
    }

    /// Sort `source` into `sink`, spilling to `scratch` if the input does
    /// not fit the memory budget. Sources without a size hint are assumed
    /// not to fit (conservative: two-pass always works). Var-len input
    /// always sorts in memory, whatever the plan, since scratch stores hold
    /// fixed-size records only; the outcome reports
    /// [`PassPlan::OnePass`], the plan that ran.
    pub fn sort<Src, Snk, Scr>(
        &self,
        source: &mut Src,
        sink: &mut Snk,
        scratch: &mut Scr,
    ) -> io::Result<SortOutcome>
    where
        Src: RecordSource,
        Snk: RecordSink,
        Scr: ScratchStore,
    {
        let planner = Planner::new(self.cfg.memory_budget);
        let plan = match source.size_hint() {
            // Var-len runs cannot spill: scratch stores hold fixed-size
            // records only.
            _ if self.cfg.layout == RecordLayout::VarLen => PassPlan::OnePass,
            Some(bytes) => planner.plan(bytes),
            None => PassPlan::TwoPass,
        };
        match plan {
            PassPlan::OnePass => one_pass(source, sink, &self.cfg),
            PassPlan::TwoPass => two_pass(source, sink, scratch, &self.cfg),
        }
    }
}
