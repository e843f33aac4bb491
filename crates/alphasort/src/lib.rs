//! AlphaSort: a cache-conscious external sort (SIGMOD 1994).
//!
//! The paper's central observation is that on RISC processors "reducing
//! cache misses has replaced reducing instructions as the most important
//! processor optimization". AlphaSort therefore:
//!
//! 1. QuickSorts *(key-prefix, pointer)* pairs instead of records or bare
//!    pointers, keeping the inner loop inside the on-chip cache (§4) —
//!    [`runform`] implements all four representations so the paper's 3:1
//!    CPU comparisons can be measured;
//! 2. generates runs with QuickSort as record groups arrive from disk,
//!    overlapping sort with input (§7), rather than with
//!    replacement-selection ([`rs`] implements the replacement-selection
//!    baseline, the OpenVMS-sort approach);
//! 3. merges the QuickSorted runs with a small, cache-resident tournament
//!    tree ([`merge`]) and *gathers* each record exactly once into the
//!    output buffers ([`gather`]);
//! 4. runs one-pass when memory allows and two-pass otherwise
//!    ([`driver`], [`planner`]), striping both input and output;
//! 5. on multiprocessors, splits QuickSort and gather work into chores for
//!    worker threads while the root does all IO ([`parallel`]).
//!
//! The one-pass pipeline does not depend on the record format: it is
//! generic over [`memrun::MemRun`], which fixed 100-byte Datamation runs
//! ([`SortedRun`]) and length-prefixed string-key runs
//! ([`varlen::VarRun`], merged on offset-value codes) both implement.
//! Var-len sorts run in memory; the two-pass driver's scratch stores hold
//! fixed-size records only.
//!
//! Extensions the paper discusses but does not adopt are in [`ovc`]
//! (offset-value coding, the DFsort/SyncSort technique), [`partition`]
//! (the 256-bucket distributive sort "that might beat AlphaSort"), the
//! Baer & Lin codeword representation ([`runform::Representation::Codeword`]),
//! and [`condition`] (key conditioning for floats, signed integers and
//! non-standard collations). [`baseline`] implements the shared-nothing
//! partitioned sort AlphaSort displaced (§2's Hypercube design), and
//! [`io_file`] + the `sortcli`/`gensort`/`valsort` binaries are the
//! "street-legal" productized face (§8's Daytona category).
//!
//! ```
//! use alphasort_core::driver::one_pass;
//! use alphasort_core::io::{MemSink, MemSource};
//! use alphasort_core::SortConfig;
//! use alphasort_dmgen::{generate, validate_records, GenConfig};
//!
//! let (input, checksum) = generate(GenConfig::datamation(10_000, 42));
//! let mut source = MemSource::new(input, 64 * 1024);
//! let mut sink = MemSink::new();
//! let cfg = SortConfig { run_records: 2_000, workers: 2, ..Default::default() };
//!
//! let outcome = one_pass(&mut source, &mut sink, &cfg)?;
//! assert_eq!(outcome.stats.records, 10_000);
//! assert_eq!(outcome.stats.runs, 5);
//! validate_records(sink.data(), checksum).expect("sorted permutation");
//! # Ok::<(), std::io::Error>(())
//! ```

pub mod baseline;
pub mod condition;
pub mod driver;
pub mod entry;
pub mod gather;
pub mod io;
pub mod io_file;
pub mod kernel;
pub mod memrun;
pub mod merge;
pub mod mergeplan;
pub mod ovc;
pub mod parallel;
pub mod partition;
pub mod planner;
pub mod pmerge;
pub mod rs;
pub mod runform;
pub mod splitter;
pub mod stats;
pub mod varlen;

pub use driver::{ExternalSorter, SortConfig, SortOutcome};
pub use entry::{key_prefix_u64, CodewordEntry, KeyEntry, PrefixEntry, RecordLayout};
pub use io::{MemSink, MemSource, RecordSink, RecordSource};
pub use planner::{PassPlan, Planner};
pub use runform::{Representation, SortedRun};
pub use stats::SortStats;
