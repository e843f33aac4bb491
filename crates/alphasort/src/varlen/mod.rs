//! Variable-length records with string keys — the second [`crate::RecordLayout`].
//!
//! The paper sorts fixed 100-byte Datamation records; real sort inputs
//! (URLs, log lines, words) are ragged. This module generalizes the
//! AlphaSort pipeline to length-prefixed records with (offset, length) key
//! descriptors, keeping the paper's cache discipline:
//!
//! * **Run formation** ([`vrun`]) still sorts *(key-prefix, pointer)*
//!   entries — the prefix is the first 8 key bytes zero-padded
//!   ([`crate::entry::key_prefix_u64`]), order-faithful where prefixes
//!   differ, with the full-key overflow path on ties. Formation also
//!   precomputes each run's `lcp_prev` table (LCP of neighbouring sorted
//!   keys), which the merge reuses.
//! * **Merging** ([`vmerge`]) threads offset-value codes through the loser
//!   tree: tree replays resolve on offsets alone where they differ and
//!   compare only key *suffixes* where they tie, so shared prefixes are
//!   never rescanned. [`MergeEffort`](crate::ovc::MergeEffort) counts key
//!   bytes touched; `perfbench`'s `str-urls` workload reports them
//!   (`varlen.ovc_key_bytes`).
//! * **Driver**: none of its own. [`VarRun`] implements
//!   [`crate::memrun::MemRun`], so [`crate::driver::one_pass`] runs var-len
//!   input through the same pipeline as Datamation: run formation that
//!   overlaps input on the sort workers, the OVC tournament on the root,
//!   gather chores on the workers, and the splitter-partitioned merge
//!   (byte-identical to the serial one). Var-len sorts run in memory:
//!   [`crate::driver::two_pass`] rejects them, because the scratch stores
//!   assume fixed-size records.
//!
//! Layout choice moves CPU time only: for a given input every worker
//! count and merge mode produces byte-identical output, pinned by the
//! differential oracle.

pub mod vmerge;
pub mod vrun;

pub use vmerge::{MergeMode, VarRunMerger};
pub use vrun::{lcp, VarFramer, VarRun};
