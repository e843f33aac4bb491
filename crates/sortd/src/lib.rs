//! sortd: sort-as-a-service on top of the AlphaSort pipeline.
//!
//! A long-running daemon that accepts concurrent sort jobs over TCP,
//! reusing netsort's checksummed [`Frame`](alphasort_netsort::Frame)
//! transport. Each job arrives as a *manifest* — input size plus memory
//! and scratch budgets — and is carved out of one global resource
//! [`pool`]. When the pool is exhausted, jobs wait in a FIFO queue with
//! **aging** (deterministic bypass counting, not clocks) so small jobs can
//! backfill around a big one without starving it; past the queue bound the
//! daemon sheds load with a typed, retryable `backpressure` error.
//!
//! Module map:
//! * [`job`] — manifests, job states, the typed error vocabulary,
//! * [`pool`] — budget accounting (reserve/release, high-water marks),
//! * [`admission`] — the FIFO-with-aging state machine,
//! * [`proto`] — the ctrl/payload channel convention over netsort frames,
//! * [`executor`] — per-job runs through the one-/two-pass drivers,
//! * [`journal`] — write-ahead job journal for crash recovery,
//! * [`server`] — accept loop, dispatch, watchdog, graceful drain,
//! * [`client`] — a blocking client with honest retry typing,
//! * [`telemetry`] — always-on uptime + per-job latency histograms.

pub mod admission;
pub mod client;
pub mod executor;
pub mod job;
pub mod journal;
pub mod pool;
pub mod proto;
pub mod server;
pub mod telemetry;

pub use admission::{Admission, AdmissionConfig, Offer};
pub use client::{Client, ClientError, RetryPolicy, SubmitResult};
pub use executor::{CancelReason, CancelToken, ScratchBacking};
pub use job::{JobSpec, JobState, SortdError, MAX_MERGE_WORKERS, MIN_JOB_MEM};
pub use journal::{Journal, JournalRecord, Replay};
pub use pool::{Pool, PoolConfig};
pub use server::{Sortd, SortdConfig};
pub use telemetry::Telemetry;
