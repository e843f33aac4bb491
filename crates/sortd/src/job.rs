//! Job manifests, states, and the service's typed errors.
//!
//! A *job manifest* is what a client submits: a name, the input size, and
//! the memory/scratch budgets the job wants carved out of the daemon's
//! [`pool`](crate::pool). The daemon validates the manifest against the
//! pool's totals *before* admission — a job that could never fit is
//! rejected immediately with a non-retryable error instead of queueing
//! forever — and against the plan the budgets imply (a two-pass job whose
//! scratch budget cannot hold its runs is equally hopeless).

use alphasort_core::{PassPlan, Planner, RecordLayout};
use alphasort_dmgen::RECORD_LEN;
use alphasort_minijson::Json;

/// Smallest admissible memory budget: enough for one modest run buffer
/// plus entry arrays. Requests below this are rejected as too small.
pub const MIN_JOB_MEM: u64 = 64 * 1024;

/// Largest admissible `merge_workers`. Each merge worker is a thread (and,
/// in a two-pass merge, one open source per run), so an unbounded wire
/// value would let one manifest exhaust the daemon's threads.
pub const MAX_MERGE_WORKERS: usize = 64;

/// Values of the `kernel` field that manifests and journal records written
/// by earlier daemons carry. Every named variant sorted to identical bytes
/// and run formation now has one path, so the field is accepted and
/// ignored; any other value is still a manifest error.
const LEGACY_KERNEL_NAMES: [&str; 4] = ["scalar", "branchless-tree", "radix", "simd"];

/// What a client asks for: input size plus resource budgets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobSpec {
    /// Client-chosen label (shows up in status and per-job obs tracks).
    pub name: String,
    /// Exact byte length of the input the client will stream.
    pub input_bytes: u64,
    /// Memory budget in bytes, carved from the pool while the job runs.
    pub mem_budget: u64,
    /// Scratch budget in bytes (two-pass spill space); may be 0 for jobs
    /// small enough to sort in one pass under `mem_budget`.
    pub scratch_budget: u64,
    /// Key ranges for the partitioned parallel merge (0 = serial, at most
    /// [`MAX_MERGE_WORKERS`]).
    pub merge_workers: usize,
    /// Record model (see `alphasort_core::entry::RecordLayout`). Optional
    /// on the wire; absent means fixed Datamation records, so old clients
    /// keep working unchanged. `varlen` streams length-prefixed frames with
    /// string keys through the LCP/OVC-aware pipeline, always in memory
    /// (scratch runs hold fixed-size records), whatever [`JobSpec::plan`]
    /// says.
    pub layout: RecordLayout,
    /// Client-supplied idempotency key. Optional on the wire. With a
    /// journaling daemon, re-submitting the same key never executes twice:
    /// a key whose job already reached a terminal state is answered with
    /// that state (at-most-once), and a key interrupted by a daemon kill
    /// resumes from its surviving scratch runs. Keys starting with `anon-`
    /// are reserved for the daemon's own synthetic keys.
    pub idem_key: Option<String>,
    /// Wall-clock deadline in milliseconds, measured from acceptance
    /// (queue wait counts). 0 — and absence on the wire — means unlimited;
    /// past the deadline the daemon's watchdog cancels the job with the
    /// non-retryable `deadline_exceeded` code.
    pub deadline_ms: u64,
}

impl Default for JobSpec {
    fn default() -> Self {
        JobSpec {
            name: String::new(),
            input_bytes: 0,
            mem_budget: 0,
            scratch_budget: 0,
            merge_workers: 0,
            layout: RecordLayout::Datamation,
            idem_key: None,
            deadline_ms: 0,
        }
    }
}

impl JobSpec {
    /// Render for the submit frame.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("type".into(), Json::from("submit")),
            ("name".into(), Json::from(self.name.as_str())),
            ("input_bytes".into(), Json::from(self.input_bytes)),
            ("mem_budget".into(), Json::from(self.mem_budget)),
            ("scratch_budget".into(), Json::from(self.scratch_budget)),
            ("merge_workers".into(), Json::from(self.merge_workers as u64)),
        ];
        if self.layout != RecordLayout::Datamation {
            fields.push(("layout".into(), Json::from(self.layout.name())));
        }
        if let Some(key) = &self.idem_key {
            fields.push(("idem_key".into(), Json::from(key.as_str())));
        }
        if self.deadline_ms > 0 {
            fields.push(("deadline_ms".into(), Json::from(self.deadline_ms)));
        }
        Json::Obj(fields)
    }

    /// Parse from a submit frame. `layout` is optional (default
    /// `datamation`); an *unknown* layout name is a manifest error, not a
    /// silent default — the client asked for something this daemon does
    /// not register. `idem_key` and `deadline_ms` are equally optional, so
    /// pre-journal clients keep working unchanged. A legacy `kernel` field
    /// naming one of the old variants is ignored; any other value is
    /// rejected.
    pub fn from_json(doc: &Json) -> Result<JobSpec, String> {
        if let Some(v) = doc.get("kernel") {
            let name = v.as_str().ok_or("kernel: expected a string")?;
            if !LEGACY_KERNEL_NAMES.contains(&name) {
                return Err(format!("unknown kernel {name:?}"));
            }
        }
        let layout = match doc.get("layout") {
            None => RecordLayout::Datamation,
            Some(v) => {
                let name = v.as_str().ok_or("layout: expected a string")?;
                RecordLayout::from_name(name).ok_or_else(|| format!("unknown layout {name:?}"))?
            }
        };
        let idem_key = match doc.get("idem_key") {
            None => None,
            Some(v) => Some(
                v.as_str()
                    .ok_or("idem_key: expected a string")?
                    .to_string(),
            ),
        };
        Ok(JobSpec {
            name: doc.field_str("name").map_err(|e| e.to_string())?.to_string(),
            input_bytes: doc.field_u64("input_bytes").map_err(|e| e.to_string())?,
            mem_budget: doc.field_u64("mem_budget").map_err(|e| e.to_string())?,
            scratch_budget: doc.field_u64("scratch_budget").map_err(|e| e.to_string())?,
            merge_workers: doc.field_u64("merge_workers").map_err(|e| e.to_string())? as usize,
            layout,
            idem_key,
            deadline_ms: match doc.get("deadline_ms") {
                None => 0,
                Some(v) => v.as_u64().ok_or("deadline_ms: expected an integer")?,
            },
        })
    }

    /// The pass plan this spec's budgets imply.
    pub fn plan(&self) -> PassPlan {
        Planner::new(self.mem_budget).plan(self.input_bytes)
    }

    /// Reject manifests that could never run: malformed input length,
    /// budgets below the floor, budgets above the pool's *total* capacity
    /// (would queue forever), a two-pass plan whose scratch budget cannot
    /// hold the spilled runs, or more merge workers than
    /// [`MAX_MERGE_WORKERS`].
    pub fn validate(&self, pool_mem_total: u64, pool_scratch_total: u64) -> Result<(), SortdError> {
        if self.input_bytes == 0 {
            return Err(SortdError::BadManifest(
                "input_bytes must be positive".into(),
            ));
        }
        // Only the fixed layout has a stride to check up front; var-len
        // framing is validated during the read, record by record.
        if self.layout == RecordLayout::Datamation
            && !self.input_bytes.is_multiple_of(RECORD_LEN as u64)
        {
            return Err(SortdError::BadManifest(format!(
                "input_bytes {} is not a positive multiple of the {RECORD_LEN}-byte record",
                self.input_bytes
            )));
        }
        if self.merge_workers > MAX_MERGE_WORKERS {
            return Err(SortdError::BadManifest(format!(
                "merge_workers {} exceeds the limit of {MAX_MERGE_WORKERS}",
                self.merge_workers
            )));
        }
        if self.mem_budget < MIN_JOB_MEM {
            return Err(SortdError::BudgetTooSmall {
                what: "memory",
                asked: self.mem_budget,
                need: MIN_JOB_MEM,
            });
        }
        if self.mem_budget > pool_mem_total {
            return Err(SortdError::BudgetTooLarge {
                what: "memory",
                asked: self.mem_budget,
                total: pool_mem_total,
            });
        }
        if self.scratch_budget > pool_scratch_total {
            return Err(SortdError::BudgetTooLarge {
                what: "scratch",
                asked: self.scratch_budget,
                total: pool_scratch_total,
            });
        }
        if self.plan() == PassPlan::TwoPass && self.scratch_budget < self.input_bytes {
            return Err(SortdError::BudgetTooSmall {
                what: "scratch",
                asked: self.scratch_budget,
                need: self.input_bytes,
            });
        }
        if let Some(key) = &self.idem_key {
            if key.is_empty() {
                return Err(SortdError::BadManifest("idem_key must not be empty".into()));
            }
            if key.starts_with("anon-") {
                return Err(SortdError::BadManifest(
                    "idem_key prefix `anon-` is reserved for the daemon's synthetic keys".into(),
                ));
            }
        }
        Ok(())
    }
}

/// Where a job is in its lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Waiting behind the pool in the admission queue.
    Queued,
    /// Budget reserved; the sort is executing.
    Running,
    /// Finished; output was streamed back.
    Done,
    /// Failed (execution error, or failed retryably at drain).
    Failed,
    /// Canceled by the client before completion.
    Canceled,
}

impl JobState {
    /// Wire name.
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Canceled => "canceled",
        }
    }
}

/// The service's typed errors: every rejection and failure a client can
/// see carries a machine-readable `code` and a `retryable` bit, so a fleet
/// can tell backpressure (come back later) from hopeless manifests.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SortdError {
    /// Admission queue is at its bound — the typed backpressure error.
    Backpressure {
        /// Jobs already waiting.
        depth: usize,
        /// The configured queue bound.
        bound: usize,
    },
    /// The daemon is draining: running jobs finish, nothing new starts.
    Draining,
    /// The client canceled the job.
    Canceled,
    /// The client's connection died before the job could run (e.g. the
    /// ack write failed after admission); the job was settled unrun.
    ClientGone,
    /// A budget exceeds the pool's total capacity — never admittable.
    BudgetTooLarge {
        /// Which budget (`"memory"` or `"scratch"`).
        what: &'static str,
        /// Requested bytes.
        asked: u64,
        /// The pool's total.
        total: u64,
    },
    /// A budget is too small for the job it describes.
    BudgetTooSmall {
        /// Which budget (`"memory"` or `"scratch"`).
        what: &'static str,
        /// Requested bytes.
        asked: u64,
        /// Minimum that could work.
        need: u64,
    },
    /// The manifest itself is malformed.
    BadManifest(String),
    /// The sort failed while executing.
    Exec(String),
    /// The job's `deadline_ms` elapsed (queued or running) and the
    /// watchdog canceled it. Not retryable: the identical submit would
    /// blow the identical deadline.
    DeadlineExceeded {
        /// The deadline the manifest asked for.
        limit_ms: u64,
    },
}

impl SortdError {
    /// Machine-readable error code (stable wire contract).
    pub fn code(&self) -> &'static str {
        match self {
            SortdError::Backpressure { .. } => "backpressure",
            SortdError::Draining => "draining",
            SortdError::Canceled => "canceled",
            SortdError::ClientGone => "client_gone",
            SortdError::BudgetTooLarge { .. } => "budget_too_large",
            SortdError::BudgetTooSmall { .. } => "budget_too_small",
            SortdError::BadManifest(_) => "bad_manifest",
            SortdError::Exec(_) => "exec_failed",
            SortdError::DeadlineExceeded { .. } => "deadline_exceeded",
        }
    }

    /// Whether the same submit can succeed later without changes: true for
    /// load-shedding (backpressure) and drain, false for manifests that
    /// can never be admitted and for execution failures.
    pub fn retryable(&self) -> bool {
        matches!(
            self,
            SortdError::Backpressure { .. } | SortdError::Draining
        )
    }
}

impl std::fmt::Display for SortdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SortdError::Backpressure { depth, bound } => write!(
                f,
                "admission queue full ({depth} waiting, bound {bound}); retry with backoff"
            ),
            SortdError::Draining => write!(f, "daemon is draining; retry against another instance"),
            SortdError::Canceled => write!(f, "job canceled by client"),
            SortdError::ClientGone => {
                write!(f, "client disconnected before the job ran")
            }
            SortdError::BudgetTooLarge { what, asked, total } => write!(
                f,
                "{what} budget {asked} exceeds the pool total {total}; the job can never be admitted"
            ),
            SortdError::BudgetTooSmall { what, asked, need } => {
                write!(f, "{what} budget {asked} is below the {need} this job needs")
            }
            SortdError::BadManifest(m) => write!(f, "bad manifest: {m}"),
            SortdError::Exec(m) => write!(f, "sort failed: {m}"),
            SortdError::DeadlineExceeded { limit_ms } => {
                write!(f, "job exceeded its {limit_ms} ms deadline and was canceled")
            }
        }
    }
}

impl std::error::Error for SortdError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(input: u64, mem: u64, scratch: u64) -> JobSpec {
        JobSpec {
            name: "t".into(),
            input_bytes: input,
            mem_budget: mem,
            scratch_budget: scratch,
            ..JobSpec::default()
        }
    }

    #[test]
    fn spec_roundtrips_through_json() {
        let s = spec(1_000 * RECORD_LEN as u64, 1 << 20, 2 << 20);
        let got = JobSpec::from_json(&s.to_json()).unwrap();
        assert_eq!(got, s);
    }

    #[test]
    fn idem_key_and_deadline_roundtrip_and_default_off() {
        // Both set: they survive the wire.
        let s = JobSpec {
            idem_key: Some("fleet-7".into()),
            deadline_ms: 2_500,
            ..spec(1_000 * RECORD_LEN as u64, 1 << 20, 0)
        };
        let got = JobSpec::from_json(&s.to_json()).unwrap();
        assert_eq!(got, s);
        // Both absent (an old client's manifest): no key, unlimited.
        let plain = spec(1_000 * RECORD_LEN as u64, 1 << 20, 0);
        let doc = plain.to_json();
        assert!(doc.get("idem_key").is_none(), "no key field when unset");
        assert!(doc.get("deadline_ms").is_none(), "no deadline field when 0");
        let got = JobSpec::from_json(&doc).unwrap();
        assert_eq!(got.idem_key, None);
        assert_eq!(got.deadline_ms, 0);
    }

    #[test]
    fn legacy_kernel_field_is_ignored_but_validated() {
        // No `kernel` field is emitted any more.
        let s = spec(1_000 * RECORD_LEN as u64, 1 << 20, 0);
        assert!(s.to_json().get("kernel").is_none());
        // A manifest from an earlier client names one of the old variants;
        // every one of them parses to the same spec.
        for name in ["scalar", "branchless-tree", "radix", "simd"] {
            let Json::Obj(mut fields) = s.to_json() else { panic!() };
            fields.push(("kernel".into(), Json::from(name)));
            assert_eq!(JobSpec::from_json(&Json::Obj(fields)).unwrap(), s, "{name}");
        }
        // An unknown kernel name is a parse error (→ bad_manifest), not a
        // silent fallback.
        let Json::Obj(mut bad) = s.to_json() else { panic!() };
        bad.push(("kernel".into(), Json::from("warp-drive")));
        let err = JobSpec::from_json(&Json::Obj(bad)).unwrap_err();
        assert!(err.contains("unknown kernel"), "{err}");
    }

    #[test]
    fn merge_workers_is_bounded() {
        let ok = JobSpec {
            merge_workers: MAX_MERGE_WORKERS,
            ..spec(1_000 * RECORD_LEN as u64, 1 << 20, 0)
        };
        assert!(ok.validate(1 << 30, 1 << 30).is_ok());
        let over = JobSpec {
            merge_workers: MAX_MERGE_WORKERS + 1,
            ..ok
        };
        assert!(matches!(
            over.validate(1 << 30, 1 << 30),
            Err(SortdError::BadManifest(m)) if m.contains("merge_workers")
        ));
    }

    #[test]
    fn layout_field_is_optional_but_validated() {
        // Absent on the wire (and omitted when default): datamation.
        let s = spec(1_000 * RECORD_LEN as u64, 1 << 20, 0);
        let doc = s.to_json();
        assert!(doc.get("layout").is_none(), "no layout field when default");
        assert_eq!(JobSpec::from_json(&doc).unwrap().layout, RecordLayout::Datamation);
        // Var-len survives the wire.
        let v = JobSpec {
            layout: RecordLayout::VarLen,
            ..s.clone()
        };
        assert_eq!(JobSpec::from_json(&v.to_json()).unwrap(), v);
        // An unknown layout name is a parse error, not a silent fallback.
        let Json::Obj(mut fields) = s.to_json() else { panic!() };
        fields.push(("layout".into(), Json::from("parquet")));
        let err = JobSpec::from_json(&Json::Obj(fields)).unwrap_err();
        assert!(err.contains("unknown layout"), "{err}");
    }

    #[test]
    fn varlen_inputs_need_not_be_record_aligned() {
        let pool = (8 << 20, 32 << 20);
        // 150 bytes is ragged for datamation but fine for var-len frames.
        let ragged = JobSpec {
            layout: RecordLayout::VarLen,
            ..spec(150, 1 << 20, 0)
        };
        ragged.validate(pool.0, pool.1).unwrap();
        // Empty input is still hopeless under any layout.
        let empty = JobSpec {
            layout: RecordLayout::VarLen,
            ..spec(0, 1 << 20, 0)
        };
        assert_eq!(empty.validate(pool.0, pool.1).unwrap_err().code(), "bad_manifest");
    }

    #[test]
    fn validation_rejects_hopeless_manifests() {
        let pool = (8 << 20, 32 << 20);
        // Fine: small one-pass job.
        spec(100 * 100, 1 << 20, 0).validate(pool.0, pool.1).unwrap();
        // Ragged input length.
        assert_eq!(
            spec(150, 1 << 20, 0).validate(pool.0, pool.1).unwrap_err().code(),
            "bad_manifest"
        );
        // Memory below the floor / above the pool.
        assert_eq!(
            spec(100 * 100, 1, 0).validate(pool.0, pool.1).unwrap_err().code(),
            "budget_too_small"
        );
        let err = spec(100 * 100, 16 << 20, 0).validate(pool.0, pool.1).unwrap_err();
        assert_eq!(err.code(), "budget_too_large");
        assert!(!err.retryable(), "oversized budgets are not retryable");
        // Two-pass without the scratch to hold its runs.
        let big = 4 * (8 << 20) as u64 / 100 * 100; // 4x memory, record-aligned
        assert_eq!(
            spec(big, 1 << 20, big / 2).validate(pool.0, pool.1).unwrap_err().code(),
            "budget_too_small"
        );
        // Same job with honest scratch passes.
        spec(big, 1 << 20, big).validate(pool.0, pool.1).unwrap();
        // Reserved / empty idempotency keys are manifest errors.
        for key in ["", "anon-job-3"] {
            let s = JobSpec {
                idem_key: Some(key.into()),
                ..spec(100 * 100, 1 << 20, 0)
            };
            assert_eq!(s.validate(pool.0, pool.1).unwrap_err().code(), "bad_manifest");
        }
    }

    #[test]
    fn error_codes_carry_the_retry_contract() {
        assert!(SortdError::Backpressure { depth: 9, bound: 8 }.retryable());
        assert!(SortdError::Draining.retryable());
        assert!(!SortdError::Canceled.retryable());
        assert!(!SortdError::Exec("boom".into()).retryable());
        let dl = SortdError::DeadlineExceeded { limit_ms: 50 };
        assert_eq!(dl.code(), "deadline_exceeded");
        assert!(!dl.retryable(), "same submit would blow the same deadline");
    }
}
