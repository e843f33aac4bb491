//! Timing wrappers around the program's public I/O traits.
//!
//! Each wrapper forwards every call unchanged, adds the time spent inside
//! it to a shared [`Meter`] and records a benchmark span around it, so a
//! layer's busy time is measured from outside the program.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

use alphasort_core::driver::{RecoveredRun, ScratchStore};
use alphasort_core::{RecordSink, RecordSource};
use alphasort_dmgen::KEY_LEN;
use alphasort_obs as obs;

/// Span names the wrappers record under.
pub mod span {
    /// A `FileSource::next_chunk` call.
    pub const FILE_READ: &str = "bench.io_file.read";
    /// A `FileSink::push` or `complete` call.
    pub const FILE_WRITE: &str = "bench.io_file.write";
    /// A scratch run write, seal or create.
    pub const SCRATCH_WRITE: &str = "bench.scratch.write";
    /// A scratch run read or open.
    pub const SCRATCH_READ: &str = "bench.scratch.read";
}

/// Busy time, calls and bytes of one layer direction. Shared by every
/// wrapper of that direction (a scratch store hands out one writer per
/// run); the counters are statistics only, hence `Relaxed`.
#[derive(Default)]
pub struct Meter {
    busy_ns: AtomicU64,
    calls: AtomicU64,
    bytes: AtomicU64,
    /// Sleep added to every sink push inside the timed region; zero except
    /// in the benchmark's sensitivity test.
    delay_ns: AtomicU64,
}

/// A [`Meter`]'s counters at one moment.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MeterReading {
    /// Time spent inside the wrapped calls.
    pub busy: Duration,
    /// Data calls (`next_chunk` / `push`).
    pub calls: u64,
    /// Bytes those calls moved.
    pub bytes: u64,
}

impl Meter {
    /// A fresh shared meter.
    pub fn shared() -> Arc<Meter> {
        Arc::new(Meter::default())
    }

    /// Sleep `delay` in every sink push, inside the timed region.
    pub fn inject_delay(&self, delay: Duration) {
        self.delay_ns.store(delay.as_nanos() as u64, Relaxed);
    }

    /// Current counters.
    pub fn reading(&self) -> MeterReading {
        MeterReading {
            busy: Duration::from_nanos(self.busy_ns.load(Relaxed)),
            calls: self.calls.load(Relaxed),
            bytes: self.bytes.load(Relaxed),
        }
    }

    fn busy_since(&self, start: Instant) {
        self.busy_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Relaxed);
    }

    fn call(&self, start: Instant, bytes: u64) {
        self.calls.fetch_add(1, Relaxed);
        self.bytes.fetch_add(bytes, Relaxed);
        self.busy_since(start);
    }

    fn delay(&self) {
        let ns = self.delay_ns.load(Relaxed);
        if ns > 0 {
            std::thread::sleep(Duration::from_nanos(ns));
        }
    }

    /// Run `f` as busy time without counting a data call.
    fn timed<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let _g = obs::span(name);
        let t = Instant::now();
        let out = f();
        self.busy_since(t);
        out
    }
}

/// A [`RecordSource`] that meters `next_chunk`.
pub struct TimedSource<S> {
    inner: S,
    meter: Arc<Meter>,
    span: &'static str,
}

impl<S> TimedSource<S> {
    /// Wrap `inner`, charging `meter` and recording `span` per call.
    pub fn new(inner: S, meter: Arc<Meter>, span: &'static str) -> Self {
        TimedSource { inner, meter, span }
    }
}

impl<S: RecordSource> RecordSource for TimedSource<S> {
    fn next_chunk(&mut self) -> io::Result<Option<Vec<u8>>> {
        let _g = obs::span(self.span);
        let t = Instant::now();
        let chunk = self.inner.next_chunk();
        let n = match &chunk {
            Ok(Some(c)) => c.len() as u64,
            _ => 0,
        };
        self.meter.call(t, n);
        chunk
    }

    fn size_hint(&self) -> Option<u64> {
        self.inner.size_hint()
    }
}

/// A [`RecordSink`] that meters `push` and `complete`.
pub struct TimedSink<S> {
    inner: S,
    meter: Arc<Meter>,
    span: &'static str,
}

impl<S> TimedSink<S> {
    /// Wrap `inner`, charging `meter` and recording `span` per call.
    pub fn new(inner: S, meter: Arc<Meter>, span: &'static str) -> Self {
        TimedSink { inner, meter, span }
    }

    /// The wrapped sink.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: RecordSink> RecordSink for TimedSink<S> {
    fn push(&mut self, data: &[u8]) -> io::Result<()> {
        let _g = obs::span(self.span);
        let t = Instant::now();
        self.meter.delay();
        let r = self.inner.push(data);
        self.meter.call(t, data.len() as u64);
        r
    }

    fn complete(&mut self) -> io::Result<u64> {
        let inner = &mut self.inner;
        self.meter.timed(self.span, || inner.complete())
    }
}

/// A [`ScratchStore`] whose run writers and sources are metered: writes,
/// seals and creates charge `write`; reads, opens and key probes charge
/// `read`.
pub struct TimedScratch<S> {
    inner: S,
    write: Arc<Meter>,
    read: Arc<Meter>,
    sealed: u64,
}

impl<S> TimedScratch<S> {
    /// Wrap `inner`.
    pub fn new(inner: S) -> Self {
        TimedScratch {
            inner,
            write: Meter::shared(),
            read: Meter::shared(),
            sealed: 0,
        }
    }

    /// Write-side counters.
    pub fn write(&self) -> MeterReading {
        self.write.reading()
    }

    /// Read-side counters.
    pub fn read(&self) -> MeterReading {
        self.read.reading()
    }

    /// Runs sealed so far, cascade outputs included.
    pub fn runs(&self) -> u64 {
        self.sealed
    }

    /// The wrapped store.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: ScratchStore> ScratchStore for TimedScratch<S> {
    type Writer = TimedSink<S::Writer>;
    type Source = TimedSource<S::Source>;

    fn create_run(&mut self, size_hint: u64) -> io::Result<Self::Writer> {
        let inner = &mut self.inner;
        let w = self
            .write
            .timed(span::SCRATCH_WRITE, || inner.create_run(size_hint))?;
        Ok(TimedSink::new(
            w,
            Arc::clone(&self.write),
            span::SCRATCH_WRITE,
        ))
    }

    fn seal_run(&mut self, writer: Self::Writer) -> io::Result<()> {
        self.sealed += 1;
        let inner = &mut self.inner;
        self.write
            .timed(span::SCRATCH_WRITE, || inner.seal_run(writer.into_inner()))
    }

    fn open_runs(&mut self) -> io::Result<Vec<Self::Source>> {
        let inner = &mut self.inner;
        let runs = self.read.timed(span::SCRATCH_READ, || inner.open_runs())?;
        Ok(runs
            .into_iter()
            .map(|s| TimedSource::new(s, Arc::clone(&self.read), span::SCRATCH_READ))
            .collect())
    }

    fn sealed_run_records(&mut self) -> io::Result<Vec<u64>> {
        self.inner.sealed_run_records()
    }

    fn key_at(&mut self, run: usize, pos: u64) -> io::Result<[u8; KEY_LEN]> {
        let inner = &mut self.inner;
        self.read
            .timed(span::SCRATCH_READ, || inner.key_at(run, pos))
    }

    fn open_run_range(&mut self, run: usize, start: u64, records: u64) -> io::Result<Self::Source> {
        let inner = &mut self.inner;
        let s = self.read.timed(span::SCRATCH_READ, || {
            inner.open_run_range(run, start, records)
        })?;
        Ok(TimedSource::new(
            s,
            Arc::clone(&self.read),
            span::SCRATCH_READ,
        ))
    }

    fn recovered_runs(&mut self) -> io::Result<Vec<RecoveredRun>> {
        self.inner.recovered_runs()
    }
}
