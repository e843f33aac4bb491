//! Self time per span name, derived from a recorded trace.
//!
//! A span's self time is its duration minus the part its child spans on
//! the same thread cover. Spans on one thread nest properly, so the
//! children of a span are the spans that start inside it and end before
//! it does, and its direct children never overlap each other.

use std::collections::BTreeMap;
use std::time::Duration;

use alphasort_obs::{EventKind, TraceSnapshot};

/// Totals of every span recorded under one name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Summed durations.
    pub total: Duration,
    /// Summed self times.
    pub self_time: Duration,
    /// Spans recorded.
    pub count: u64,
}

struct Open {
    name: &'static str,
    end: u64,
    dur: u64,
    children: u64,
}

fn close(out: &mut BTreeMap<&'static str, SpanTotals>, s: Open) {
    let t = out.entry(s.name).or_default();
    t.total += Duration::from_nanos(s.dur);
    t.self_time += Duration::from_nanos(s.dur.saturating_sub(s.children));
    t.count += 1;
}

/// Per-name totals and self times over every span in `snap`.
pub fn self_times(snap: &TraceSnapshot) -> BTreeMap<&'static str, SpanTotals> {
    let mut by_thread: BTreeMap<u32, Vec<(u64, u64, &'static str)>> = BTreeMap::new();
    for e in &snap.events {
        if let EventKind::Span { dur_ns } = e.kind {
            by_thread
                .entry(e.tid)
                .or_default()
                .push((e.start_ns, dur_ns, e.name));
        }
    }
    let mut out = BTreeMap::new();
    for mut spans in by_thread.into_values() {
        // Parents before the children they enclose: by start, longest first.
        spans.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        let mut stack: Vec<Open> = Vec::new();
        for (start, dur, name) in spans {
            let end = start + dur;
            while stack.last().is_some_and(|top| top.end <= start) {
                let done = stack.pop().expect("non-empty stack");
                close(&mut out, done);
            }
            if let Some(parent) = stack.last_mut() {
                if end <= parent.end {
                    parent.children += dur;
                }
            }
            stack.push(Open {
                name,
                end,
                dur,
                children: 0,
            });
        }
        while let Some(done) = stack.pop() {
            close(&mut out, done);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use alphasort_obs::Event;

    fn span(name: &'static str, tid: u32, start_ns: u64, dur_ns: u64) -> Event {
        Event {
            name,
            kind: EventKind::Span { dur_ns },
            start_ns,
            tid,
            track: None,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn children_are_subtracted_per_thread() {
        let snap = TraceSnapshot {
            events: vec![
                span("read", 1, 10, 5),
                span("sort", 1, 0, 100),
                span("read", 1, 50, 20),
                span("io", 1, 55, 10),
                // Another thread overlapping in time is not a child.
                span("io", 2, 20, 30),
            ],
            dropped: 0,
            threads: Vec::new(),
        };
        let t = self_times(&snap);
        assert_eq!(t["sort"].self_time, Duration::from_nanos(75));
        assert_eq!(t["read"].total, Duration::from_nanos(25));
        assert_eq!(t["read"].self_time, Duration::from_nanos(15));
        assert_eq!(t["io"].self_time, Duration::from_nanos(40));
        assert_eq!(t["io"].count, 2);
    }
}
