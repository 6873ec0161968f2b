//! The benchmark's clock and its in-memory span log.
//!
//! Spans are recorded only by the benchmark, around the calls it makes into
//! each layer's public functions; the program itself is not instrumented.
//! A span has a name, a start and an end (nanoseconds since the log's
//! origin), the span that caused it, and the id of the request it belongs
//! to. Spans of one request share that id.

use std::collections::BTreeMap;
use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use crate::metrics::quantile;

/// The benchmark's one wall-clock read.
pub fn now() -> Instant {
    // lint: allow(wall-clock, benchmark timing only; served configurations and digests never read it)
    Instant::now()
}

/// Nanoseconds between two clock reads.
pub fn nanos_between(start: Instant, end: Instant) -> u64 {
    u64::try_from(end.duration_since(start).as_nanos()).unwrap_or(u64::MAX)
}

/// Seconds between two clock reads.
pub fn seconds_between(start: Instant, end: Instant) -> f64 {
    end.duration_since(start).as_secs_f64()
}

/// Index of a span in its log; [`NO_SPAN`] marks a root.
pub type SpanId = u32;

/// Parent of a root span (and the id a disabled log hands out).
pub const NO_SPAN: SpanId = u32::MAX;

/// One recorded span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    pub request: u64,
}

/// Spans of one traced pass, in the order they were opened.
///
/// A disabled log records nothing and reads no clock, so the untraced
/// passes pay only a branch per call site.
#[derive(Debug)]
pub struct SpanLog {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(enabled: bool) -> Self {
        SpanLog {
            enabled,
            origin: now(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Pauses or resumes recording.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Opens a span; close it with [`SpanLog::close`].
    pub fn open(&mut self, name: &'static str, parent: SpanId, request: u64) -> SpanId {
        if !self.enabled {
            return NO_SPAN;
        }
        let start_ns = nanos_between(self.origin, now());
        let id = SpanId::try_from(self.spans.len()).expect("fewer than 2^32 spans per pass");
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        id
    }

    pub fn close(&mut self, id: SpanId) {
        if id == NO_SPAN {
            return;
        }
        let end_ns = nanos_between(self.origin, now());
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Records an already-timed span (the caller read the clock itself,
    /// e.g. to also keep a latency sample).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: SpanId,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name,
            start_ns: nanos_between(self.origin, start),
            end_ns: nanos_between(self.origin, end),
            parent,
            request,
        });
    }

    /// Moves `other`'s spans to the end of this log, on this log's clock.
    pub fn append(&mut self, other: SpanLog) {
        let base = SpanId::try_from(self.spans.len()).expect("fewer than 2^32 spans per pass");
        let shift = nanos_between(self.origin, other.origin);
        self.spans.extend(other.spans.into_iter().map(|span| Span {
            start_ns: span.start_ns + shift,
            end_ns: span.end_ns + shift,
            parent: if span.parent == NO_SPAN {
                NO_SPAN
            } else {
                span.parent + base
            },
            ..span
        }));
    }

    /// Count, total time and self time per span name. A span's self time is
    /// its duration minus the time its children cover; the benchmark runs
    /// on one client thread, so children never overlap.
    pub fn summary(&self) -> BTreeMap<&'static str, SpanStats> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != NO_SPAN {
                child_ns[span.parent as usize] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SpanStats> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let total = span.end_ns - span.start_ns;
            let entry = out.entry(span.name).or_default();
            entry.count += 1;
            entry.total_ns += total;
            entry.self_ns += total.saturating_sub(children);
        }
        out
    }

    /// Nearest-rank quantile `q` of the span durations, per span name.
    pub fn quantiles(&self, q: f64) -> BTreeMap<&'static str, u64> {
        let mut durations: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for span in &self.spans {
            durations
                .entry(span.name)
                .or_default()
                .push(span.end_ns - span.start_ns);
        }
        durations
            .into_iter()
            .map(|(name, mut ns)| {
                ns.sort_unstable();
                (name, quantile(&ns, q))
            })
            .collect()
    }

    /// Writes the spans as tab-separated lines:
    /// `id parent request name start_ns end_ns` (`-` for a root's parent).
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(fs::File::create(path)?);
        writeln!(out, "id\tparent\trequest\tname\tstart_ns\tend_ns")?;
        for (id, span) in self.spans.iter().enumerate() {
            let parent = if span.parent == NO_SPAN {
                "-".to_string()
            } else {
                span.parent.to_string()
            };
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{}",
                span.request, span.name, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

/// Aggregate of the spans sharing one name.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpanStats {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl SpanStats {
    pub fn add(&mut self, other: &SpanStats) {
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.self_ns += other.self_ns;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut log = SpanLog::new(true);
        log.spans = vec![
            Span {
                name: "root",
                start_ns: 0,
                end_ns: 100,
                parent: NO_SPAN,
                request: 0,
            },
            Span {
                name: "child",
                start_ns: 10,
                end_ns: 40,
                parent: 0,
                request: 1,
            },
            Span {
                name: "child",
                start_ns: 50,
                end_ns: 60,
                parent: 0,
                request: 2,
            },
        ];
        let summary = log.summary();
        assert_eq!(summary["root"].total_ns, 100);
        assert_eq!(summary["root"].self_ns, 60);
        assert_eq!(summary["child"].count, 2);
        assert_eq!(summary["child"].self_ns, 40);
        assert_eq!(log.quantiles(0.5)["child"], 10);
        assert_eq!(log.quantiles(0.99)["child"], 30);
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = SpanLog::new(false);
        let id = log.open("x", NO_SPAN, 0);
        log.close(id);
        log.record("y", NO_SPAN, 0, now(), now());
        assert!(log.spans.is_empty());
    }
}
