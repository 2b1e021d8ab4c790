//! Spans recorded from outside the library: one around each call the
//! benchmark makes into a layer, kept in memory and written out when the
//! run ends.
//!
//! A span carries its name (`layer.call`), start and end, the span that
//! caused it and, for serving traffic, the request it belongs to. A
//! layer's *self time* is its spans' duration minus the part of each
//! interval that its child spans cover; overlapping children are merged
//! before they are subtracted, so concurrent children are not counted
//! twice.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Spans kept per run; later ones are counted as dropped so a long traced
/// run cannot exhaust memory.
const MAX_SPANS: usize = 400_000;

/// One recorded call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Unique within the run, never 0.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// `layer.call`.
    pub name: &'static str,
    /// Request the span served, when it served one.
    pub request: Option<u64>,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct Inner {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    dropped: AtomicU64,
}

/// Span recorder shared by every thread of a run. Cheap to clone; a
/// disabled tracer records nothing and hands out id 0.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Inner>>,
}

impl Tracer {
    /// A tracer that records.
    #[must_use]
    pub fn on() -> Self {
        Self {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                next_id: AtomicU64::new(1),
                spans: Mutex::new(Vec::new()),
                dropped: AtomicU64::new(0),
            })),
        }
    }

    /// A tracer that records nothing (the untraced run).
    #[must_use]
    pub fn off() -> Self {
        Self::default()
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// A fresh span id, allocated before the span's children run so they
    /// can name it as their parent. 0 when disabled.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |inner| inner.next_id.fetch_add(1, Ordering::Relaxed))
    }

    /// Records a finished call under an id from [`Self::id`].
    pub fn record(
        &self,
        id: u64,
        name: &'static str,
        parent: Option<u64>,
        request: Option<u64>,
        start: Instant,
        end: Instant,
    ) {
        let Some(inner) = &self.inner else {
            return;
        };
        let at = |t: Instant| t.saturating_duration_since(inner.epoch).as_nanos() as u64;
        let span = Span {
            id,
            parent: parent.filter(|&p| p != 0),
            name,
            request,
            start_ns: at(start),
            end_ns: at(end),
        };
        let mut spans = inner.spans.lock().expect("span buffer poisoned");
        if spans.len() < MAX_SPANS {
            spans.push(span);
        } else {
            inner.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Times `f` as a span with a fresh id.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        request: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.id();
        let start = Instant::now();
        let out = f();
        self.record(id, name, parent, request, start, Instant::now());
        out
    }

    /// Everything recorded so far, and how many spans were dropped.
    #[must_use]
    pub fn snapshot(&self) -> (Vec<Span>, u64) {
        self.inner.as_ref().map_or((Vec::new(), 0), |inner| {
            (
                inner.spans.lock().expect("span buffer poisoned").clone(),
                inner.dropped.load(Ordering::Relaxed),
            )
        })
    }
}

/// Per-name totals over a set of spans.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times.
    pub self_ns: u64,
}

/// Length of `[start, end)` covered by the union of `children`, each
/// clipped to that interval.
#[must_use]
pub fn covered_ns(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut run: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        run = match run {
            Some((rs, re)) if s <= re => Some((rs, re.max(e))),
            Some((rs, re)) => {
                covered += re - rs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((rs, re)) = run {
        covered += re - rs;
    }
    covered
}

/// Self time of every span: its duration minus the union of its
/// children's intervals.
#[must_use]
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            children
                .entry(parent)
                .or_default()
                .push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .map(|span| {
            let kids = children.get(&span.id).map_or(&[][..], Vec::as_slice);
            let covered = covered_ns(span.start_ns, span.end_ns, kids);
            (span.id, span.duration_ns() - covered)
        })
        .collect()
}

/// Count, total and self time per span name.
#[must_use]
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for span in spans {
        let t = out.entry(span.name).or_default();
        t.count += 1;
        t.total_ns += span.duration_ns();
        t.self_ns += selfs[&span.id];
    }
    out
}

/// Writes spans as JSON lines.
///
/// # Errors
///
/// Returns the I/O error if the file cannot be written.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let opt = |v: Option<u64>| v.map_or_else(|| "null".to_owned(), |v| v.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id,
            opt(s.parent),
            s.name,
            opt(s.request),
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: if parent.is_some() { "child" } else { "root" },
            request: None,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn union_of_overlapping_children_is_subtracted_once() {
        assert_eq!(covered_ns(0, 100, &[]), 0);
        assert_eq!(covered_ns(0, 100, &[(10, 20), (30, 40)]), 20);
        // Overlapping and nested children merge.
        assert_eq!(covered_ns(0, 100, &[(10, 50), (40, 60), (45, 55)]), 50);
        // Touching intervals merge without a gap.
        assert_eq!(covered_ns(0, 100, &[(10, 20), (20, 30)]), 20);
        // Children reaching outside the parent are clipped.
        assert_eq!(covered_ns(10, 20, &[(0, 15), (18, 40)]), 7);
        assert_eq!(covered_ns(10, 20, &[(0, 5), (25, 30)]), 0);
    }

    #[test]
    fn self_time_per_span_and_name() {
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 50),
            span(3, Some(1), 40, 60), // overlaps span 2
            span(4, Some(2), 20, 30), // grandchild: counts against 2, not 1
            span(5, None, 200, 210),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 50);
        assert_eq!(selfs[&2], 40 - 10);
        assert_eq!(selfs[&3], 20);
        assert_eq!(selfs[&4], 10);
        assert_eq!(selfs[&5], 10);
        let by_name = totals_by_name(&spans);
        assert_eq!(
            by_name["root"],
            NameTotals {
                count: 2,
                total_ns: 110,
                self_ns: 60
            }
        );
        assert_eq!(
            by_name["child"],
            NameTotals {
                count: 3,
                total_ns: 70,
                self_ns: 60
            }
        );
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::off();
        assert_eq!(t.id(), 0);
        assert_eq!(t.span("x.y", None, None, || 7), 7);
        assert!(t.snapshot().0.is_empty());
        let t = Tracer::on();
        let parent = t.id();
        t.span("x.y", Some(parent), Some(3), || ());
        let (spans, dropped) = t.snapshot();
        assert_eq!(dropped, 0);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].parent, Some(parent));
        assert_eq!(spans[0].request, Some(3));
    }
}
