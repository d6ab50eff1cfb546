//! Span guards.

use std::time::Instant;

use crate::journal::{now_ns, JEvent};
use crate::recorder::{sinks, with_local, JOURNAL, METRICS};

/// Open a span at `path`. Paths are explicit `/`-separated hierarchies
/// (`"generate/solve"` is a child of `"generate"`) so parenthood survives
/// crossing thread-pool boundaries without thread-local context. The span
/// closes — and records its duration — when the guard drops.
#[inline]
pub fn span(path: &'static str) -> SpanGuard {
    span_with(path, String::new)
}

/// [`span`] with a lazily-built label (e.g. the solve target's
/// description) for the journal. The closure runs only when the journal
/// is on, so the label costs nothing otherwise; the label never enters the
/// metrics report (labels are per-item, the report aggregates per path).
#[inline]
pub fn span_with(path: &'static str, label: impl FnOnce() -> String) -> SpanGuard {
    let s = sinks();
    if s == 0 {
        return SpanGuard { path, start: None, journaled: false };
    }
    let journaled = s & JOURNAL != 0;
    let label = if journaled { label() } else { String::new() };
    with_local(|l| {
        l.depth += 1;
        if journaled {
            l.events.push(JEvent::Begin { path, label, ts: now_ns() });
        }
    });
    SpanGuard { path, start: Some(Instant::now()), journaled }
}

/// An open span; closes when dropped.
pub struct SpanGuard {
    path: &'static str,
    /// `None` when the span was opened with no recorder bound (fully inert
    /// guard).
    start: Option<Instant>,
    /// Whether a journal `Begin` was recorded at open — if so the matching
    /// `End` is recorded at drop even if the journal was taken in between,
    /// keeping the buffer's depth tracking balanced (the stale events
    /// themselves are dropped at flush).
    journaled: bool,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let dur_ns = start.elapsed().as_nanos() as u64;
        let s = sinks();
        with_local(|l| {
            if self.journaled {
                l.events.push(JEvent::End { path: self.path, ts: now_ns() });
            }
            if s & METRICS != 0 {
                l.spans.push((self.path, dur_ns));
            }
            l.depth = l.depth.saturating_sub(1);
            if l.depth == 0 {
                l.flush();
            }
        });
    }
}
