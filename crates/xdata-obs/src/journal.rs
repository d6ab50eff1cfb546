//! The per-thread **event journal** behind event-timeline tracing.
//!
//! Aggregate metrics (`metrics.rs`) answer "how much, in total"; the
//! journal answers "what happened, when, on which thread". Every
//! instrumentation site that records a counter or opens a span also — when
//! the journal is enabled — appends a timestamped event to a thread-local
//! buffer: span begin/end pairs, instant (point) events, counter deltas,
//! and flow markers connecting causally-related work across threads.
//!
//! With the journal on, an event is a `Vec::push` into the thread's buffer
//! (`recorder.rs`), which flushes into the run's recorder. [`assemble`]
//! turns a run's flushed chunks into a [`crate::TraceLog`]: events grouped
//! per thread in record order (per-thread timestamps are therefore
//! monotonic), threads ordered by their stable ordinal, timestamps
//! normalized to the earliest event.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use crate::trace::{FlowPhase, TraceEvent, TraceEventKind, TraceLog};

/// Process-lifetime monotonic epoch; all journal timestamps are nanoseconds
/// since this instant. Normalization to the run's own start happens at
/// drain time, keeping the hot path at one `Instant::elapsed` call.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process epoch.
pub(crate) fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Stable per-thread ordinal, assigned on first use and used as the trace
/// track id. The main thread almost always claims 0 (it records the first
/// event); worker ordinals depend on spawn order, which only affects track
/// numbering in the timed export, never the stripped structure.
pub(crate) fn thread_ordinal() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    thread_local! {
        static ORDINAL: u32 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ORDINAL.with(|o| *o)
}

/// One journal entry. Names and paths are `&'static str` on the hot path;
/// they widen to `String` only at drain time.
pub(crate) enum JEvent {
    Begin { path: &'static str, label: String, ts: u64 },
    End { path: &'static str, ts: u64 },
    Instant { name: &'static str, label: String, ts: u64 },
    Counter { name: &'static str, delta: u64, ts: u64 },
    Flow { name: &'static str, id: u64, phase: FlowPhase, ts: u64 },
}

/// Assemble one run's flushed chunks into a stable-ordered [`TraceLog`]:
/// events sorted by (thread ordinal, record order), then timestamps
/// normalized so the earliest event is `t = 0`.
pub(crate) fn assemble(mut chunks: Vec<(u32, Vec<JEvent>)>) -> TraceLog {
    // A stable sort groups the chunks per thread and keeps each thread's in
    // flush (and therefore record) order, so per-thread timestamps stay
    // monotonic.
    chunks.sort_by_key(|&(tid, _)| tid);
    let mut events: Vec<TraceEvent> = Vec::new();
    for (tid, list) in chunks {
        for e in list {
            let (ts_ns, kind) = match e {
                JEvent::Begin { path, label, ts } => {
                    (ts, TraceEventKind::Begin { path: path.to_string(), label })
                }
                JEvent::End { path, ts } => (ts, TraceEventKind::End { path: path.to_string() }),
                JEvent::Instant { name, label, ts } => {
                    (ts, TraceEventKind::Instant { name: name.to_string(), label })
                }
                JEvent::Counter { name, delta, ts } => {
                    (ts, TraceEventKind::Counter { name: name.to_string(), delta })
                }
                JEvent::Flow { name, id, phase, ts } => {
                    (ts, TraceEventKind::Flow { name: name.to_string(), id, phase })
                }
            };
            events.push(TraceEvent { tid, ts_ns, kind });
        }
    }
    let t0 = events.iter().map(|e| e.ts_ns).min().unwrap_or(0);
    for e in &mut events {
        e.ts_ns -= t0;
    }
    let mut log = TraceLog { meta: crate::trace::build_meta(&[]), events };
    log.meta.insert("schema".to_string(), "xdata-trace v1".to_string());
    log
}
