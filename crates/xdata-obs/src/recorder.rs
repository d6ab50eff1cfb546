//! The recorder behind every event site, its binding to threads, and each
//! thread's buffer of spans and journal events (see the crate docs, "One
//! recorder per run"). Counters and histograms skip the buffer and go
//! straight to the recorder.

use std::cell::{Cell, RefCell};
use std::marker::PhantomData;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::journal::{thread_ordinal, JEvent};
use crate::MetricsReport;

/// Metrics collection is on ([`crate::install`] .. [`crate::take_report`]).
pub(crate) const METRICS: u32 = 1 << 0;
/// The event journal is on ([`crate::install_trace`] .. [`crate::take_trace`]).
pub(crate) const JOURNAL: u32 = 1 << 1;

/// What one run recorded.
#[derive(Default)]
pub(crate) struct Store {
    pub report: MetricsReport,
    /// Flushed journal chunks and their thread ordinals, in flush order.
    pub chunks: Vec<(u32, Vec<JEvent>)>,
}

/// One run's recorder, as bound to a thread: where that thread's event
/// sites record, and which sinks the run turned on. Clones share the
/// recorded data.
#[derive(Clone)]
pub struct Recorder {
    store: Arc<Mutex<Store>>,
    sinks: u32,
}

impl Recorder {
    /// The recorder bound to the calling thread, if any.
    pub fn current() -> Option<Recorder> {
        with_local(|l| l.rec.clone())
    }

    /// Bind this recorder to the calling thread until the returned guard
    /// drops, which restores the thread's previous binding. A worker that
    /// binds the recorder of the thread that started it records into that
    /// thread's run.
    pub fn bind(&self) -> Binding {
        Binding { prev: rebind(Some(self.clone())), _thread: PhantomData }
    }
}

/// Guard returned by [`Recorder::bind`]. It restores the binding of the
/// thread that created it, so it cannot be sent to another thread.
#[must_use = "the binding ends when the guard drops"]
pub struct Binding {
    prev: Option<Recorder>,
    _thread: PhantomData<*const ()>,
}

impl Drop for Binding {
    fn drop(&mut self) {
        rebind(self.prev.take());
    }
}

thread_local! {
    /// Sink bits of the recorder bound to this thread, 0 when none is:
    /// kept apart from `LOCAL` so an event site with no recorder bound is
    /// one thread-local load and one branch.
    static SINKS: Cell<u32> = const { Cell::new(0) };
    static LOCAL: RefCell<Local> = const {
        RefCell::new(Local {
            rec: None,
            depth: 0,
            spans: Vec::new(),
            events: Vec::new(),
        })
    };
}

#[inline]
pub(crate) fn sinks() -> u32 {
    SINKS.with(Cell::get)
}

/// A thread's binding and its buffer of events not yet flushed. The buffer
/// flushes when the outermost span closes, or at once for a journal event
/// outside any span, so nested spans cost a `Vec::push`.
pub(crate) struct Local {
    rec: Option<Recorder>,
    /// Open spans; the buffer flushes when this returns to 0.
    pub depth: u32,
    /// Finished spans: path and duration in nanoseconds.
    pub spans: Vec<(&'static str, u64)>,
    pub events: Vec<JEvent>,
}

impl Local {
    /// Buffer a journal event; outside any span it flushes at once.
    pub fn push_event(&mut self, event: JEvent) {
        self.events.push(event);
        if self.depth == 0 {
            self.flush();
        }
    }

    /// Merge spans and journal events into the bound recorder. What no
    /// sink of that recorder takes (a run taken while its spans were open)
    /// is dropped.
    pub fn flush(&mut self) {
        let events = std::mem::take(&mut self.events);
        if let Some(rec) = &self.rec {
            let mut store = lock(&rec.store);
            if rec.sinks & METRICS != 0 {
                for &(path, dur_ns) in &self.spans {
                    store.report.spans.entry(path.to_string()).or_default().merge_one(dur_ns);
                }
            }
            if rec.sinks & JOURNAL != 0 && !events.is_empty() {
                store.chunks.push((thread_ordinal(), events));
            }
        }
        self.spans.clear();
    }
}

pub(crate) fn with_local<T>(f: impl FnOnce(&mut Local) -> T) -> T {
    LOCAL.with(|l| f(&mut l.borrow_mut()))
}

/// Run `f` on the data of the calling thread's recorder, if one is bound.
pub(crate) fn with_store<T>(f: impl FnOnce(&mut Store) -> T) -> Option<T> {
    with_local(|l| l.rec.as_ref().map(|r| f(&mut lock(&r.store))))
}

/// Every update leaves the store valid (one map entry or one pushed chunk),
/// so a lock poisoned by a thread that panicked while holding it is taken
/// over as is.
fn lock(store: &Mutex<Store>) -> MutexGuard<'_, Store> {
    store.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Flush the calling thread's buffer into its current recorder, then bind
/// `rec` in its place; returns the recorder that was bound.
fn rebind(rec: Option<Recorder>) -> Option<Recorder> {
    with_local(|l| {
        l.flush();
        SINKS.set(rec.as_ref().map_or(0, |r| r.sinks));
        std::mem::replace(&mut l.rec, rec)
    })
}

/// Turn `bits` on for the calling thread's recorder, binding a fresh one
/// when none is bound. The sinks turned on start empty: what an earlier
/// run left them, in the recorder or this thread's buffer, is cleared.
pub(crate) fn install(bits: u32) {
    with_local(|l| {
        let rec = l.rec.get_or_insert_with(|| Recorder { store: Arc::default(), sinks: 0 });
        rec.sinks |= bits;
        SINKS.set(rec.sinks);
        let mut store = lock(&rec.store);
        if bits & METRICS != 0 {
            store.report = MetricsReport::default();
            l.spans.clear();
        }
        if bits & JOURNAL != 0 {
            store.chunks.clear();
            l.events.clear();
        }
    });
}

/// Turn sink `bit` off for the calling thread's recorder and, when it was
/// on, take what it recorded with `f`. A recorder left with no sink on is
/// unbound.
pub(crate) fn take<T>(bit: u32, f: impl FnOnce(&mut Store) -> T) -> Option<T> {
    with_local(|l| {
        let rec = l.rec.as_mut()?;
        let taken = (rec.sinks & bit != 0).then(|| f(&mut lock(&rec.store)));
        rec.sinks &= !bit;
        SINKS.set(rec.sinks);
        if rec.sinks == 0 {
            l.rec = None;
        }
        taken
    })
}
