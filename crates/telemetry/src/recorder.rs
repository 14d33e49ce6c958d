//! The thread-scoped recorder facade.

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::Arc;

use crate::Event;

/// A sink for telemetry events, spans, and metrics.
///
/// Implementations must be cheap and thread-safe: instrumented code calls
/// these methods from hot simulation loops (batched at array granularity,
/// but still frequent), and one recorder may be installed on several
/// threads at once. The default method bodies make span/metric support
/// optional for counter-only sinks.
pub trait Recorder: Send + Sync {
    /// Records `count` occurrences of `event`.
    fn record(&self, event: Event, count: u64);

    /// Records a completed stage span with its wall-clock duration and the
    /// simulated cycles attributed to it.
    fn span(&self, name: &str, wall_ns: u64, sim_cycles: u64) {
        let _ = (name, wall_ns, sim_cycles);
    }

    /// Records a scalar metric sample (e.g. training loss at a step).
    fn metric(&self, name: &str, value: f64) {
        let _ = (name, value);
    }
}

thread_local! {
    /// This thread's installed recorder; `None` makes every instrumentation
    /// call on the thread a no-op.
    static RECORDER: RefCell<Option<Arc<dyn Recorder>>> = const { RefCell::new(None) };
}

/// Whether a recorder is installed on this thread. Instrumented code may
/// use this to skip preparing expensive event arguments.
#[inline]
pub fn enabled() -> bool {
    RECORDER.with(|slot| slot.borrow().is_some())
}

/// Installs `recorder` on this thread for the lifetime of the returned
/// guard, which restores the previously installed recorder (if any) on
/// drop.
///
/// Scopes nest: an inner guard routes events to its recorder until it
/// drops. Other threads never see this recorder; a thread that should
/// record into it installs it with its own guard.
pub fn scoped_recorder(recorder: Arc<dyn Recorder>) -> ScopedRecorder {
    let previous = RECORDER.with(|slot| slot.replace(Some(recorder)));
    ScopedRecorder {
        previous,
        _not_send: PhantomData,
    }
}

/// RAII guard from [`scoped_recorder`]. It restores this thread's slot, so
/// it cannot leave the thread; nested guards must drop innermost first, as
/// scoped `let` bindings do.
pub struct ScopedRecorder {
    previous: Option<Arc<dyn Recorder>>,
    _not_send: PhantomData<*const ()>,
}

impl Drop for ScopedRecorder {
    fn drop(&mut self) {
        let previous = self.previous.take();
        // `try_with`: a guard dropped while the thread's locals are torn
        // down has no slot left to restore, and `Drop` must not panic.
        let _ = RECORDER.try_with(|slot| slot.replace(previous));
    }
}

/// Runs `f` against this thread's recorder, if any.
///
/// This is the batching primitive: one thread-local check for any number
/// of `record` calls inside `f`.
#[inline]
pub fn with_recorder(f: impl FnOnce(&dyn Recorder)) {
    RECORDER.with(|slot| {
        if let Some(recorder) = slot.borrow().as_ref() {
            f(recorder.as_ref());
        }
    });
}

/// Records `count` occurrences of `event` against this thread's recorder.
#[inline]
pub fn record(event: Event, count: u64) {
    with_recorder(|r| r.record(event, count));
}

/// Records a scalar metric sample against this thread's recorder.
#[inline]
pub fn metric(name: &str, value: f64) {
    with_recorder(|r| r.metric(name, value));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CounterRecorder;

    #[test]
    fn disabled_by_default_and_scoped_install_works() {
        let counters = Arc::new(CounterRecorder::new());
        {
            let _guard = scoped_recorder(counters.clone());
            assert!(enabled());
            record(Event::CellWrite, 3);
            record(Event::CellWrite, 4);
            metric("loss", 0.5);
        }
        assert!(!enabled());
        record(Event::CellWrite, 100); // dropped: no recorder installed
        assert_eq!(counters.count(Event::CellWrite), 7);
        assert_eq!(counters.metrics(), vec![("loss".to_string(), 0.5)]);
    }

    #[test]
    fn sequential_scopes_keep_separate_counts() {
        let first = Arc::new(CounterRecorder::new());
        let second = Arc::new(CounterRecorder::new());
        {
            let _guard = scoped_recorder(first.clone());
            record(Event::CrossbarMvm, 1);
        }
        {
            let _guard = scoped_recorder(second.clone());
            record(Event::CrossbarMvm, 2);
        }
        assert_eq!(first.count(Event::CrossbarMvm), 1);
        assert_eq!(second.count(Event::CrossbarMvm), 2);
    }

    #[test]
    fn other_threads_never_reach_this_threads_recorder() {
        let counters = Arc::new(CounterRecorder::new());
        let _guard = scoped_recorder(counters.clone());
        let worker_enabled = std::thread::spawn(|| {
            record(Event::CellWrite, 5);
            metric("loss", 1.0);
            drop(crate::Span::enter("worker"));
            enabled()
        })
        .join()
        .expect("worker thread panicked");
        record(Event::CellWrite, 1);
        assert!(!worker_enabled);
        assert_eq!(counters.count(Event::CellWrite), 1);
        assert!(counters.metrics().is_empty());
        assert!(counters.span_reports().is_empty());
    }

    #[test]
    fn nested_scopes_route_to_the_inner_recorder_and_restore_the_outer() {
        let outer = Arc::new(CounterRecorder::new());
        let inner = Arc::new(CounterRecorder::new());
        {
            let _outer = scoped_recorder(outer.clone());
            record(Event::CrossbarMvm, 1);
            {
                let _inner = scoped_recorder(inner.clone());
                record(Event::CrossbarMvm, 10);
            }
            record(Event::CrossbarMvm, 100);
        }
        assert!(!enabled());
        record(Event::CrossbarMvm, 1000); // dropped: no recorder installed
        assert_eq!(outer.count(Event::CrossbarMvm), 101);
        assert_eq!(inner.count(Event::CrossbarMvm), 10);
    }
}
