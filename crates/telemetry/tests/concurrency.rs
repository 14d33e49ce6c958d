//! Thread-safety of the counter recorder and the facade.
//!
//! Recorders are thread-scoped, but one `Arc<CounterRecorder>` may be
//! installed on several threads at once, each through its own
//! `scoped_recorder` guard, so that parallel work sums into one set of
//! counters. Lost updates would silently corrupt the hardware event totals
//! the regenerated paper tables rest on. These tests hammer one recorder
//! from many threads and demand *exact* totals — relaxed-ordering counters
//! still guarantee atomicity per update.

use std::sync::Arc;
use std::thread;

use reram_telemetry as telemetry;
use reram_telemetry::{CounterRecorder, Event};

const THREADS: u64 = 8;
const ITERS: u64 = 10_000;

/// N threads each install the same recorder and record through the facade;
/// every update must land.
#[test]
fn facade_counters_are_exact_under_contention() {
    let counters = Arc::new(CounterRecorder::new());

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let c = counters.clone();
            thread::spawn(move || {
                let _guard = telemetry::scoped_recorder(c);
                for i in 0..ITERS {
                    telemetry::record(Event::CrossbarMvm, 1);
                    // Mix in a second event and variable counts so threads
                    // contend on more than one counter slot.
                    telemetry::record(Event::AdcConversion, (t + i) % 3);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("worker thread panicked");
    }

    assert_eq!(counters.count(Event::CrossbarMvm), THREADS * ITERS);
    let expected_adc: u64 = (0..THREADS)
        .map(|t| (0..ITERS).map(|i| (t + i) % 3).sum::<u64>())
        .sum();
    assert_eq!(counters.count(Event::AdcConversion), expected_adc);
    // Nothing else was recorded.
    let snapshot = counters.snapshot();
    assert_eq!(
        snapshot.total(),
        THREADS * ITERS + expected_adc,
        "unexpected events leaked into the snapshot: {snapshot:?}"
    );
}

/// Direct (facade-free) recorder use from many threads: the recorder alone
/// must be exact, independent of the installation machinery.
#[test]
fn recorder_is_exact_without_install() {
    let counters = Arc::new(CounterRecorder::new());
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let c = counters.clone();
            thread::spawn(move || {
                use telemetry::Recorder;
                for _ in 0..ITERS {
                    c.record(Event::CellWrite, 2);
                    c.record(Event::BufferRead, 1);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("worker thread panicked");
    }
    assert_eq!(counters.count(Event::CellWrite), 2 * THREADS * ITERS);
    assert_eq!(counters.count(Event::BufferRead), THREADS * ITERS);
}

/// Spans and metrics recorded concurrently with events must not poison the
/// recorder or drop event counts.
#[test]
fn mixed_span_metric_event_traffic() {
    let counters = Arc::new(CounterRecorder::new());

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let c = counters.clone();
            thread::spawn(move || {
                let _guard = telemetry::scoped_recorder(c);
                for i in 0..(ITERS / 10) {
                    let mut span = telemetry::Span::enter("stress");
                    span.add_cycles(1);
                    telemetry::record(Event::WeightUpdate, 1);
                    telemetry::metric("loss", (t * ITERS + i) as f64);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("worker thread panicked");
    }

    assert_eq!(counters.count(Event::WeightUpdate), THREADS * (ITERS / 10));
    let report = counters.span_reports();
    let stress: u64 = report
        .iter()
        .filter(|s| s.name == "stress")
        .map(|s| s.calls)
        .sum();
    assert_eq!(stress, THREADS * (ITERS / 10));
}
