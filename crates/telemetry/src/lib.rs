//! Workspace-wide hardware telemetry.
//!
//! Simulation code in the crossbar/core/nn crates emits *events* (how many
//! crossbar MVMs ran, how many ADC conversions they needed, how many cells
//! were reprogrammed), *spans* (scoped stage timers attributing wall-clock
//! and simulated cycles to pipeline stages; [`CounterRecorder`] keeps only
//! the cycles, so its reports are deterministic), and *metrics* (scalar
//! samples such as per-step training loss). All three flow to the [`Recorder`]
//! installed on the calling thread, which defaults to "off":
//!
//! - When no recorder is installed, every instrumentation call is a single
//!   thread-local check — cheap enough to leave in hot MVM loops.
//! - Tests and the `repro` binary install a [`CounterRecorder`] (or any
//!   custom [`Recorder`]) for the duration of a scope via
//!   [`scoped_recorder`], then snapshot counters into a serializable
//!   [`RunReport`].
//! - Recorders are thread-scoped. A guard installs its recorder on its own
//!   thread only, so concurrently running tests never count each other's
//!   events; guards nest, and dropping one restores the recorder it
//!   replaced. A spawned thread records nothing until it installs a
//!   recorder itself — possibly the same shared `Arc`.
//!
//! The design mirrors the `log` crate's facade pattern: instrumented crates
//! depend only on this tiny crate, never on a concrete sink.
//!
//! ```
//! use reram_telemetry as telemetry;
//! use telemetry::{CounterRecorder, Event};
//! use std::sync::Arc;
//!
//! let counters = Arc::new(CounterRecorder::new());
//! {
//!     let _guard = telemetry::scoped_recorder(counters.clone());
//!     telemetry::record(Event::AdcConversion, 128);
//!     let mut span = telemetry::Span::enter("forward");
//!     span.add_cycles(42);
//! }
//! assert_eq!(counters.count(Event::AdcConversion), 128);
//! ```

#![forbid(unsafe_code)]

mod counters;
mod event;
mod recorder;
mod report;
mod span;

pub use counters::CounterRecorder;
pub use event::{Event, EVENT_COUNT};
pub use recorder::{
    enabled, metric, record, scoped_recorder, with_recorder, Recorder, ScopedRecorder,
};
pub use report::{
    EventCounts, LayerReport, MetricSample, RunReport, SpanReport, REPORT_SCHEMA_VERSION,
};
pub use span::Span;
