//! Benchmark-side tracing: spans around every driver call into a layer,
//! kept in memory, plus a telemetry sink that counts what the program
//! itself records.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use reram_telemetry::{CounterRecorder, Event, Recorder};

/// Span records kept individually; later spans only feed the totals.
const MAX_RECORDS: usize = 50_000;

/// One closed span: a timed driver call and the span that issued it.
struct SpanRecord {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Host time and call count per span name.
pub type Totals = BTreeMap<&'static str, (u64, u64)>;

/// Records spans when on; when off, [`Tracer::span`] only runs its call.
pub struct Tracer {
    on: bool,
    origin: Instant,
    records: Vec<SpanRecord>,
    open: Vec<Option<usize>>,
    totals: Totals,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            records: Vec::new(),
            open: Vec::new(),
            totals: Totals::new(),
        }
    }

    /// Runs `f` inside a span named `name`, child of the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let start = Instant::now();
        let start_ns = self.ns_since_origin(start);
        let parent = self.open.last().copied().flatten();
        let id = (self.records.len() < MAX_RECORDS).then(|| {
            self.records.push(SpanRecord {
                name,
                parent,
                start_ns,
                end_ns: start_ns,
            });
            self.records.len() - 1
        });
        self.open.push(id);
        let out = f(self);
        let end = Instant::now();
        self.open.pop();
        if let Some(id) = id {
            self.records[id].end_ns = self.ns_since_origin(end);
        }
        let total = self.totals.entry(name).or_insert((0, 0));
        total.0 += (end - start).as_nanos() as u64;
        total.1 += 1;
        out
    }

    fn ns_since_origin(&self, t: Instant) -> u64 {
        (t - self.origin).as_nanos() as u64
    }

    pub fn totals(&self) -> &Totals {
        &self.totals
    }

    /// Writes the kept spans as a JSON array of
    /// `{"name", "id", "parent", "start_ns", "end_ns"}` objects.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (id, r) in self.records.iter().enumerate() {
            let parent = r.parent.map_or("null".to_owned(), |p| p.to_string());
            let sep = if id + 1 == self.records.len() {
                ""
            } else {
                ","
            };
            writeln!(
                out,
                "{{\"name\": \"{}\", \"id\": {id}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}{sep}",
                r.name, r.start_ns, r.end_ns
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

/// Total seconds spent in spans named `name`.
pub fn total_s(totals: &Totals, name: &str) -> f64 {
    totals.get(name).map_or(0.0, |t| t.0 as f64 * 1e-9)
}

/// Number of spans named `name`.
fn calls(totals: &Totals, name: &str) -> u64 {
    totals.get(name).map_or(0, |t| t.1)
}

/// Mean seconds per span named `name` (0 when there were none).
pub fn mean_s(totals: &Totals, name: &str) -> f64 {
    match calls(totals, name) {
        0 => 0.0,
        n => total_s(totals, name) / n as f64,
    }
}

/// The telemetry sink of a traced run: the program's own
/// [`CounterRecorder`] plus a count of every call the program makes into
/// the sink.
#[derive(Default)]
pub struct BenchRecorder {
    pub counters: CounterRecorder,
    calls: AtomicU64,
}

impl BenchRecorder {
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    pub fn reset(&self) {
        self.counters.reset();
        self.calls.store(0, Ordering::Relaxed);
    }
}

impl Recorder for BenchRecorder {
    fn record(&self, event: Event, count: u64) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.counters.record(event, count);
    }

    fn span(&self, name: &str, wall_ns: u64, sim_cycles: u64) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.counters.span(name, wall_ns, sim_cycles);
    }

    fn metric(&self, name: &str, value: f64) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.counters.metric(name, value);
    }
}
