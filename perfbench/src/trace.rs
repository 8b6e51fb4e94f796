//! Spans and counters for the traced run.
//!
//! The benchmark wraps each call into a workspace crate in a named span;
//! the tracer keeps, per span name, the call count, the total time and
//! the self time (the span's duration minus the time its direct child
//! spans cover). Spans nest strictly — the benchmark is single-threaded
//! — so a stack of open frames aggregates them exactly as they close,
//! without storing every span. Counters record the work a layer did
//! (LP pivots, batches, bytes) at the same boundaries.
//!
//! Spans whose name starts with `bench.` time the benchmark's own
//! checking code, not a layer; [`Tracer::layer_self_ns`] leaves them out,
//! so their time counts as glue.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// Aggregate of every closed span with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Spans closed.
    pub count: u64,
    /// Sum of their durations, nanoseconds.
    pub total_ns: u64,
    /// Sum of their durations minus their direct children's, nanoseconds.
    pub self_ns: u64,
}

#[derive(Debug)]
struct Frame {
    name: &'static str,
    start: u64,
    child_ns: u64,
}

#[derive(Debug, Default)]
struct State {
    stack: Vec<Frame>,
    spans: BTreeMap<&'static str, SpanTotals>,
    counters: BTreeMap<&'static str, f64>,
}

/// Span and counter recorder; see the module docs. The state sits
/// behind a mutex only so that a [`Scheduler`](demt_api::Scheduler)
/// wrapper, which must be `Sync`, can hold a reference; the benchmark
/// never contends for it.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    state: Mutex<State>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            state: Mutex::new(State::default()),
        }
    }

    fn state(&self) -> MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("tracer lock poisoned by a panicking span")
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span named `name` at time `t` (nanoseconds).
    pub fn enter_at(&self, name: &'static str, t: u64) {
        self.state().stack.push(Frame {
            name,
            start: t,
            child_ns: 0,
        });
    }

    /// Closes the innermost open span at time `t` (nanoseconds).
    ///
    /// # Panics
    /// If no span is open.
    pub fn exit_at(&self, t: u64) {
        let mut st = self.state();
        let frame = st.stack.pop().expect("exit_at without an open span");
        let dur = t.saturating_sub(frame.start);
        let totals = st.spans.entry(frame.name).or_default();
        totals.count += 1;
        totals.total_ns += dur;
        totals.self_ns += dur.saturating_sub(frame.child_ns);
        if let Some(parent) = st.stack.last_mut() {
            parent.child_ns += dur;
        }
    }

    /// Adds `v` to the counter `name`.
    pub fn add(&self, name: &'static str, v: f64) {
        *self.state().counters.entry(name).or_default() += v;
    }

    /// Totals of the spans named `name` (zero if none closed).
    pub fn span_totals(&self, name: &str) -> SpanTotals {
        self.state().spans.get(name).copied().unwrap_or_default()
    }

    /// Value of the counter `name` (zero if never added to).
    pub fn counter(&self, name: &str) -> f64 {
        self.state().counters.get(name).copied().unwrap_or_default()
    }

    /// Self time of every layer span, i.e. every span not named
    /// `bench.*`, summed. Since self times partition the time the
    /// outermost spans cover, wall time minus this is the time no layer
    /// accounts for.
    pub fn layer_self_ns(&self) -> u64 {
        self.state()
            .spans
            .iter()
            .filter(|(name, _)| !name.starts_with("bench."))
            .map(|(_, t)| t.self_ns)
            .sum()
    }
}

/// Runs `f` inside a span named `name` when tracing, or just runs it.
pub fn span<R>(tr: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match tr {
        None => f(),
        Some(t) => {
            t.enter_at(name, t.now());
            let r = f();
            t.exit_at(t.now());
            r
        }
    }
}

/// Adds `v` to the counter `name` when tracing.
pub fn count(tr: Option<&Tracer>, name: &'static str, v: f64) {
    if let Some(t) = tr {
        t.add(name, v);
    }
}
