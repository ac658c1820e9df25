//! Spans around the benchmark's own calls into each layer, aggregated
//! in memory per layer.
//!
//! Top-level spans are contiguous, like the laps of a stopwatch: a span
//! starts where the previous one ended, so one clock read separates two
//! layer calls and the loop's own control flow between them (a branch,
//! a counter) is charged to the later call. The benchmark marks its own
//! bookkeeping with [`Tracer::gap`]; that time, and anything after the
//! last span of a loop, is covered by no span and shows as
//! `bench.other_ns`. A span opened inside another reads the clock on
//! both sides and its time is taken out of the parent's self time (one
//! level of nesting). Every span's time includes one clock read; the
//! traced run reports the cost of one as `bench.timer_ns`.
//!
//! A tracer belongs to one thread; per-thread totals merge at the end.

use std::cell::Cell;
use std::time::Instant;

/// The layer call a span wraps.
#[derive(Debug, Clone, Copy)]
pub enum Layer {
    /// `FlowTable::advance_depart_measure`.
    Measure,
    /// `FlowTable::advance_to`.
    Advance,
    /// `FlowTable::depart_until`.
    Depart,
    /// `FlowTable::snapshot_into`.
    Snapshot,
    /// One admission: the holding-time draw plus `FlowTable::admit`.
    Admit,
    /// The routed network's per-link composition of route snapshots and
    /// its overflow tally (the `mbac-sim::network` tick loop's own work).
    Compose,
    /// `AdmissionEngine::observe` / `observe_moments`.
    Observe,
    /// `AdmissionEngine::admissible_count` (the eqn-42 decision).
    Decide,
    /// `PathAdmission::decide` (self time, without the hop decisions).
    PathDecide,
    /// `PathAdmission::sync`.
    PathSync,
    /// `PathAdmission::release`.
    PathRelease,
    /// `OverflowMeter` record and stop checks.
    Meter,
}

const LAYERS: usize = 12;

/// Per-layer totals of one or more tracers.
#[derive(Debug, Clone, Default)]
pub struct Totals {
    self_ns: [u64; LAYERS],
    calls: [u64; LAYERS],
    /// Time inside top-level spans.
    pub covered_ns: u64,
}

impl Totals {
    pub fn merge(&mut self, other: &Totals) {
        for l in 0..LAYERS {
            self.self_ns[l] += other.self_ns[l];
            self.calls[l] += other.calls[l];
        }
        self.covered_ns += other.covered_ns;
    }

    pub fn ns(&self, layer: Layer) -> u64 {
        self.self_ns[layer as usize]
    }

    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer as usize]
    }

    /// Mean self time per call, in ns (0 without calls).
    pub fn ns_per_call(&self, layer: Layer) -> f64 {
        match self.calls(layer) {
            0 => 0.0,
            n => self.ns(layer) as f64 / n as f64,
        }
    }
}

/// A single-threaded span recorder.
pub struct Tracer {
    self_ns: [Cell<u64>; LAYERS],
    calls: [Cell<u64>; LAYERS],
    covered_ns: Cell<u64>,
    /// End of the last top-level span or gap.
    boundary: Cell<Instant>,
    /// Inside a top-level span.
    open: Cell<bool>,
    /// Time of the nested spans of the open top-level span.
    children_ns: Cell<u64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            self_ns: Default::default(),
            calls: Default::default(),
            covered_ns: Cell::new(0),
            boundary: Cell::new(Instant::now()),
            open: Cell::new(false),
            children_ns: Cell::new(0),
        }
    }
}

impl Tracer {
    fn add(&self, layer: Layer, ns: u64, covered: u64) {
        let l = layer as usize;
        self.self_ns[l].set(self.self_ns[l].get() + ns);
        self.calls[l].set(self.calls[l].get() + 1);
        self.covered_ns.set(self.covered_ns.get() + covered);
    }

    /// Ends an interval that belongs to no layer: the next span starts
    /// here.
    pub fn gap(&self) {
        self.boundary.set(Instant::now());
    }

    /// Runs `f` as a span of `layer`.
    #[inline]
    pub fn span<R>(&self, layer: Layer, f: impl FnOnce() -> R) -> R {
        if self.open.get() {
            let started = Instant::now();
            let r = f();
            let ns = started.elapsed().as_nanos() as u64;
            self.children_ns.set(self.children_ns.get() + ns);
            self.add(layer, ns, 0);
            return r;
        }
        self.open.set(true);
        self.children_ns.set(0);
        let r = f();
        let now = Instant::now();
        let ns = now.duration_since(self.boundary.get()).as_nanos() as u64;
        self.boundary.set(now);
        self.open.set(false);
        self.add(layer, ns.saturating_sub(self.children_ns.get()), ns);
        r
    }

    pub fn into_totals(self) -> Totals {
        Totals {
            self_ns: self.self_ns.map(Cell::into_inner),
            calls: self.calls.map(Cell::into_inner),
            covered_ns: self.covered_ns.into_inner(),
        }
    }
}

/// The cost of one clock read, in ns (the median of 101 batches).
pub fn timer_ns() -> f64 {
    const READS: u32 = 1000;
    let mut batches: Vec<f64> = (0..101)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..READS {
                std::hint::black_box(Instant::now());
            }
            started.elapsed().as_nanos() as f64 / f64::from(READS)
        })
        .collect();
    crate::stats::median(&mut batches)
}
