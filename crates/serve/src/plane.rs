//! The pieces every shard of the decision plane ([`crate::routed`])
//! shares: configuration errors, link → shard placement, the per-link
//! controller factory, and the per-shard metrics and stream folding.

use mbac_core::admission::CertaintyEquivalent;
use mbac_core::estimators::FilteredEstimator;
use mbac_core::topology::LinkId;
use mbac_metrics::{
    Aggregated, Counter, FieldBuf, Histogram, MetricValue, MetricsSnapshot, Sampler, StreamHandle,
    StreamItem,
};
use mbac_sim::MbacController;
use std::sync::Arc;

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// A rejected decision-plane configuration (the CLI renders these as
/// friendly messages with exit code 1, like `mbac_sim::ConfigError`).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServeError {
    /// Zero shards requested.
    ZeroShards,
    /// Zero producer threads requested.
    ZeroProducers,
    /// Zero ring capacity requested.
    ZeroRingCapacity,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::ZeroShards => write!(f, "shards must be at least 1"),
            ServeError::ZeroProducers => write!(f, "producers must be at least 1"),
            ServeError::ZeroRingCapacity => write!(f, "ring capacity must be at least 1"),
        }
    }
}

impl std::error::Error for ServeError {}

// ---------------------------------------------------------------------
// Link hashing
// ---------------------------------------------------------------------

/// The SplitMix64 finalizer (same avalanche mix `mbac_sim::rep_seed`
/// builds on): bijective on `u64`, so link ids with low-bit structure
/// still spread across shards.
#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The shard owning `link` in a plane of `shards` shards.
#[inline]
pub fn shard_of(link: LinkId, shards: usize) -> usize {
    (splitmix64(link.as_u64()) % shards as u64) as usize
}

// ---------------------------------------------------------------------
// Controller factory
// ---------------------------------------------------------------------

/// Builds one per-link controller; shared by every shard so all links
/// run the identical policy.
pub type ControllerFactory = Arc<dyn Fn() -> MbacController + Send + Sync>;

/// The paper's controller as a factory: a [`FilteredEstimator`] with
/// memory time-scale `t_m` feeding a [`CertaintyEquivalent`] criterion
/// at target probability `p_ce`. One policy allocation is shared across
/// every controller the factory builds (`Arc<P>` is itself an
/// `AdmissionPolicy` — the controller-sharing impl in `mbac-core`).
pub fn certainty_equivalent_factory(p_ce: f64, t_m: f64) -> ControllerFactory {
    let policy = Arc::new(CertaintyEquivalent::from_probability(p_ce));
    Arc::new(move || {
        MbacController::new(
            Box::new(FilteredEstimator::new(t_m)),
            Box::new(Arc::clone(&policy)),
        )
    })
}

// ---------------------------------------------------------------------
// Per-shard metrics
// ---------------------------------------------------------------------

/// Instrument bundle one shard records into. Counters are deterministic
/// for a fixed workload and shard count; the decision-latency histogram
/// is machine-dependent and therefore **timing-gated**, mirroring the
/// `pool.*` convention.
#[derive(Debug, Clone)]
pub(crate) struct ShardMetrics {
    pub(crate) measures: Counter,
    pub(crate) requests: Counter,
    pub(crate) admitted: Counter,
    pub(crate) rejected: Counter,
    pub(crate) batches: Counter,
    pub(crate) decision_ns: Histogram,
    pub(crate) timing: bool,
}

impl ShardMetrics {
    pub(crate) fn new(timing: bool) -> Self {
        ShardMetrics {
            measures: Counter::new(),
            requests: Counter::new(),
            admitted: Counter::new(),
            rejected: Counter::new(),
            batches: Counter::new(),
            decision_ns: Histogram::new(),
            timing,
        }
    }

    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        let mut out = MetricsSnapshot::new();
        out.insert("measures", MetricValue::Counter(self.measures.snapshot()));
        out.insert("requests", MetricValue::Counter(self.requests.snapshot()));
        out.insert("admitted", MetricValue::Counter(self.admitted.snapshot()));
        out.insert("rejected", MetricValue::Counter(self.rejected.snapshot()));
        out.insert("batches", MetricValue::Counter(self.batches.snapshot()));
        if self.timing {
            out.insert(
                "decision_ns",
                MetricValue::Histogram(self.decision_ns.snapshot()),
            );
        }
        out
    }

    /// Folds one decision's unit-of-work record. Counter updates are
    /// identical to the per-instrument calls this replaces; the latency
    /// histogram stays timing-gated.
    pub(crate) fn fold_decision(&mut self, e: &DecisionEntry) {
        self.requests.inc();
        if e.admit {
            self.admitted.inc();
        } else {
            self.rejected.inc();
        }
        if let (true, Some(ns)) = (self.timing, e.latency_ns) {
            self.decision_ns.record(ns as f64);
        }
    }
}

/// One admission decision's unit-of-work record: accumulated on the
/// stack while the decision is made, folded into the shard's
/// instruments once, and (in streaming mode) offered to the sampler.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DecisionEntry {
    pub(crate) admit: bool,
    pub(crate) occupancy: u32,
    pub(crate) admissible: Option<f64>,
    pub(crate) latency_ns: Option<u64>,
}

impl DecisionEntry {
    /// The entry's fields as a sample payload.
    pub(crate) fn fields(&self) -> FieldBuf {
        let mut f = FieldBuf::new();
        f.push("admit", if self.admit { 1.0 } else { 0.0 });
        f.push("occupancy", f64::from(self.occupancy));
        if let Some(m) = self.admissible {
            f.push("admissible", m);
        }
        if let Some(ns) = self.latency_ns {
            f.push("latency_ns", ns as f64);
        }
        f
    }
}

/// Streaming-emission state of one shard: the shard index is the
/// producer stream, the per-shard decision count is the sequence.
/// Each link's decisions reach exactly one shard in per-link order, so
/// the (stream, seq) pairs — and therefore the sampler's keep set — are
/// deterministic for a fixed workload and shard count.
pub(crate) struct ShardStream {
    handle: StreamHandle,
    stream: u64,
    sampler: Sampler,
    flush_interval: u64,
    seq: u64,
}

impl ShardStream {
    pub(crate) fn new(handle: StreamHandle, stream: u64) -> Self {
        let sampler = handle.sampler_for(stream);
        let flush_interval = handle.flush_interval();
        ShardStream {
            handle,
            stream,
            sampler,
            flush_interval,
            seq: 0,
        }
    }

    /// Advances the stream by one folded decision, emitting a sampled
    /// raw record when the sampler keeps it. Returns `true` when a
    /// cumulative interval flush is due.
    pub(crate) fn advance(&mut self, e: &DecisionEntry) -> bool {
        self.seq += 1;
        if self.sampler.keep(self.seq) {
            self.handle.emit(StreamItem::Sample {
                stream: self.stream,
                seq: self.seq,
                // The decision plane has no simulation clock; samples
                // are ordered by `seq` alone.
                t: f64::NAN,
                fields: e.fields(),
            });
        }
        self.flush_interval > 0 && self.seq.is_multiple_of(self.flush_interval)
    }

    /// Emits one cumulative interval carrying `metrics`.
    pub(crate) fn emit_interval(&self, metrics: MetricsSnapshot) {
        self.handle.emit(StreamItem::Interval {
            stream: self.stream,
            seq: self.seq,
            t: f64::NAN,
            metrics,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_placement_is_total_and_stable() {
        let mut seen = [false; 4];
        for link in (0..1000u32).map(LinkId) {
            let s = shard_of(link, 4);
            assert!(s < 4);
            assert_eq!(s, shard_of(link, 4), "placement must be stable");
            seen[s] = true;
        }
        assert!(seen.iter().all(|&hit| hit), "every shard owns some link");
        assert!((0..1000u32).all(|l| shard_of(LinkId(l), 1) == 0));
    }
}
