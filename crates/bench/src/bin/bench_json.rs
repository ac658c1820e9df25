//! Emits machine-readable performance numbers for the batched flow
//! engine, the fused tick kernels, the admission hot path, and the
//! persistent replication pool to `results/BENCH_simulator.json`, and
//! appends a one-line summary to `results/BENCH_trajectory.jsonl`.
//!
//! Five measurements:
//!
//! 1. **Tick loop** (the hot path): advance + departures + snapshot for
//!    `N` flows, comparing
//!    * `seed_boxed` — the pre-batching engine, reproduced literally
//!      (including its Marsaglia-polar Gaussian and inverse-CDF
//!      exponential samplers): one box per flow, a virtual `advance`
//!      walk, a second virtual `rate()` walk for the snapshot, and an
//!      O(N) `retain` departure scan per tick;
//!    * `unbatched` — `FlowTable::new_unbatched()` (boxed fallback
//!      group: single fused advance+rate walk, cached min-departure);
//!    * `batched` — `FlowTable::new()` (struct-of-arrays kernels).
//! 2. **Fused tick** (AR(1)): the pre-fusion tick path — scalar
//!    while-loop SoA kernel, snapshot copy, then a separate two-pass
//!    mean/variance fold — frozen here literally, against the fused
//!    `advance_depart_measure` path (one SoA pass that evolves traffic
//!    and accumulates the controller's sufficient statistics).
//! 3. **Kernel dispatch ablation**: the same lane-tiled kernels timed
//!    under `KernelDispatch::Scalar` vs `KernelDispatch::Wide` — the
//!    innovation fill in isolation, the AR(1) table tick loop, and the
//!    fused measure tick — so the wide-lane speedup is attributable
//!    per kernel. The two modes are bit-exact twins (enforced by the
//!    dispatch-twin proptests), so this is a pure performance ablation.
//! 4. **Admission decision**: ns per decision through the controller's
//!    decision memo (hit vs miss) and through the aggregate Gaussian
//!    test's guard-banded threshold compare vs the exact tail.
//! 5. **End-to-end continuous run** (controller + meter included),
//!    boxed fallback vs batched.
//! 6. **Replication scaling** of the impulsive harness across worker
//!    counts (deterministic by construction; scaling is bounded by the
//!    machine's `available_parallelism`, which is recorded). On a
//!    single-core machine the multi-worker rows would only measure
//!    scheduler thrash, so they are skipped and the block carries a
//!    `"skipped_single_core": true` marker instead; cross-commit
//!    comparisons must treat such a block as incomparable rather than
//!    as a regression.
//! 7. **Serve plane**: the closed-loop decision-plane bench — a
//!    request workload on independent links (`Topology::single_hop`,
//!    one single-hop route per link, 50 flows each) replayed through
//!    the sharded `mbac-serve` plane, reporting p50/p99/mean decision latency and
//!    sustained decisions/sec. The serial reference row always runs;
//!    the sharded sweep is gated behind multi-core hosts with the same
//!    `skipped_single_core` marker as the replication scaling block.
//! 8. **Routed topology plane**: the same closed-loop bench over a
//!    parking-lot(3) topology — every decision joins three per-hop
//!    votes through the two-phase reserve/commit — so the cost of
//!    multi-hop composition relative to single-hop decisions is on
//!    record. Serial row always; shard sweep behind the same
//!    single-core gate (reusing `MBAC_SERVE_SHARDS`/`MBAC_SERVE_TICKS`).
//! 9. **Metrics overhead** at 10⁶ flows (`metrics_overhead` block):
//!    sink disabled vs snapshot vs streaming collection.
//! 10. **Churn lifecycle** (`churn` block): the flow lifecycle alone —
//!     expire + replace under Poisson churn at steady state, no process
//!     advance — on the timing-wheel `FlowTable` vs the frozen
//!     pre-calendar `ReferenceFlowTable`, at 10³/10⁵/10⁶ concurrent
//!     flows. The wheel's claim on record: a departing tick costs
//!     O(departures popped), the legacy table pays an O(flows in
//!     system) scan-and-rescan.
//!
//! Environment knobs (all optional; defaults in parentheses):
//! * `MBAC_BENCH_FLOWS` (400) — flows per tick-loop benchmark;
//! * `MBAC_BENCH_TICKS` (5000) — ticks per tick-loop benchmark;
//! * `MBAC_BENCH_REPS` (400) — replications in the scaling benchmark;
//! * `MBAC_BENCH_WORKERS` (`1,2,4`) — comma-separated worker counts;
//! * `MBAC_SERVE_LINKS` (32) — links in the serve-plane workload;
//! * `MBAC_SERVE_TICKS` (200) — measurement ticks per serve link;
//! * `MBAC_SERVE_SHARDS` (`2,4`) — sharded sweep shard counts;
//! * `MBAC_METRICS_FLOWS` (1000000) — flows in the metrics-overhead
//!   benchmark (the 10^6-flow unit-of-work headline);
//! * `MBAC_CHURN_FLOWS` (1000000) — largest population in the churn
//!   lifecycle benchmark (standard sizes above the cap are dropped and
//!   the cap itself is benchmarked, so CI smoke stays fast).
//!
//! Every metric is validated finite before the JSON is written; a NaN
//! or infinity anywhere aborts the run with a non-zero exit.
//!
//! Usage: `cargo run --release -p mbac-bench --bin bench_json`

use mbac_core::admission::{AggregateGaussian, CertaintyEquivalent};
use mbac_core::estimators::heterogeneous::AggregateEstimate;
use mbac_core::estimators::snapshot_stats;
use mbac_core::params::{FlowStats, QosTarget};
use mbac_core::topology::Topology;
use mbac_metrics::{StreamConfig, StreamSink};
use mbac_num::rng::NormalSampler;
use mbac_num::KernelDispatch;
use mbac_serve::{routed_closed_loop_with_parallelism, BenchReport, RoutedBenchConfig};
use mbac_sim::{
    ContinuousConfig, ContinuousLoad, Engine, FlowTable, ImpulsiveConfig, ImpulsiveLoad,
    MbacController, MetricsMode, ReferenceFlowTable, SessionBuilder,
};
use mbac_traffic::ar1::{Ar1Config, Ar1Model};
use mbac_traffic::process::SourceModel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const TICK: f64 = 0.25;

/// Benchmark sizes, overridable from the environment so the CI smoke
/// job can run the full binary in seconds.
struct Params {
    n_flows: usize,
    ticks: usize,
    replications: usize,
    workers: Vec<usize>,
}

fn env_usize(name: &str, default: usize) -> usize {
    match std::env::var(name) {
        Ok(s) => s
            .trim()
            .parse()
            .unwrap_or_else(|e| panic!("{name}={s:?} is not a usize: {e}")),
        Err(_) => default,
    }
}

fn env_workers() -> Vec<usize> {
    match std::env::var("MBAC_BENCH_WORKERS") {
        Ok(s) => s
            .split(',')
            .map(|w| {
                let w = w.trim();
                w.parse()
                    .unwrap_or_else(|e| panic!("MBAC_BENCH_WORKERS entry {w:?}: {e}"))
            })
            .collect(),
        Err(_) => vec![1, 2, 4],
    }
}

impl Params {
    fn from_env() -> Self {
        let p = Params {
            n_flows: env_usize("MBAC_BENCH_FLOWS", 400),
            ticks: env_usize("MBAC_BENCH_TICKS", 5_000),
            replications: env_usize("MBAC_BENCH_REPS", 400),
            workers: env_workers(),
        };
        assert!(p.n_flows > 0 && p.ticks > 0 && p.replications > 0);
        assert!(!p.workers.is_empty() && p.workers.iter().all(|&w| w > 0));
        p
    }
}

/// Asserts a metric is finite before it reaches the JSON (a NaN would
/// otherwise serialize silently and poison downstream comparisons).
fn finite(label: &str, x: f64) -> f64 {
    assert!(x.is_finite(), "bench metric {label} is not finite: {x}");
    x
}

/// Emits one JSON row per [`BenchReport`] (shared by the serve and
/// topology blocks, which record identical per-row fields).
fn write_bench_rows(json: &mut String, label: &str, rows: &[BenchReport]) {
    let n = rows.len();
    for (i, r) in rows.iter().enumerate() {
        eprintln!(
            "{label}/{} ({} shards, {} producers): {:.0} decisions/s, \
             p50 {:.0} ns, p99 {:.0} ns",
            r.mode, r.shards, r.producers, r.decisions_per_sec, r.p50_ns, r.p99_ns
        );
        let _ = writeln!(json, "      {{");
        let _ = writeln!(json, "        \"mode\": \"{}\",", r.mode);
        let _ = writeln!(json, "        \"shards\": {},", r.shards);
        let _ = writeln!(json, "        \"producers\": {},", r.producers);
        let _ = writeln!(json, "        \"decisions\": {},", r.decisions);
        let _ = writeln!(json, "        \"admitted\": {},", r.admitted);
        let _ = writeln!(json, "        \"rejected\": {},", r.rejected);
        let _ = writeln!(
            json,
            "        \"decisions_per_sec\": {:.0},",
            finite("decisions_per_sec", r.decisions_per_sec)
        );
        let _ = writeln!(
            json,
            "        \"p50_ns\": {:.1},",
            finite("p50_ns", r.p50_ns)
        );
        let _ = writeln!(
            json,
            "        \"p99_ns\": {:.1},",
            finite("p99_ns", r.p99_ns)
        );
        let _ = writeln!(
            json,
            "        \"mean_ns\": {:.1},",
            finite("mean_ns", r.mean_ns)
        );
        let _ = writeln!(
            json,
            "        \"elapsed_seconds\": {:.4}",
            finite("elapsed_seconds", r.elapsed_secs)
        );
        let _ = writeln!(json, "      }}{}", if i + 1 < n { "," } else { "" });
    }
}

fn ar1_cfg() -> Ar1Config {
    Ar1Config {
        mean: 1.0,
        std_dev: 0.3,
        t_c: 1.0,
        tick: 0.05,
        clamp_at_zero: true,
    }
}

fn ar1_model() -> Ar1Model {
    Ar1Model::new(ar1_cfg())
}

/// The engine exactly as it stood at the seed commit, frozen here so
/// the baseline cannot silently improve as the library evolves:
/// Marsaglia-polar Gaussians, inverse-CDF exponentials, per-flow heap
/// boxes, per-step recomputation of the AR(1) constants, a virtual
/// `advance` walk, an O(N) `retain` departure scan, and a second
/// virtual `rate()` walk for the snapshot.
mod seed_engine {
    use mbac_traffic::ar1::Ar1Config;
    use mbac_traffic::rcbr::RcbrConfig;
    use rand::rngs::StdRng;
    use rand::Rng;

    fn standard_normal(rng: &mut StdRng) -> f64 {
        loop {
            let u: f64 = rng.gen_range(-1.0..1.0);
            let v: f64 = rng.gen_range(-1.0..1.0);
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                return u * (-2.0 * s.ln() / s).sqrt();
            }
        }
    }

    fn normal(rng: &mut StdRng, mean: f64, sd: f64) -> f64 {
        mean + sd * standard_normal(rng)
    }

    fn normal_truncated_below(rng: &mut StdRng, mean: f64, sd: f64, lo: f64) -> f64 {
        loop {
            let x = normal(rng, mean, sd);
            if x >= lo {
                return x;
            }
        }
    }

    fn exponential(rng: &mut StdRng, mean: f64) -> f64 {
        let u: f64 = rng.gen::<f64>();
        -mean * (1.0 - u).ln()
    }

    pub trait SeedProcess {
        fn advance(&mut self, dt: f64, rng: &mut StdRng);
        fn rate(&self) -> f64;
    }

    struct SeedRcbr {
        cfg: RcbrConfig,
        rate: f64,
        remaining: f64,
    }

    impl SeedRcbr {
        fn draw_rate(&self, rng: &mut StdRng) -> f64 {
            if self.cfg.truncate_at_zero {
                normal_truncated_below(rng, self.cfg.mean, self.cfg.std_dev.max(1e-300), 0.0)
            } else {
                normal(rng, self.cfg.mean, self.cfg.std_dev)
            }
        }
    }

    impl SeedProcess for SeedRcbr {
        fn advance(&mut self, dt: f64, rng: &mut StdRng) {
            let mut left = dt;
            while left >= self.remaining {
                left -= self.remaining;
                self.rate = self.draw_rate(rng);
                self.remaining = exponential(rng, self.cfg.t_c);
            }
            self.remaining -= left;
        }

        fn rate(&self) -> f64 {
            self.rate
        }
    }

    pub fn spawn_rcbr(cfg: RcbrConfig, rng: &mut StdRng) -> Box<dyn SeedProcess> {
        let mut s = SeedRcbr {
            cfg,
            rate: 0.0,
            remaining: 0.0,
        };
        s.rate = s.draw_rate(rng);
        s.remaining = exponential(rng, cfg.t_c);
        Box::new(s)
    }

    struct SeedAr1 {
        cfg: Ar1Config,
        value: f64,
        elapsed: f64,
    }

    impl SeedProcess for SeedAr1 {
        fn advance(&mut self, dt: f64, rng: &mut StdRng) {
            self.elapsed += dt;
            while self.elapsed >= self.cfg.tick {
                self.elapsed -= self.cfg.tick;
                // The seed recomputed both constants on every step.
                let a = (-self.cfg.tick / self.cfg.t_c).exp();
                let innovation_sd = self.cfg.std_dev * (1.0 - a * a).sqrt();
                self.value = self.cfg.mean
                    + a * (self.value - self.cfg.mean)
                    + innovation_sd * standard_normal(rng);
            }
        }

        fn rate(&self) -> f64 {
            if self.cfg.clamp_at_zero {
                self.value.max(0.0)
            } else {
                self.value
            }
        }
    }

    pub fn spawn_ar1(cfg: Ar1Config, rng: &mut StdRng) -> Box<dyn SeedProcess> {
        let value = normal(rng, cfg.mean, cfg.std_dev);
        Box::new(SeedAr1 {
            cfg,
            value,
            elapsed: 0.0,
        })
    }
}

/// The batched AR(1) kernel exactly as it stood before the fused
/// measurement pass, frozen so the fusion baseline cannot drift: a
/// scalar per-flow while-loop over tick boundaries with the tick
/// coefficients hoisted, relying on the library's ziggurat sampler —
/// the same draws, in the same order, as the fused kernel.
mod prefusion {
    use mbac_num::rng::{normal, standard_normal};
    use mbac_traffic::ar1::Ar1Config;
    use rand::rngs::StdRng;

    pub struct PrefusionAr1 {
        cfg: Ar1Config,
        a: f64,
        innovation_sd: f64,
        values: Vec<f64>,
        elapsed: Vec<f64>,
        rates: Vec<f64>,
    }

    impl PrefusionAr1 {
        pub fn new(cfg: Ar1Config) -> Self {
            let a = (-cfg.tick / cfg.t_c).exp();
            let innovation_sd = cfg.std_dev * (1.0 - a * a).sqrt();
            PrefusionAr1 {
                cfg,
                a,
                innovation_sd,
                values: Vec::new(),
                elapsed: Vec::new(),
                rates: Vec::new(),
            }
        }

        pub fn spawn_one(&mut self, rng: &mut StdRng) {
            let value = normal(rng, self.cfg.mean, self.cfg.std_dev);
            self.values.push(value);
            self.elapsed.push(0.0);
            self.rates.push(if self.cfg.clamp_at_zero {
                value.max(0.0)
            } else {
                value
            });
        }

        pub fn advance_all(&mut self, dt: f64, rng: &mut StdRng) {
            let (mean, tick, clamp) = (self.cfg.mean, self.cfg.tick, self.cfg.clamp_at_zero);
            let (a, sd) = (self.a, self.innovation_sd);
            for ((value, elapsed), rate) in self
                .values
                .iter_mut()
                .zip(self.elapsed.iter_mut())
                .zip(self.rates.iter_mut())
            {
                let mut v = *value;
                let mut e = *elapsed + dt;
                while e >= tick {
                    e -= tick;
                    v = mean + a * (v - mean) + sd * standard_normal(rng);
                }
                *value = v;
                *elapsed = e;
                *rate = if clamp { v.max(0.0) } else { v };
            }
        }

        pub fn rates(&self) -> &[f64] {
            &self.rates
        }
    }
}

/// The seed's tick loop, reproduced literally for an honest baseline.
struct SeedBoxedLoop {
    flows: Vec<(Box<dyn seed_engine::SeedProcess>, f64)>,
}

impl SeedBoxedLoop {
    fn tick(&mut self, dt: f64, t: f64, rng: &mut StdRng, snap: &mut Vec<f64>) -> f64 {
        for (p, _) in &mut self.flows {
            p.advance(dt, rng);
        }
        self.flows.retain(|&(_, departs_at)| departs_at > t);
        snap.clear();
        snap.extend(self.flows.iter().map(|(p, _)| p.rate()));
        snap.iter().sum()
    }
}

/// Minimum over interleaved rounds: the standard estimator for
/// wall-clock timings on a shared machine, where noise is strictly
/// additive. The contenders are interleaved (a full round runs each
/// once) so a noisy phase hits all of them rather than biasing one.
fn best_of_interleaved<const K: usize>(mut runs: [&mut dyn FnMut() -> f64; K]) -> [f64; K] {
    let mut best = [f64::INFINITY; K];
    for _ in 0..5 {
        for (b, run) in best.iter_mut().zip(runs.iter_mut()) {
            *b = b.min(run());
        }
    }
    best
}

/// ns/tick for the seed-style boxed loop.
fn time_seed_loop(
    p: &Params,
    spawn: &dyn Fn(&mut StdRng) -> Box<dyn seed_engine::SeedProcess>,
) -> f64 {
    let mut rng = StdRng::seed_from_u64(5);
    let flows = (0..p.n_flows)
        .map(|_| (spawn(&mut rng), f64::INFINITY))
        .collect();
    let mut engine = SeedBoxedLoop { flows };
    let mut snap = Vec::new();
    let mut acc = 0.0;
    let start = Instant::now();
    let mut t = 0.0;
    for _ in 0..p.ticks {
        t += TICK;
        acc += engine.tick(TICK, t, &mut rng, &mut snap);
    }
    let elapsed = start.elapsed().as_nanos() as f64 / p.ticks as f64;
    assert!(acc.is_finite());
    elapsed
}

/// ns/tick for a FlowTable engine (batched or unbatched fallback).
fn time_table_loop(p: &Params, model: &dyn SourceModel, table: &mut FlowTable) -> f64 {
    let mut rng = StdRng::seed_from_u64(5);
    for _ in 0..p.n_flows {
        table.admit(model, f64::INFINITY, &mut rng);
    }
    let mut snap = Vec::new();
    let mut acc = 0.0;
    let start = Instant::now();
    let mut t = 0.0;
    for _ in 0..p.ticks {
        t += TICK;
        table.advance_to(t, &mut rng);
        table.depart_until(t);
        table.snapshot_into(&mut snap);
        acc += snap.iter().sum::<f64>();
    }
    let elapsed = start.elapsed().as_nanos() as f64 / p.ticks as f64;
    assert!(acc.is_finite());
    elapsed
}

/// The method surface the churn lifecycle bench drives; implemented by
/// the wheel table and the frozen reference so one loop times both.
trait ChurnTable {
    fn admit(&mut self, model: &dyn SourceModel, departs_at: f64, rng: &mut StdRng) -> u64;
    fn depart_until(&mut self, t: f64) -> usize;
    fn len(&self) -> usize;
    fn departed_total(&self) -> u64;
}

macro_rules! impl_churn_table {
    ($($t:ty),*) => {$(
        impl ChurnTable for $t {
            fn admit(&mut self, model: &dyn SourceModel, departs_at: f64, rng: &mut StdRng) -> u64 {
                <$t>::admit(self, model, departs_at, rng)
            }
            fn depart_until(&mut self, t: f64) -> usize {
                <$t>::depart_until(self, t)
            }
            fn len(&self) -> usize {
                <$t>::len(self)
            }
            fn departed_total(&self) -> u64 {
                <$t>::departed_total(self)
            }
        }
    )*};
}
impl_churn_table!(FlowTable, ReferenceFlowTable);

fn exp_hold(rng: &mut StdRng, mean: f64) -> f64 {
    use rand::Rng as _;
    let u: f64 = rng.gen();
    -mean * (1.0 - u).ln()
}

/// (ns per tick, departures in the timed window, final flows in system)
/// for the steady-state churn loop: each tick expires the due flows and
/// admits one replacement per departure, so the population holds at `n`
/// and the workload is *bit-identical* across table implementations
/// (departure counts match exactly, hence so do the RNG streams — the
/// caller asserts it). No process advance: this times the lifecycle
/// machinery alone.
fn time_churn<T: ChurnTable>(
    make: impl Fn() -> T,
    model: &dyn SourceModel,
    n: usize,
    ticks: usize,
    mean_holding: f64,
) -> (f64, u64, usize) {
    let mut rng = StdRng::seed_from_u64(17);
    let mut table = make();
    let mut t = 0.0;
    for _ in 0..n {
        let h = exp_hold(&mut rng, mean_holding);
        table.admit(model, t + h, &mut rng);
    }
    let start = Instant::now();
    for _ in 0..ticks {
        t += TICK;
        let departed = table.depart_until(t);
        for _ in 0..departed {
            let h = exp_hold(&mut rng, mean_holding);
            table.admit(model, t + h, &mut rng);
        }
    }
    let ns = start.elapsed().as_nanos() as f64 / ticks as f64;
    (ns, table.departed_total(), table.len())
}

/// ns/tick for the pre-fusion AR(1) tick path, reproduced literally:
/// scalar kernel advance, snapshot copy, a two-pass mean/variance fold
/// for the estimator, and a separate load sum for the sink.
fn time_prefusion_tick(p: &Params) -> f64 {
    let mut rng = StdRng::seed_from_u64(5);
    let mut batch = prefusion::PrefusionAr1::new(ar1_cfg());
    for _ in 0..p.n_flows {
        batch.spawn_one(&mut rng);
    }
    let mut snap: Vec<f64> = Vec::new();
    let mut acc = 0.0;
    let start = Instant::now();
    for _ in 0..p.ticks {
        batch.advance_all(TICK, &mut rng);
        snap.clear();
        snap.extend_from_slice(batch.rates());
        let est = snapshot_stats(&snap).expect("non-empty snapshot");
        acc += black_box(est.mean) + black_box(est.variance);
        acc += snap.iter().sum::<f64>();
    }
    let elapsed = start.elapsed().as_nanos() as f64 / p.ticks as f64;
    assert!(acc.is_finite());
    elapsed
}

/// ns/tick for the fused AR(1) tick path: one SoA pass that evolves the
/// flows and accumulates the controller's sufficient statistics, from
/// which mean, variance and the sink's load are all O(1).
fn time_fused_tick(p: &Params) -> f64 {
    let model = ar1_model();
    let mut table = FlowTable::new();
    let mut rng = StdRng::seed_from_u64(5);
    for _ in 0..p.n_flows {
        table.admit(&model, f64::INFINITY, &mut rng);
    }
    let mut acc = 0.0;
    let start = Instant::now();
    let mut t = 0.0;
    let mut pivot = 1.0;
    for _ in 0..p.ticks {
        t += TICK;
        let mom = table.advance_depart_measure(t, &mut rng, pivot);
        let n = mom.count().max(1) as f64;
        let mean = mom.sum() / n;
        acc += black_box(mean) + black_box(mom.sum_sq_dev(mean));
        acc += mom.sum();
        pivot = mean;
    }
    let elapsed = start.elapsed().as_nanos() as f64 / p.ticks as f64;
    assert!(acc.is_finite());
    elapsed
}

/// ns per ziggurat innovation fill of `n_flows` values under the given
/// dispatch mode — the flow-major fill kernel in isolation, without the
/// recurrence or measurement passes on top.
fn time_fill(p: &Params, dispatch: KernelDispatch) -> f64 {
    let sampler = NormalSampler::get();
    let mut rng = StdRng::seed_from_u64(9);
    let mut buf = vec![0.0f64; p.n_flows];
    let mut acc = 0.0;
    let start = Instant::now();
    for _ in 0..p.ticks {
        sampler.fill_with(dispatch, &mut rng, &mut buf);
        acc += buf[0];
    }
    let elapsed = start.elapsed().as_nanos() as f64 / p.ticks as f64;
    assert!(acc.is_finite());
    elapsed
}

/// Runs `f` with the global kernel dispatch pinned to `dispatch`,
/// restoring the previous mode afterwards so the surrounding
/// measurements keep the default.
fn with_dispatch<T>(dispatch: KernelDispatch, f: impl FnOnce() -> T) -> T {
    let prev = dispatch.set_global();
    let out = f();
    prev.set_global();
    out
}

fn continuous_cfg(p: &Params) -> ContinuousConfig {
    ContinuousConfig {
        capacity: p.n_flows as f64,
        mean_holding: 10.0 * (p.n_flows as f64).sqrt(),
        tick: TICK,
        warmup: 50.0,
        sample_spacing: 20.0,
        target: 1e-2,
        max_samples: 200,
        seed: 6,
    }
}

fn controller() -> MbacController {
    MbacController::new(
        Box::new(mbac_core::estimators::FilteredEstimator::new(5.0)),
        Box::new(CertaintyEquivalent::from_probability(1e-2)),
    )
}

/// Seconds for one end-to-end continuous run on the given engine.
fn time_continuous(p: &Params, model: &dyn SourceModel, engine: Engine) -> f64 {
    let mut ctl = controller();
    let start = Instant::now();
    let rep = SessionBuilder::new()
        .engine(engine)
        .run_local(&ContinuousLoad::new(&continuous_cfg(p), model, &mut ctl))
        .expect("valid bench config");
    let secs = start.elapsed().as_secs_f64();
    assert!(rep.pf.samples > 0);
    secs
}

/// ns per admission decision through the controller's decision memo:
/// `hit` repeats one (estimate, capacity) key, `miss` alternates two
/// capacities so every call recomputes the Gaussian inversion.
fn time_controller_decisions() -> (f64, f64) {
    const ITERS: usize = 200_000;
    let mut ctl = controller();
    let mut rng = StdRng::seed_from_u64(7);
    let rates: Vec<f64> = (0..400)
        .map(|_| mbac_num::rng::normal(&mut rng, 1.0, 0.3))
        .collect();
    for k in 0..64 {
        ctl.observe(k as f64 * TICK, &rates);
    }
    let time = |caps: &[f64]| {
        let mut acc = 0.0;
        let start = Instant::now();
        for i in 0..ITERS {
            let c = caps[i % caps.len()];
            acc += ctl
                .admissible_count(black_box(c))
                .expect("estimator warmed up");
        }
        assert!(acc.is_finite());
        start.elapsed().as_nanos() as f64 / ITERS as f64
    };
    let [hit_ns, miss_ns] =
        best_of_interleaved([&mut || time(&[400.0]), &mut || time(&[400.0, 401.0])]);
    (hit_ns, miss_ns)
}

/// ns per aggregate Gaussian admission decision: the guard-banded
/// threshold compare (`admit`) vs the exact tail evaluation it
/// replaces (`post_admission_overflow ≤ p`). Decision-identical.
fn time_aggregate_decisions() -> (f64, f64) {
    const ITERS: usize = 200_000;
    let gauss = AggregateGaussian::new(QosTarget::new(1e-2));
    let cand = FlowStats::new(1.0, 0.09);
    let run = |exact: bool| {
        let mut admitted = 0usize;
        let start = Instant::now();
        for i in 0..ITERS {
            let agg = AggregateEstimate {
                mean: 360.0 + (i % 32) as f64,
                variance: 36.0,
                flows: 400,
            };
            let ok = if exact {
                gauss.post_admission_overflow(black_box(agg), cand, 400.0) <= 1e-2
            } else {
                gauss.admit(black_box(agg), cand, 400.0)
            };
            admitted += ok as usize;
        }
        assert!(admitted > 0 && admitted < ITERS);
        start.elapsed().as_nanos() as f64 / ITERS as f64
    };
    let [threshold_ns, exact_ns] = best_of_interleaved([&mut || run(false), &mut || run(true)]);
    (threshold_ns, exact_ns)
}

/// The ar1 `batched_ns_per_tick` recorded by the previous bench run —
/// i.e. the kernel as of the last commit that refreshed the results
/// file — so the new JSON can state the tick-loop speedup against it.
fn previous_ar1_batched_ns(path: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let ar1 = text.split("\"model\": \"ar1\"").nth(1)?;
    let field = ar1.split("\"batched_ns_per_tick\": ").nth(1)?;
    let num: String = field
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.')
        .collect();
    num.parse().ok()
}

fn main() {
    let p = Params::from_env();
    let prev_ar1_batched = previous_ar1_batched_ns("results/BENCH_simulator.json");
    let parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut json = String::from("{\n");
    let _ = writeln!(
        json,
        "  \"generated_by\": \"cargo run --release -p mbac-bench --bin bench_json\","
    );
    let _ = writeln!(json, "  \"available_parallelism\": {parallelism},");

    // 1. Tick loop.
    let _ = writeln!(json, "  \"tick_loop\": [");
    type SeedSpawner = Box<dyn Fn(&mut StdRng) -> Box<dyn seed_engine::SeedProcess>>;
    let rcbr_cfg = mbac_bench::bench_rcbr().config();
    let seed_ar1_cfg = ar1_cfg();
    let models: [(&str, Box<dyn SourceModel>, SeedSpawner); 2] = [
        (
            "rcbr",
            Box::new(mbac_bench::bench_rcbr()),
            Box::new(move |rng| seed_engine::spawn_rcbr(rcbr_cfg, rng)),
        ),
        (
            "ar1",
            Box::new(ar1_model()),
            Box::new(move |rng| seed_engine::spawn_ar1(seed_ar1_cfg, rng)),
        ),
    ];
    let mut ar1_batched_ns = f64::NAN;
    for (i, (name, model, seed_spawn)) in models.iter().enumerate() {
        let [seed_ns, unbatched_ns, batched_ns] = best_of_interleaved([
            &mut || time_seed_loop(&p, seed_spawn.as_ref()),
            &mut || time_table_loop(&p, model.as_ref(), &mut FlowTable::new_unbatched()),
            &mut || time_table_loop(&p, model.as_ref(), &mut FlowTable::new()),
        ]);
        if *name == "ar1" {
            ar1_batched_ns = batched_ns;
        }
        eprintln!(
            "tick_loop/{name}: seed {seed_ns:.0} ns, unbatched {unbatched_ns:.0} ns, \
             batched {batched_ns:.0} ns ({:.2}x vs seed)",
            seed_ns / batched_ns
        );
        if *name == "ar1" {
            if let Some(prev) = prev_ar1_batched {
                eprintln!(
                    "tick_loop/ar1: {:.2}x vs previously recorded batched kernel ({prev:.0} ns)",
                    prev / batched_ns
                );
            }
        }
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"model\": \"{name}\",");
        let _ = writeln!(json, "      \"n_flows\": {},", p.n_flows);
        let _ = writeln!(json, "      \"ticks\": {},", p.ticks);
        let _ = writeln!(json, "      \"available_parallelism\": {parallelism},");
        let _ = writeln!(
            json,
            "      \"seed_boxed_ns_per_tick\": {:.1},",
            finite("seed_boxed_ns_per_tick", seed_ns)
        );
        let _ = writeln!(
            json,
            "      \"unbatched_ns_per_tick\": {:.1},",
            finite("unbatched_ns_per_tick", unbatched_ns)
        );
        let _ = writeln!(
            json,
            "      \"batched_ns_per_tick\": {:.1},",
            finite("batched_ns_per_tick", batched_ns)
        );
        if *name == "ar1" {
            if let Some(prev) = prev_ar1_batched {
                let _ = writeln!(json, "      \"previous_batched_ns_per_tick\": {prev:.1},");
                let _ = writeln!(
                    json,
                    "      \"speedup_batched_vs_previous\": {:.2},",
                    finite("speedup_batched_vs_previous", prev / batched_ns)
                );
            }
        }
        let _ = writeln!(
            json,
            "      \"speedup_batched_vs_seed\": {:.2},",
            finite("speedup_batched_vs_seed", seed_ns / batched_ns)
        );
        let _ = writeln!(
            json,
            "      \"speedup_batched_vs_unbatched\": {:.2}",
            finite("speedup_batched_vs_unbatched", unbatched_ns / batched_ns)
        );
        let _ = writeln!(
            json,
            "    }}{}",
            if i + 1 < models.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ],");

    // 2. Fused tick kernel (AR(1)).
    let [prefusion_ns, fused_ns] =
        best_of_interleaved([&mut || time_prefusion_tick(&p), &mut || time_fused_tick(&p)]);
    let fused_speedup = prefusion_ns / fused_ns;
    eprintln!(
        "fused_tick/ar1: prefusion {prefusion_ns:.0} ns, fused {fused_ns:.0} ns \
         ({fused_speedup:.2}x)"
    );
    let _ = writeln!(json, "  \"fused_tick\": {{");
    let _ = writeln!(json, "    \"model\": \"ar1\",");
    let _ = writeln!(json, "    \"n_flows\": {},", p.n_flows);
    let _ = writeln!(json, "    \"ticks\": {},", p.ticks);
    let _ = writeln!(json, "    \"available_parallelism\": {parallelism},");
    let _ = writeln!(
        json,
        "    \"prefusion_ns_per_tick\": {:.1},",
        finite("prefusion_ns_per_tick", prefusion_ns)
    );
    let _ = writeln!(
        json,
        "    \"fused_ns_per_tick\": {:.1},",
        finite("fused_ns_per_tick", fused_ns)
    );
    let _ = writeln!(
        json,
        "    \"speedup_fused_vs_prefusion\": {:.2}",
        finite("speedup_fused_vs_prefusion", fused_speedup)
    );
    let _ = writeln!(json, "  }},");

    // 3. Kernel dispatch ablation: scalar vs wide, per kernel. The
    // modes are bit-exact twins, so any delta is pure implementation.
    let ar1 = ar1_model();
    type AblationRunner<'a> = &'a mut dyn FnMut(KernelDispatch) -> f64;
    let ablations: [(&str, &str, AblationRunner); 3] = [
        ("innovation_fill", "ns_per_fill", &mut |d| time_fill(&p, d)),
        ("ar1_tick_loop", "ns_per_tick", &mut |d| {
            with_dispatch(d, || time_table_loop(&p, &ar1, &mut FlowTable::new()))
        }),
        ("fused_measure_tick", "ns_per_tick", &mut |d| {
            with_dispatch(d, || time_fused_tick(&p))
        }),
    ];
    let _ = writeln!(json, "  \"kernel_dispatch\": [");
    let n_ablations = ablations.len();
    for (i, (kernel, unit, run)) in ablations.into_iter().enumerate() {
        // Interleaved best-of-5, same estimator as best_of_interleaved
        // (which can't be used here: both closures would need the same
        // mutable runner).
        let mut best = [f64::INFINITY; 2];
        for _ in 0..5 {
            for (b, d) in best
                .iter_mut()
                .zip([KernelDispatch::Scalar, KernelDispatch::Wide])
            {
                *b = b.min(run(d));
            }
        }
        let [scalar_ns, wide_ns] = best;
        let speedup = scalar_ns / wide_ns;
        eprintln!(
            "kernel_dispatch/{kernel}: scalar {scalar_ns:.0} ns, wide {wide_ns:.0} ns \
             ({speedup:.2}x)"
        );
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"kernel\": \"{kernel}\",");
        let _ = writeln!(json, "      \"n_flows\": {},", p.n_flows);
        let _ = writeln!(
            json,
            "      \"scalar_{unit}\": {:.1},",
            finite("scalar ablation", scalar_ns)
        );
        let _ = writeln!(
            json,
            "      \"wide_{unit}\": {:.1},",
            finite("wide ablation", wide_ns)
        );
        let _ = writeln!(
            json,
            "      \"speedup_wide_vs_scalar\": {:.2}",
            finite("speedup_wide_vs_scalar", speedup)
        );
        let _ = writeln!(json, "    }}{}", if i + 1 < n_ablations { "," } else { "" });
    }
    let _ = writeln!(json, "  ],");

    // 4. Admission decision hot path.
    let (hit_ns, miss_ns) = time_controller_decisions();
    let (threshold_ns, exact_ns) = time_aggregate_decisions();
    eprintln!(
        "admission_decision: memo hit {hit_ns:.1} ns, miss {miss_ns:.1} ns; \
         aggregate threshold {threshold_ns:.1} ns, exact tail {exact_ns:.1} ns"
    );
    let _ = writeln!(json, "  \"admission_decision\": {{");
    let _ = writeln!(json, "    \"available_parallelism\": {parallelism},");
    let _ = writeln!(
        json,
        "    \"controller_memo_hit_ns\": {:.1},",
        finite("controller_memo_hit_ns", hit_ns)
    );
    let _ = writeln!(
        json,
        "    \"controller_memo_miss_ns\": {:.1},",
        finite("controller_memo_miss_ns", miss_ns)
    );
    let _ = writeln!(
        json,
        "    \"aggregate_threshold_ns\": {:.1},",
        finite("aggregate_threshold_ns", threshold_ns)
    );
    let _ = writeln!(
        json,
        "    \"aggregate_exact_tail_ns\": {:.1}",
        finite("aggregate_exact_tail_ns", exact_ns)
    );
    let _ = writeln!(json, "  }},");

    // 5. End-to-end continuous run.
    let _ = writeln!(json, "  \"continuous_run\": [");
    for (i, (name, model, _)) in models.iter().enumerate() {
        let [boxed_s, batched_s] = best_of_interleaved([
            &mut || time_continuous(&p, model.as_ref(), Engine::Boxed),
            &mut || time_continuous(&p, model.as_ref(), Engine::Batched),
        ]);
        eprintln!(
            "continuous_run/{name}: boxed {boxed_s:.3} s, batched {batched_s:.3} s \
             ({:.2}x)",
            boxed_s / batched_s
        );
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"model\": \"{name}\",");
        let _ = writeln!(json, "      \"capacity\": {},", p.n_flows);
        let _ = writeln!(json, "      \"available_parallelism\": {parallelism},");
        let _ = writeln!(
            json,
            "      \"boxed_seconds\": {:.4},",
            finite("boxed_seconds", boxed_s)
        );
        let _ = writeln!(
            json,
            "      \"batched_seconds\": {:.4},",
            finite("batched_seconds", batched_s)
        );
        let _ = writeln!(
            json,
            "      \"speedup\": {:.2}",
            finite("speedup", boxed_s / batched_s)
        );
        let _ = writeln!(
            json,
            "    }}{}",
            if i + 1 < models.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ],");

    // 6. Replication scaling on the persistent pool. On a single-core
    // machine multi-worker rows would only measure scheduler thrash
    // (every "speedup" is noise around or below 1.0), so the sweep is
    // gated: only the first worker count runs, and the block carries a
    // machine-readable marker that downstream cross-commit comparisons
    // must treat as "incomparable", not "regressed".
    let cfg = ImpulsiveConfig {
        capacity: 100.0,
        estimation_flows: 100,
        mean_holding: Some(10.0),
        observe_times: vec![1.0, 5.0, 20.0],
        replications: p.replications,
        seed: 3,
    };
    let policy = CertaintyEquivalent::from_probability(1e-2);
    let model = mbac_bench::bench_rcbr();
    let single_core = parallelism == 1;
    let scaling_workers: Vec<usize> = if single_core {
        p.workers[..1].to_vec()
    } else {
        p.workers.clone()
    };
    if single_core && p.workers.len() > 1 {
        eprintln!(
            "impulsive: single-core machine, skipping worker counts {:?}",
            &p.workers[1..]
        );
    }
    let mut seconds = Vec::new();
    let _ = writeln!(json, "  \"replication_scaling\": {{");
    let _ = writeln!(json, "    \"replications\": {},", cfg.replications);
    let _ = writeln!(json, "    \"available_parallelism\": {parallelism},");
    let _ = writeln!(json, "    \"skipped_single_core\": {single_core},");
    let _ = writeln!(json, "    \"workers\": [");
    for (i, &w) in scaling_workers.iter().enumerate() {
        let start = Instant::now();
        let rep = SessionBuilder::new()
            .workers(w)
            .run(&ImpulsiveLoad::new(&cfg, &model, &policy))
            .expect("valid bench config");
        let secs = start.elapsed().as_secs_f64();
        assert_eq!(rep.replications, cfg.replications);
        seconds.push(secs);
        eprintln!(
            "impulsive/{w} workers: {secs:.3} s ({:.2}x vs {} worker{})",
            seconds[0] / secs,
            p.workers[0],
            if p.workers[0] == 1 { "" } else { "s" }
        );
        let _ = writeln!(
            json,
            "      {{ \"workers\": {w}, \"seconds\": {:.4}, \"speedup_vs_first\": {:.2} }}{}",
            finite("seconds", secs),
            finite("speedup_vs_first", seconds[0] / secs),
            if i + 1 < scaling_workers.len() {
                ","
            } else {
                ""
            }
        );
    }
    let _ = writeln!(json, "    ]");
    let _ = writeln!(json, "  }},");

    // 7. Serve plane: closed-loop decision latency and throughput on
    // independent links (one single-hop route per link). The serial
    // reference row always runs. The sharded sweep is gated the same way
    // as replication scaling: on a single-core host threaded rows would
    // measure scheduler churn, so they are skipped and the block carries
    // the `skipped_single_core` marker
    // (`routed_closed_loop_with_parallelism` re-checks the parallelism
    // it is given, so a gated host can never fake a threaded row).
    let serve_shard_counts: Vec<usize> = match std::env::var("MBAC_SERVE_SHARDS") {
        Ok(s) => s
            .split(',')
            .map(|w| {
                let w = w.trim();
                w.parse()
                    .unwrap_or_else(|e| panic!("MBAC_SERVE_SHARDS entry {w:?}: {e}"))
            })
            .collect(),
        Err(_) => vec![2, 4],
    };
    assert!(serve_shard_counts.iter().all(|&s| s > 0));
    let serve_links = env_usize("MBAC_SERVE_LINKS", 32);
    let serve_base = RoutedBenchConfig {
        topology: Arc::new(Topology::single_hop(serve_links, 60.0)),
        flows_per_route: 50,
        ticks: env_usize("MBAC_SERVE_TICKS", 200),
        ..RoutedBenchConfig::default()
    };
    let serve_model = mbac_bench::bench_rcbr();
    let serve_skipped = single_core && !serve_shard_counts.is_empty();
    if serve_skipped {
        eprintln!("serve: single-core machine, skipping shard counts {serve_shard_counts:?}");
    }
    let mut serve_rows =
        vec![
            routed_closed_loop_with_parallelism(&serve_base, &serve_model, parallelism)
                .expect("valid serve config"),
        ];
    if !single_core {
        for &shards in &serve_shard_counts {
            let cfg = RoutedBenchConfig {
                shards,
                producers: 2,
                ..serve_base.clone()
            };
            serve_rows.push(
                routed_closed_loop_with_parallelism(&cfg, &serve_model, parallelism)
                    .expect("valid serve config"),
            );
        }
    }
    let _ = writeln!(json, "  \"serve\": {{");
    let _ = writeln!(json, "    \"links\": {serve_links},");
    let _ = writeln!(
        json,
        "    \"flows_per_link\": {},",
        serve_base.flows_per_route
    );
    let _ = writeln!(json, "    \"ticks\": {},", serve_base.ticks);
    let _ = writeln!(
        json,
        "    \"requests_per_tick\": {},",
        serve_base.requests_per_tick
    );
    let _ = writeln!(json, "    \"available_parallelism\": {parallelism},");
    let _ = writeln!(json, "    \"skipped_single_core\": {serve_skipped},");
    let _ = writeln!(json, "    \"rows\": [");
    write_bench_rows(&mut json, "serve", &serve_rows);
    let _ = writeln!(json, "    ]");
    let _ = writeln!(json, "  }},");

    // 8. Routed topology plane: the closed loop again, but every
    // decision joins three per-hop votes on a parking-lot(3) route
    // through the two-phase reserve/commit. Same gating as the serve
    // block; the serial row is the cross-commit-comparable one.
    let routed_base = RoutedBenchConfig {
        ticks: serve_base.ticks,
        ..RoutedBenchConfig::default()
    };
    let mut routed_rows =
        vec![
            routed_closed_loop_with_parallelism(&routed_base, &serve_model, parallelism)
                .expect("valid routed config"),
        ];
    if !single_core {
        for &shards in &serve_shard_counts {
            let cfg = RoutedBenchConfig {
                shards,
                producers: 2,
                ..routed_base.clone()
            };
            routed_rows.push(
                routed_closed_loop_with_parallelism(&cfg, &serve_model, parallelism)
                    .expect("valid routed config"),
            );
        }
    }
    let _ = writeln!(json, "  \"topology\": {{");
    let _ = writeln!(json, "    \"shape\": \"parking-lot:3\",");
    let _ = writeln!(json, "    \"links\": {},", routed_base.topology.links());
    let _ = writeln!(json, "    \"routes\": {},", routed_base.topology.routes());
    let _ = writeln!(
        json,
        "    \"flows_per_route\": {},",
        routed_base.flows_per_route
    );
    let _ = writeln!(json, "    \"ticks\": {},", routed_base.ticks);
    let _ = writeln!(
        json,
        "    \"requests_per_tick\": {},",
        routed_base.requests_per_tick
    );
    let _ = writeln!(json, "    \"available_parallelism\": {parallelism},");
    let _ = writeln!(json, "    \"skipped_single_core\": {serve_skipped},");
    let _ = writeln!(json, "    \"rows\": [");
    write_bench_rows(&mut json, "topology", &routed_rows);
    let _ = writeln!(json, "    ]");
    let _ = writeln!(json, "  }},");

    // 9. Metrics overhead at 10^6 flows: the same impulsive burst run
    // three ways — sink disabled (the zero-cost default), snapshot
    // collection (unit-of-work entries folded into per-rep instrument
    // bundles), and streaming (folds plus a sampler draw per entry and
    // bounded-ring emission). The headline claims: streaming rides
    // within a few percent of disabled, and the retained-entry count is
    // bounded by the ring capacity, never by the flow count.
    let metrics_flows = env_usize("MBAC_METRICS_FLOWS", 1_000_000);
    let metrics_cfg = ImpulsiveConfig {
        capacity: metrics_flows as f64,
        estimation_flows: metrics_flows,
        mean_holding: Some(15.0),
        observe_times: vec![1.0],
        replications: 1,
        seed: 11,
    };
    let metrics_model = mbac_bench::bench_rcbr();
    let metrics_policy = CertaintyEquivalent::from_probability(1e-2);
    let mut stream_stats = None;
    let run_disabled = || {
        let scenario = ImpulsiveLoad::new(&metrics_cfg, &metrics_model, &metrics_policy);
        let start = Instant::now();
        let rep = SessionBuilder::new()
            .run_local(&scenario)
            .expect("valid metrics bench config");
        let secs = start.elapsed().as_secs_f64();
        black_box(rep);
        secs
    };
    let run_snapshot = || {
        let scenario = ImpulsiveLoad::new(&metrics_cfg, &metrics_model, &metrics_policy);
        let start = Instant::now();
        let (rep, snap) = SessionBuilder::new()
            .metrics(MetricsMode::Enabled)
            .run_local_metered(&scenario)
            .expect("valid metrics bench config");
        let secs = start.elapsed().as_secs_f64();
        black_box((rep, snap.len()));
        secs
    };
    let mut run_streaming = || {
        let scenario = ImpulsiveLoad::new(&metrics_cfg, &metrics_model, &metrics_policy);
        let sink = StreamSink::to_writer(StreamConfig::default(), Box::new(std::io::sink()));
        let handle = sink.handle();
        let start = Instant::now();
        let (rep, snap) = SessionBuilder::new()
            .stream(handle)
            .run_local_metered(&scenario)
            .expect("valid metrics bench config");
        let secs = start.elapsed().as_secs_f64();
        black_box((rep, snap.len()));
        stream_stats = Some(sink.finish().expect("stream writer joins"));
        secs
    };
    // The three timers differ by tens of ns/flow while host-level
    // throughput noise (frequency scaling, neighbors) swings whole runs
    // by far more, so independent per-mode minimums compare different
    // machine states and the comparison drowns. Instead each round runs
    // the three modes back to back — near-identical machine state — and
    // the reported overheads are the *median per-round ratio* to that
    // round's disabled run, which cancels slow drift; the absolute
    // ns/flow figures come from the fastest round's disabled time with
    // the median ratios applied, keeping the three columns consistent.
    const ROUNDS: usize = 10;
    let median = |xs: &mut [f64]| {
        xs.sort_by(f64::total_cmp);
        xs[xs.len() / 2]
    };
    let mut disabled_best = f64::INFINITY;
    let (mut snap_ratios, mut stream_ratios) = (Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        let d = run_disabled();
        snap_ratios.push(run_snapshot() / d);
        stream_ratios.push(run_streaming() / d);
        disabled_best = disabled_best.min(d);
    }
    let disabled_secs = disabled_best;
    let snapshot_secs = disabled_best * median(&mut snap_ratios);
    let streaming_secs = disabled_best * median(&mut stream_ratios);
    let stream_stats = stream_stats.expect("streaming timer ran");
    let per_flow = |secs: f64| secs * 1e9 / metrics_flows as f64;
    let streaming_overhead = streaming_secs / disabled_secs - 1.0;
    eprintln!(
        "metrics_overhead: {metrics_flows} flows — disabled {:.1} ns/flow, snapshot {:.1} \
         ns/flow, streaming {:.1} ns/flow ({:+.1}% vs disabled, {} retained, {} dropped)",
        per_flow(disabled_secs),
        per_flow(snapshot_secs),
        per_flow(streaming_secs),
        100.0 * streaming_overhead,
        stream_stats.ring_capacity,
        stream_stats.dropped,
    );
    let _ = writeln!(json, "  \"metrics_overhead\": {{");
    let _ = writeln!(json, "    \"flows\": {metrics_flows},");
    let _ = writeln!(json, "    \"replications\": 1,");
    let _ = writeln!(
        json,
        "    \"disabled_ns_per_flow\": {:.2},",
        finite("disabled_ns_per_flow", per_flow(disabled_secs))
    );
    let _ = writeln!(
        json,
        "    \"snapshot_ns_per_flow\": {:.2},",
        finite("snapshot_ns_per_flow", per_flow(snapshot_secs))
    );
    let _ = writeln!(
        json,
        "    \"streaming_ns_per_flow\": {:.2},",
        finite("streaming_ns_per_flow", per_flow(streaming_secs))
    );
    let _ = writeln!(
        json,
        "    \"snapshot_overhead_vs_disabled\": {:.4},",
        finite(
            "snapshot_overhead_vs_disabled",
            snapshot_secs / disabled_secs - 1.0
        )
    );
    let _ = writeln!(
        json,
        "    \"streaming_overhead_vs_disabled\": {:.4},",
        finite("streaming_overhead_vs_disabled", streaming_overhead)
    );
    // Entries retained in memory by the streaming path: the ring bound,
    // not the flow count — the bounded-memory claim, on record.
    let _ = writeln!(
        json,
        "    \"stream_entries_retained_bound\": {},",
        stream_stats.ring_capacity
    );
    let _ = writeln!(
        json,
        "    \"stream_intervals\": {},",
        stream_stats.intervals
    );
    let _ = writeln!(json, "    \"stream_samples\": {},", stream_stats.samples);
    let _ = writeln!(json, "    \"stream_dropped\": {}", stream_stats.dropped);
    let _ = writeln!(json, "  }},");

    // 10. Churn lifecycle: expire + replace at steady state under
    // Poisson churn, wheel table vs frozen reference, no process
    // advance. Holding times are exponential with mean 1000·tick, so
    // ~N/1000 flows depart (and are replaced) every tick — essentially
    // every tick is a departing tick, the regime where the legacy
    // table degrades to O(N·ticks).
    let churn_cap = env_usize("MBAC_CHURN_FLOWS", 1_000_000);
    assert!(churn_cap > 0, "MBAC_CHURN_FLOWS must be positive");
    let mut churn_sizes: Vec<usize> = [1_000, 100_000, 1_000_000]
        .into_iter()
        .filter(|&n| n <= churn_cap)
        .collect();
    if !churn_sizes.contains(&churn_cap) {
        churn_sizes.push(churn_cap);
    }
    const CHURN_HOLDING: f64 = 1000.0 * TICK;
    let churn_ticks = 200usize;
    let churn_model = mbac_bench::bench_rcbr();
    let _ = writeln!(json, "  \"churn\": {{");
    let _ = writeln!(json, "    \"tick\": {TICK},");
    let _ = writeln!(json, "    \"mean_holding\": {CHURN_HOLDING},");
    let _ = writeln!(json, "    \"ticks\": {churn_ticks},");
    let _ = writeln!(json, "    \"rows\": [");
    // (flows, wheel ns/tick, legacy ns/tick, speedup) of the largest
    // population — the trajectory headline.
    let mut churn_headline = (0usize, 0.0f64, 0.0f64, 0.0f64);
    for (i, &n) in churn_sizes.iter().enumerate() {
        let wheel_stats = std::cell::Cell::new((0u64, 0usize));
        let legacy_stats = std::cell::Cell::new((0u64, 0usize));
        let [wheel_ns, legacy_ns] = best_of_interleaved([
            &mut || {
                let (ns, departed, len) =
                    time_churn(FlowTable::new, &churn_model, n, churn_ticks, CHURN_HOLDING);
                wheel_stats.set((departed, len));
                ns
            },
            &mut || {
                let (ns, departed, len) = time_churn(
                    ReferenceFlowTable::new,
                    &churn_model,
                    n,
                    churn_ticks,
                    CHURN_HOLDING,
                );
                legacy_stats.set((departed, len));
                ns
            },
        ]);
        // Same seed ⇒ the two tables must have processed bit-identical
        // workloads; a mismatch here is an equivalence bug, not noise.
        assert_eq!(
            wheel_stats.get(),
            legacy_stats.get(),
            "churn workload diverged at {n} flows"
        );
        let (departed, _) = wheel_stats.get();
        let mean_departures = departed as f64 / churn_ticks as f64;
        let speedup = legacy_ns / wheel_ns;
        eprintln!(
            "churn/{n}: wheel {wheel_ns:.0} ns/tick, legacy {legacy_ns:.0} ns/tick \
             ({speedup:.1}x), {mean_departures:.1} departures/tick"
        );
        let _ = writeln!(
            json,
            "      {{ \"flows\": {n}, \"mean_departures_per_tick\": {:.2}, \
             \"wheel_ns_per_tick\": {:.1}, \"legacy_ns_per_tick\": {:.1}, \
             \"speedup\": {:.2} }}{}",
            finite("mean_departures_per_tick", mean_departures),
            finite("wheel_ns_per_tick", wheel_ns),
            finite("legacy_ns_per_tick", legacy_ns),
            finite("speedup", speedup),
            if i + 1 < churn_sizes.len() { "," } else { "" }
        );
        churn_headline = (n, wheel_ns, legacy_ns, speedup);
    }
    let _ = writeln!(json, "    ]");
    let _ = writeln!(json, "  }}");
    json.push_str("}\n");

    assert!(
        !json.contains("NaN") && !json.contains("inf"),
        "non-finite metric leaked into the JSON"
    );

    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write("results/BENCH_simulator.json", &json)
        .expect("write results/BENCH_simulator.json");
    println!("wrote results/BENCH_simulator.json");

    // One-line trajectory record, appended (never overwritten) so the
    // performance history across PRs survives regeneration.
    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let scaling: Vec<String> = scaling_workers
        .iter()
        .zip(&seconds)
        .map(|(w, s)| format!("[{w}, {s:.4}]"))
        .collect();
    // The serial reference row is always present and always comparable
    // across commits (threaded rows are host-shape-dependent).
    let serve_serial = &serve_rows[0];
    let routed_serial = &routed_rows[0];
    let line = format!(
        "{{\"unix_time\": {unix_time}, \"available_parallelism\": {parallelism}, \
         \"n_flows\": {}, \"ticks\": {}, \"ar1_batched_ns_per_tick\": {:.1}, \
         \"ar1_fused_ns_per_tick\": {:.1}, \"fused_speedup\": {:.2}, \
         \"memo_hit_ns\": {:.1}, \"workers_seconds\": [{}], \
         \"serve_decisions_per_sec\": {:.0}, \"serve_p50_ns\": {:.1}, \
         \"serve_p99_ns\": {:.1}, \"serve_skipped_single_core\": {serve_skipped}, \
         \"routed_decisions_per_sec\": {:.0}, \"routed_p50_ns\": {:.1}, \
         \"routed_p99_ns\": {:.1}, \"routed_skipped_single_core\": {serve_skipped}, \
         \"metrics_flows\": {metrics_flows}, \
         \"metrics_disabled_ns_per_flow\": {:.2}, \
         \"metrics_snapshot_ns_per_flow\": {:.2}, \
         \"metrics_streaming_ns_per_flow\": {:.2}, \
         \"metrics_streaming_overhead\": {:.4}, \
         \"churn_flows\": {}, \"churn_wheel_ns_per_tick\": {:.1}, \
         \"churn_legacy_ns_per_tick\": {:.1}, \"churn_speedup\": {:.2}}}\n",
        p.n_flows,
        p.ticks,
        finite("ar1_batched_ns_per_tick", ar1_batched_ns),
        fused_ns,
        fused_speedup,
        hit_ns,
        scaling.join(", "),
        finite("serve_decisions_per_sec", serve_serial.decisions_per_sec),
        finite("serve_p50_ns", serve_serial.p50_ns),
        finite("serve_p99_ns", serve_serial.p99_ns),
        finite("routed_decisions_per_sec", routed_serial.decisions_per_sec),
        finite("routed_p50_ns", routed_serial.p50_ns),
        finite("routed_p99_ns", routed_serial.p99_ns),
        finite("metrics_disabled_ns_per_flow", per_flow(disabled_secs)),
        finite("metrics_snapshot_ns_per_flow", per_flow(snapshot_secs)),
        finite("metrics_streaming_ns_per_flow", per_flow(streaming_secs)),
        finite("metrics_streaming_overhead", streaming_overhead),
        churn_headline.0,
        finite("churn_wheel_ns_per_tick", churn_headline.1),
        finite("churn_legacy_ns_per_tick", churn_headline.2),
        finite("churn_speedup", churn_headline.3),
    );
    use std::io::Write as _;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open("results/BENCH_trajectory.jsonl")
        .expect("open results/BENCH_trajectory.jsonl");
    f.write_all(line.as_bytes())
        .expect("append results/BENCH_trajectory.jsonl");
    println!("appended results/BENCH_trajectory.jsonl");
}
