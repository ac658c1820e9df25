//! The three simulator workloads: `fig5-quick`, `topology` and
//! `continuous-1m`.
//!
//! Untraced runs go through the library's own entry points
//! (`ContinuousScenario::run`, `SessionBuilder::run` on a
//! `RoutedNetworkLoad`). Traced runs replay the same tick loops here,
//! with the same public calls, RNG derivation and order, and wrap each
//! call into a layer in a span. A traced run first checks that its
//! replica reproduces the library run bit for bit.

use crate::stats::median;
use crate::trace::{timer_ns, Layer, Totals, Tracer};
use crate::{Args, Outcome};
use mbac_core::admission::CertaintyEquivalent;
use mbac_core::estimators::FilteredEstimator;
use mbac_experiments::figures::fig5_rows;
use mbac_experiments::scenarios::ContinuousScenario;
use mbac_experiments::topology::{
    topology_rows, topology_shape, TOPOLOGY_N, TOPOLOGY_P_CE, TOPOLOGY_RATIOS, TOPOLOGY_T_H,
};
use mbac_experiments::{paper, parallel_map};
use mbac_num::parallel::default_workers;
use mbac_num::rng::exponential;
use mbac_num::RunningStats;
use mbac_sim::{
    rep_seed, AdmissionEngine, ContinuousConfig, ContinuousReport, Engine, FlowTable, LinkId,
    LinkStats, MbacController, OverflowMeter, PathAdmission, RepContext, RouteId, RouteStats,
    RoutedNetworkConfig, RoutedNetworkLoad, RoutedNetworkReport, SessionBuilder, StopReason,
};
use mbac_traffic::rcbr::{RcbrConfig, RcbrModel};
use rand::rngs::StdRng;
use std::sync::Arc;
use std::time::Instant;

/// The Fig-5 memory grid (`exp_fig5`'s `T_m` values).
const FIG5_T_MS: [f64; 9] = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 31.6, 64.0];
/// Fig 5 at `n = 1000`.
const FIG5_N: f64 = 1000.0;
/// The quick Monte Carlo budget of `exp_fig5` (spaced samples).
const FIG5_QUICK_SAMPLES: u64 = 400;
/// Measurement ticks per `topology` replication: 10× the full
/// `exp_topology` budget, so one sweep lasts seconds.
const TOPOLOGY_TICKS: usize = 80_000;
/// System size of `continuous-1m`.
const C1M_N: f64 = 1e6;
/// Spaced samples of `continuous-1m`: ~830 ticks, of which the ramp to
/// 10⁶ flows takes ~150.
const C1M_SAMPLES: u64 = 100;
/// The seed `continuous-1m` runs at by default (Fig 5's base seed).
const C1M_SEED: u64 = 0x0F15;
/// A run repeats its set-up untimed for this long, then timed for this
/// long (at least `SETUP_MIN_REPS` and at most `SETUP_MAX_REPS` times),
/// and reports the median.
const SETUP_SECONDS: f64 = 0.25;
const SETUP_MIN_REPS: usize = 5;
const SETUP_MAX_REPS: usize = 10_000;
/// Fewest repetitions of the fixed work per run, whatever `--seconds`.
const MIN_RUNS: usize = 3;
/// Largest share of loop time the spans may leave uncovered.
const MAX_UNCOVERED: f64 = 0.05;

/// A figure's own seed offset by the benchmark seed: seed 0 keeps the
/// figure's seeds, and other seeds scatter.
pub fn derive_seed(figure_seed: u64, seed: u64) -> u64 {
    figure_seed.wrapping_add(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The paper's RCBR source (σ/μ = 0.3).
fn rcbr(t_c: f64) -> RcbrModel {
    RcbrModel::new(RcbrConfig {
        mean: paper::MEAN,
        std_dev: paper::COV * paper::MEAN,
        t_c,
        truncate_at_zero: true,
    })
}

/// Replication `rep`'s context as a session seeded with `seed` derives
/// it, on the batched engine.
fn rep_context(seed: u64, rep: u64) -> RepContext {
    RepContext {
        rep,
        seed: rep_seed(seed, rep),
        engine: Engine::Batched,
    }
}

/// The bits of a continuous report that must repeat exactly.
fn report_key(r: &ContinuousReport) -> [u64; 7] {
    [
        r.admitted,
        r.departed,
        r.pf.value.to_bits(),
        r.pf.samples,
        r.sim_time.to_bits(),
        r.mean_utilization.to_bits(),
        r.mean_flows.to_bits(),
    ]
}

/// Checks that must hold for every continuous-load report.
fn check_continuous(out: &mut Outcome, what: &str, r: &ContinuousReport) -> bool {
    out.notes.push(format!(
        "{what}: p_f {:.4e} ({:?}, {} samples, stopped {:?}), utilization {:.4}, \
         {:.1} flows, {} admitted, {} departed, t = {}",
        r.pf.value,
        r.pf.method,
        r.pf.samples,
        r.pf.stopped,
        r.mean_utilization,
        r.mean_flows,
        r.admitted,
        r.departed,
        r.sim_time
    ));
    let ok = r.pf.value.is_finite()
        && r.pf.value >= 0.0
        && r.mean_utilization > 0.0
        && r.mean_utilization <= 1.0;
    out.check(ok, || {
        format!(
            "{what}: p_f = {} must be finite and utilization = {} in (0, 1]",
            r.pf.value, r.mean_utilization
        )
    });
    ok
}

// ---------------------------------------------------------------------
// Timing of untraced runs
// ---------------------------------------------------------------------

/// One pass of a sweep: the reports and each point's wall time.
struct Pass<R> {
    reports: Vec<R>,
    point_s: Vec<f64>,
    wall_s: f64,
}

/// Runs `point` over `items` on the sweep pool (at most
/// `available_parallelism` workers), timing each point.
fn sweep<I: Send + Sync, R: Send>(items: &[I], point: impl Fn(&I) -> R + Sync) -> Pass<R> {
    let started = Instant::now();
    let refs: Vec<&I> = items.iter().collect();
    let timed = parallel_map(refs, |item| {
        let t = Instant::now();
        let r = point(item);
        (r, t.elapsed().as_secs_f64())
    });
    let wall_s = started.elapsed().as_secs_f64();
    let (reports, point_s) = timed.into_iter().unzip();
    Pass {
        reports,
        point_s,
        wall_s,
    }
}

/// Times `setup` repeatedly, after as long a warm-up (a process starts
/// on a cold core and cold caches); returns the last result and every
/// timed repetition.
pub fn repeat_setup<S>(setup: impl Fn() -> S) -> (S, Vec<f64>) {
    let warm_up = Instant::now();
    while warm_up.elapsed().as_secs_f64() < SETUP_SECONDS {
        std::hint::black_box(setup());
    }
    let started = Instant::now();
    let mut times = Vec::new();
    loop {
        let t = Instant::now();
        let s = std::hint::black_box(setup());
        times.push(t.elapsed().as_secs_f64());
        let enough =
            times.len() >= SETUP_MIN_REPS && started.elapsed().as_secs_f64() >= SETUP_SECONDS;
        if enough || times.len() >= SETUP_MAX_REPS {
            return (s, times);
        }
    }
}

/// End-to-end timing of a sweep workload: the set-up repeated, then
/// the sweep repeated for `--seconds` (at least `MIN_RUNS` times).
/// Every repetition must reproduce the first one's reports exactly.
/// Returns the set-up's result and the first sweep's reports.
fn timed_sweep<S, I: Send + Sync, R: Send, K: PartialEq>(
    args: &Args,
    out: &mut Outcome,
    setup: impl Fn() -> S,
    items: impl Fn(&S) -> &[I],
    point: impl Fn(&I) -> R + Sync,
    key: impl Fn(&R) -> K,
) -> (S, Vec<R>) {
    let (state, mut setup_s) = repeat_setup(setup);

    let started = Instant::now();
    let mut run_s = Vec::new();
    let mut point_s = Vec::new();
    let mut first: Option<Vec<R>> = None;
    loop {
        let pass = sweep(items(&state), &point);
        out.attempted += pass.reports.len() as u64;
        run_s.push(pass.wall_s);
        point_s.extend(pass.point_s);
        match &first {
            None => first = Some(pass.reports),
            Some(reports) => {
                let same = reports.iter().map(&key).eq(pass.reports.iter().map(&key));
                out.check(same, || "a repeated sweep changed its reports".into());
            }
        }
        let elapsed = started.elapsed().as_secs_f64();
        if run_s.len() >= MIN_RUNS && elapsed + pass.wall_s > args.seconds {
            break;
        }
    }
    out.notes.push(format!(
        "{} set-ups, {} sweeps of {:?} s",
        setup_s.len(),
        run_s.len(),
        run_s
    ));
    out.metric("setup_s", median(&mut setup_s), "s");
    out.metric("run_s", median(&mut run_s), "s");
    out.metric("p50_us", median(&mut point_s) * 1e6, "us");
    (state, first.expect("at least one sweep ran"))
}

// ---------------------------------------------------------------------
// fig5-quick
// ---------------------------------------------------------------------

/// The Fig-5 grid at the quick budget, one `ContinuousScenario` per
/// `T_m`, seeded as `exp_fig5` seeds it (offset by the benchmark seed).
fn fig5_grid(seed: u64) -> Vec<ContinuousScenario> {
    FIG5_T_MS
        .iter()
        .map(|&t_m| ContinuousScenario {
            n: FIG5_N,
            t_h: paper::FIG5_T_H,
            t_c: paper::FIG5_T_C,
            t_m,
            p_ce: paper::FIG5_P_CE,
            p_q: paper::FIG5_P_CE,
            max_samples: FIG5_QUICK_SAMPLES,
            seed: derive_seed(0x0F15 + (t_m * 64.0) as u64, seed),
        })
        .collect()
}

/// Set-up of a continuous-load workload: the scenarios, the analytic
/// `p_f` of each (eqns 38 and 37) that `exp_fig5` plots next to the
/// simulation, and each simulation's state before its first tick (built
/// and released here; the library builds it again inside its run).
fn continuous_setup(grid: Vec<ContinuousScenario>) -> (Vec<ContinuousScenario>, Vec<[f64; 2]>) {
    let theory = grid
        .iter()
        .map(|sc| [sc.theory_pf_closed(), sc.theory_pf_general()])
        .collect();
    for sc in &grid {
        std::hint::black_box(ContinuousStart::new(sc));
    }
    (grid, theory)
}

/// Logs the analytic `p_f` of each point and checks it is a probability.
fn check_theory(out: &mut Outcome, grid: &[ContinuousScenario], theory: &[[f64; 2]]) {
    for (sc, [eqn38, eqn37]) in grid.iter().zip(theory) {
        out.notes.push(format!(
            "theory at n={} T_m={}: p_f {eqn38:.4e} (eqn 38), {eqn37:.4e} (eqn 37)",
            sc.n, sc.t_m
        ));
        out.check(
            [eqn38, eqn37].iter().all(|p| (0.0..=1.0).contains(*p)),
            || format!("theory at T_m={}: p_f must lie in [0, 1]", sc.t_m),
        );
    }
}

/// Fig 5's qualitative result: memory at or beyond `T̃_h` (the grid's
/// 31.6 and 64) overflows less often than no memory at all.
fn check_fig5(out: &mut Outcome, reports: &[ContinuousReport]) {
    let memoryless = reports[0].pf.value;
    for (t_m, r) in FIG5_T_MS.iter().zip(reports) {
        if check_continuous(out, &format!("fig5 T_m={t_m}"), r) {
            if *t_m >= 31.6 {
                out.check(r.pf.value < memoryless, || {
                    format!(
                        "fig5: p_f(T_m=0) = {memoryless} must exceed p_f(T_m={t_m}) = {}",
                        r.pf.value
                    )
                });
            }
        } else {
            out.failed += 1;
        }
    }
}

pub fn fig5_quick(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let ((grid, theory), reports) = timed_sweep(
        args,
        &mut out,
        || continuous_setup(fig5_grid(args.seed)),
        |(grid, _)| grid.as_slice(),
        ContinuousScenario::run,
        report_key,
    );
    check_theory(&mut out, &grid, &theory);
    check_fig5(&mut out, &reports);
    out
}

// ---------------------------------------------------------------------
// topology
// ---------------------------------------------------------------------

/// The `exp_topology` grid — {parking-lot(3), star(4)} × the six
/// `T_m/T̃_h` ratios × 4 replications — at `TOPOLOGY_TICKS` ticks.
fn topology_grid(seed: u64) -> Vec<RoutedNetworkConfig> {
    let t_h_tilde = TOPOLOGY_T_H / TOPOLOGY_N.sqrt();
    let mut grid = Vec::new();
    for topo_id in 0..2 {
        for &ratio in &TOPOLOGY_RATIOS {
            let (_, topology) = topology_shape(topo_id);
            grid.push(RoutedNetworkConfig {
                topology: Arc::new(topology),
                ticks: TOPOLOGY_TICKS,
                tick: 0.25,
                warmup_ticks: TOPOLOGY_TICKS / 4,
                initial_flows_per_route: 3,
                mean_holding: TOPOLOGY_T_H,
                attempts_per_tick: 2,
                noise_sd: 0.0,
                t_m: ratio * t_h_tilde,
                p_ce: TOPOLOGY_P_CE,
                replications: 4,
                seed: derive_seed(
                    0x7070 + topo_id as u64 * 1000 + (ratio * 100.0) as u64,
                    seed,
                ),
            });
        }
    }
    grid
}

/// Set-up of `topology`: the grid, and every replication's state before
/// its first tick (built and released here; the library builds it again
/// inside its run).
fn topology_setup(seed: u64) -> Vec<RoutedNetworkConfig> {
    let grid = topology_grid(seed);
    let model = rcbr(1.0);
    for cfg in &grid {
        for rep in 0..cfg.replications as u64 {
            std::hint::black_box(NetworkStart::new(cfg, &model, &rep_context(cfg.seed, rep)));
        }
    }
    grid
}

fn check_topology(out: &mut Outcome, reports: &[RoutedNetworkReport]) {
    for (i, r) in reports.iter().enumerate() {
        let links = r.per_link.len() as f64;
        let mean_util = r.per_link.iter().map(|l| l.utilization).sum::<f64>() / links;
        let ok = r.per_link.iter().all(|l| l.pf.is_finite() && l.pf >= 0.0)
            && mean_util > 0.0
            && mean_util <= 1.0;
        out.check(ok, || {
            format!("topology point {i}: every link needs a finite p_f and the mean utilization {mean_util} must lie in (0, 1]")
        });
        if !ok {
            out.failed += 1;
        }
    }
}

/// One grid point through the library: `SessionBuilder::run` on a
/// `RoutedNetworkLoad`, replications on the pool.
fn topology_point(cfg: &RoutedNetworkConfig) -> RoutedNetworkReport {
    let model = rcbr(1.0);
    let load = RoutedNetworkLoad {
        model: &model,
        cfg: cfg.clone(),
    };
    SessionBuilder::new()
        .run(&load)
        .expect("valid topology config")
}

pub fn topology(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (_, reports) = timed_sweep(
        args,
        &mut out,
        || topology_setup(args.seed),
        Vec::as_slice,
        topology_point,
        RoutedNetworkReport::clone,
    );
    check_topology(&mut out, &reports);
    out
}

// ---------------------------------------------------------------------
// continuous-1m
// ---------------------------------------------------------------------

/// `ContinuousLoad` at n = 10⁶ with the Fig-5 parameters and
/// `T_m = T̃_h = 1`: tick 0.25, ~200 departures per tick.
fn continuous_1m_grid(seed: u64) -> Vec<ContinuousScenario> {
    vec![ContinuousScenario {
        n: C1M_N,
        t_h: paper::FIG5_T_H,
        t_c: paper::FIG5_T_C,
        t_m: paper::FIG5_T_H / C1M_N.sqrt(),
        p_ce: paper::FIG5_P_CE,
        p_q: paper::FIG5_P_CE,
        max_samples: C1M_SAMPLES,
        seed: derive_seed(C1M_SEED, seed),
    }]
}

fn check_continuous_1m(out: &mut Outcome, reports: &[ContinuousReport]) {
    for r in reports {
        if !check_continuous(out, "continuous-1m", r) {
            out.failed += 1;
        }
        out.check(r.mean_flows > 0.5 * C1M_N, || {
            format!(
                "continuous-1m: mean occupancy {} must reach the 10^6 scale",
                r.mean_flows
            )
        });
    }
}

pub fn continuous_1m(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let ((grid, theory), reports) = timed_sweep(
        args,
        &mut out,
        || continuous_setup(continuous_1m_grid(args.seed)),
        |(grid, _)| grid.as_slice(),
        ContinuousScenario::run,
        report_key,
    );
    check_theory(&mut out, &grid, &theory);
    check_continuous_1m(&mut out, &reports);
    out
}

// ---------------------------------------------------------------------
// Traced replicas
// ---------------------------------------------------------------------

/// Work counts of traced tick loops.
#[derive(Default, Clone)]
struct Counters {
    /// Σ flows in the table at each advance call.
    flow_ticks: u64,
    departures: u64,
    /// Ticks whose `departed_total` rose.
    unfused_ticks: u64,
    /// Wall time inside the tick loops.
    loop_ns: u64,
}

impl Counters {
    fn merge(&mut self, o: &Counters) {
        self.flow_ticks += o.flow_ticks;
        self.departures += o.departures;
        self.unfused_ticks += o.unfused_ticks;
        self.loop_ns += o.loop_ns;
    }
}

/// The state `ContinuousLoad::run_rep` builds before its first tick, on
/// replication 0's stream.
struct ContinuousStart {
    cfg: ContinuousConfig,
    model: RcbrModel,
    controller: MbacController,
    ctx: RepContext,
    table: FlowTable,
    meter: OverflowMeter,
}

impl ContinuousStart {
    fn new(sc: &ContinuousScenario) -> Self {
        let cfg = sc.sim_config();
        let ctx = rep_context(cfg.seed, 0);
        ContinuousStart {
            model: rcbr(sc.t_c),
            controller: MbacController::new(
                Box::new(FilteredEstimator::new(sc.t_m)),
                Box::new(CertaintyEquivalent::from_probability(sc.p_ce)),
            ),
            table: ctx.table(),
            meter: OverflowMeter::new(cfg.capacity, cfg.target),
            ctx,
            cfg,
        }
    }
}

/// `ContinuousScenario::run` replayed with spans: the tick loop of
/// `ContinuousLoad::run_rep`, call for call. The filtered estimator
/// consumes moments, so the loop always takes the fused measurement
/// path.
fn continuous_replica(
    sc: &ContinuousScenario,
    tracer: &Tracer,
    c: &mut Counters,
) -> ContinuousReport {
    let ContinuousStart {
        cfg,
        model,
        mut controller,
        ctx,
        mut table,
        mut meter,
    } = ContinuousStart::new(sc);
    let ctl: &mut dyn AdmissionEngine = &mut controller;
    assert!(
        ctl.supports_moments(),
        "the filtered estimator takes moments"
    );
    let mut rng = ctx.rng();
    let mut flow_count = RunningStats::new();

    let mut t = 0.0f64;
    let mut next_sample = cfg.warmup.max(cfg.tick);
    let stop_reason;
    let started = Instant::now();
    tracer.gap();
    loop {
        t += cfg.tick;
        let flows = table.len() as u64;
        let departed_before = table.departed_total();
        let mom = tracer.span(Layer::Measure, || {
            table.advance_depart_measure(t, &mut rng, ctl.moment_pivot())
        });
        tracer.span(Layer::Observe, || ctl.observe_moments(t, &mom));
        let load = mom.sum();
        let departed = table.departed_total() - departed_before;
        c.flow_ticks += flows;
        c.departures += departed;
        c.unfused_ticks += u64::from(departed > 0);
        tracer.gap();

        if t >= next_sample {
            next_sample += cfg.sample_spacing;
            let stop = tracer.span(Layer::Meter, || {
                meter.record(load);
                flow_count.push(table.len() as f64);
                meter.should_stop().or_else(|| {
                    (meter.samples() >= cfg.max_samples).then_some(StopReason::BudgetExhausted)
                })
            });
            if let Some(reason) = stop {
                stop_reason = reason;
                break;
            }
        }

        match tracer.span(Layer::Decide, || {
            ctl.admissible_count(cfg.capacity, table.len())
        }) {
            Some(m) => {
                let limit = m.floor().max(0.0) as usize;
                let cap = (table.len() / 10).max(1);
                let mut admitted_now = 0usize;
                while table.len() < limit && admitted_now < cap {
                    tracer.span(Layer::Admit, || {
                        let departs = t + exponential(&mut rng, cfg.mean_holding);
                        table.admit(&model, departs, &mut rng);
                    });
                    admitted_now += 1;
                }
            }
            None => {
                if table.is_empty() {
                    tracer.span(Layer::Admit, || {
                        let departs = t + exponential(&mut rng, cfg.mean_holding);
                        table.admit(&model, departs, &mut rng);
                    });
                }
            }
        }
    }
    c.loop_ns += started.elapsed().as_nanos() as u64;

    ContinuousReport {
        pf: meter.finalize(stop_reason),
        mean_utilization: meter.mean_utilization(),
        mean_flows: flow_count.mean(),
        admitted: table.admitted_total(),
        departed: table.departed_total(),
        sim_time: t,
    }
}

/// One replication's tallies, as `RoutedNetworkLoad` keeps them.
struct NetworkTally {
    overflow_ticks: Vec<u64>,
    util_sum: Vec<f64>,
    occupancy_sum: Vec<u64>,
    measured_ticks: u64,
    admitted: Vec<u64>,
    blocked: Vec<u64>,
}

/// The state `RoutedNetworkLoad::run_rep` builds before its first tick:
/// per-route flow tables seeded with their initial flows, per-link
/// controllers and the path-admission state.
struct NetworkStart {
    rng: StdRng,
    tables: Vec<FlowTable>,
    ctls: Vec<MbacController>,
    path: PathAdmission,
}

impl NetworkStart {
    fn new(cfg: &RoutedNetworkConfig, model: &RcbrModel, ctx: &RepContext) -> Self {
        let topo = &cfg.topology;
        let mut rng = ctx.rng();
        let mut tables: Vec<FlowTable> = (0..topo.routes()).map(|_| ctx.table()).collect();
        let ctls = (0..topo.links())
            .map(|_| {
                MbacController::new(
                    Box::new(FilteredEstimator::new(cfg.t_m)),
                    Box::new(CertaintyEquivalent::from_probability(cfg.p_ce)),
                )
            })
            .collect();
        let path = PathAdmission::for_topology(topo);
        // Route order keeps the RNG stream deterministic.
        for table in &mut tables {
            for _ in 0..cfg.initial_flows_per_route {
                let hold = exponential(&mut rng, cfg.mean_holding);
                table.admit(model, hold, &mut rng);
            }
        }
        NetworkStart {
            rng,
            tables,
            ctls,
            path,
        }
    }
}

/// One replication of `RoutedNetworkLoad::run_rep` replayed with spans.
fn network_rep_replica(
    cfg: &RoutedNetworkConfig,
    model: &RcbrModel,
    ctx: &RepContext,
    tracer: &Tracer,
    c: &mut Counters,
) -> NetworkTally {
    let topo = &cfg.topology;
    let (links, routes) = (topo.links(), topo.routes());
    let NetworkStart {
        mut rng,
        mut tables,
        mut ctls,
        mut path,
    } = NetworkStart::new(cfg, model, ctx);
    let mut rep = NetworkTally {
        overflow_ticks: vec![0; links],
        util_sum: vec![0.0; links],
        occupancy_sum: vec![0; links],
        measured_ticks: 0,
        admitted: vec![0; routes],
        blocked: vec![0; routes],
    };
    let mut route_snaps: Vec<Vec<f64>> = vec![Vec::new(); routes];
    let mut link_rates: Vec<f64> = Vec::new();
    let record = |step: usize| step > cfg.warmup_ticks;
    let started = Instant::now();
    tracer.gap();
    for step in 1..=cfg.ticks {
        let now = step as f64 * cfg.tick;
        let mut tick_departed = 0u64;
        for (r, table) in tables.iter_mut().enumerate() {
            c.flow_ticks += table.len() as u64;
            tracer.span(Layer::Advance, || table.advance_to(now, &mut rng));
            let departed = tracer.span(Layer::Depart, || table.depart_until(now));
            if departed > 0 {
                tracer.span(Layer::PathRelease, || {
                    path.release(topo, RouteId(r as u32), departed as u32)
                });
                tick_departed += departed as u64;
            }
            tracer.span(Layer::Snapshot, || table.snapshot_into(&mut route_snaps[r]));
        }
        c.departures += tick_departed;
        c.unfused_ticks += u64::from(tick_departed > 0);
        tracer.gap();
        for link in topo.link_ids() {
            let l = link.index();
            // The link's load is the union of its crossing routes' flows
            // (noise_sd is 0 here, so no noise draws); the tally reads
            // only that vector, so it moves ahead of the controller
            // calls without changing any result.
            tracer.span(Layer::Compose, || {
                link_rates.clear();
                for route in topo.routes_crossing(link) {
                    link_rates.extend_from_slice(&route_snaps[route.index()]);
                }
                if record(step) {
                    let load: f64 = link_rates.iter().sum();
                    let cap = topo.capacity(link);
                    if load > cap {
                        rep.overflow_ticks[l] += 1;
                    }
                    rep.util_sum[l] += load.min(cap) / cap;
                    rep.occupancy_sum[l] += link_rates.len() as u64;
                }
            });
            tracer.span(Layer::Observe, || ctls[l].observe(now, &link_rates));
            tracer.span(Layer::PathSync, || path.sync(link, link_rates.len() as u32));
        }
        if record(step) {
            rep.measured_ticks += 1;
        }
        for route in topo.route_ids() {
            for _ in 0..cfg.attempts_per_tick {
                let ctls_ref = &ctls;
                let mut oracle = |link: LinkId, cap: f64| {
                    tracer.span(Layer::Decide, || {
                        ctls_ref[link.index()].admissible_count(cap)
                    })
                };
                let d = tracer.span(Layer::PathDecide, || path.decide(topo, route, &mut oracle));
                if d.admit {
                    rep.admitted[route.index()] += 1;
                    tracer.span(Layer::Admit, || {
                        let hold = exponential(&mut rng, cfg.mean_holding);
                        tables[route.index()].admit(model, now + hold, &mut rng);
                    });
                } else {
                    rep.blocked[route.index()] += 1;
                    break;
                }
            }
        }
    }
    c.loop_ns += started.elapsed().as_nanos() as u64;
    rep
}

/// `RoutedNetworkLoad::fold`: exact sums in replication order.
fn fold_network(cfg: &RoutedNetworkConfig, reps: &[NetworkTally]) -> RoutedNetworkReport {
    let (links, routes) = (cfg.topology.links(), cfg.topology.routes());
    let mut overflow = vec![0u64; links];
    let mut util = vec![0.0f64; links];
    let mut occupancy = vec![0u64; links];
    let mut measured = 0u64;
    let mut admitted = vec![0u64; routes];
    let mut blocked = vec![0u64; routes];
    for rep in reps {
        for l in 0..links {
            overflow[l] += rep.overflow_ticks[l];
            util[l] += rep.util_sum[l];
            occupancy[l] += rep.occupancy_sum[l];
        }
        measured += rep.measured_ticks;
        for r in 0..routes {
            admitted[r] += rep.admitted[r];
            blocked[r] += rep.blocked[r];
        }
    }
    let denom = measured.max(1) as f64;
    RoutedNetworkReport {
        per_link: (0..links)
            .map(|l| LinkStats {
                pf: overflow[l] as f64 / denom,
                utilization: util[l] / denom,
                occupancy: occupancy[l] as f64 / denom,
            })
            .collect(),
        per_route: (0..routes)
            .map(|r| RouteStats {
                admitted: admitted[r],
                blocked: blocked[r],
            })
            .collect(),
        replications: reps.len(),
    }
}

/// One topology grid point replayed with spans: the session's
/// replications in order, each on `rep_seed(seed, rep)`.
fn topology_replica(
    cfg: &RoutedNetworkConfig,
    tracer: &Tracer,
    c: &mut Counters,
) -> RoutedNetworkReport {
    let model = rcbr(1.0);
    let reps: Vec<NetworkTally> = (0..cfg.replications as u64)
        .map(|rep| network_rep_replica(cfg, &model, &rep_context(cfg.seed, rep), tracer, c))
        .collect();
    fold_network(cfg, &reps)
}

/// A traced sweep: the library pass (untraced, timed per point), then
/// the replica pass with spans. Reports the per-layer metrics and checks
/// that both passes agree and that the spans cover the loops.
fn traced_sweep<I: Send + Sync, R: Send, K: PartialEq + std::fmt::Debug>(
    out: &mut Outcome,
    items: &[I],
    library: impl Fn(&I) -> R + Sync,
    replica: impl Fn(&I, &Tracer, &mut Counters) -> R + Sync,
    key: impl Fn(&R) -> K,
) -> Vec<R> {
    let lib = sweep(items, &library);
    let started = Instant::now();
    let refs: Vec<&I> = items.iter().collect();
    let traced = parallel_map(refs, |item| {
        let tracer = Tracer::default();
        let mut c = Counters::default();
        let r = replica(item, &tracer, &mut c);
        (r, tracer.into_totals(), c)
    });
    let traced_wall = started.elapsed().as_secs_f64();
    out.attempted += 2 * items.len() as u64;

    let mut totals = Totals::default();
    let mut c = Counters::default();
    for (i, ((r, t, ci), lib_r)) in traced.iter().zip(&lib.reports).enumerate() {
        totals.merge(t);
        c.merge(ci);
        out.check(key(r) == key(lib_r), || {
            format!(
                "point {i}: the traced replica diverged from the library run: {:?} vs {:?}",
                key(r),
                key(lib_r)
            )
        });
    }

    let other_ns = c.loop_ns.saturating_sub(totals.covered_ns);
    let coverage = totals.covered_ns as f64 / c.loop_ns.max(1) as f64;
    out.check(other_ns as f64 <= MAX_UNCOVERED * c.loop_ns as f64, || {
        format!(
            "spans cover {:.2}% of loop time; at most {:.0}% may be uncovered",
            coverage * 100.0,
            MAX_UNCOVERED * 100.0
        )
    });
    let evolve_ns = totals.ns(Layer::Measure) + totals.ns(Layer::Advance);
    for (name, layer) in [
        ("sim.flows.measure_ns", Layer::Measure),
        ("sim.flows.admit_ns", Layer::Admit),
        ("sim.flows.advance_ns", Layer::Advance),
        ("sim.flows.depart_ns", Layer::Depart),
        ("sim.flows.snapshot_ns", Layer::Snapshot),
        ("sim.network.compose_ns", Layer::Compose),
        ("core.estimator.observe_ns", Layer::Observe),
        ("core.admission.decide_ns", Layer::Decide),
        ("core.topology.path_decide_ns", Layer::PathDecide),
        ("core.topology.path_sync_ns", Layer::PathSync),
        ("core.topology.path_release_ns", Layer::PathRelease),
        ("sim.metrics.meter_ns", Layer::Meter),
    ] {
        out.metric(name, totals.ns_per_call(layer), "ns");
    }
    out.metric(
        "sim.flows.ns_per_flow_tick",
        evolve_ns as f64 / c.flow_ticks.max(1) as f64,
        "ns",
    );
    out.metric("sim.flows.flow_ticks", c.flow_ticks as f64, "count");
    out.metric("sim.flows.departures", c.departures as f64, "count");
    out.metric("sim.flows.unfused_ticks", c.unfused_ticks as f64, "count");
    out.metric(
        "sim.flows.admits",
        totals.calls(Layer::Admit) as f64,
        "count",
    );
    out.metric(
        "core.admission.decides",
        totals.calls(Layer::Decide) as f64,
        "count",
    );
    let busy: f64 = lib.point_s.iter().sum();
    out.metric(
        "num.pool.utilization",
        busy / (default_workers() as f64 * lib.wall_s),
        "frac",
    );
    out.metric(
        "sweep.point_max_s",
        lib.point_s.iter().copied().fold(0.0, f64::max),
        "s",
    );
    out.metric("bench.other_ns", other_ns as f64, "ns");
    out.metric("bench.timer_ns", timer_ns(), "ns");
    out.metric("bench.span_coverage", coverage, "frac");
    out.metric(
        "bench.trace_overhead",
        traced_wall / lib.wall_s - 1.0,
        "frac",
    );
    lib.reports
}

pub fn fig5_quick_traced(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let grid = fig5_grid(args.seed);
    let reports = traced_sweep(
        &mut out,
        &grid,
        ContinuousScenario::run,
        continuous_replica,
        report_key,
    );
    if args.seed == 0 {
        // The default seed is the figure's own: the grid must reproduce
        // the reports of `exp_fig5`'s `fig5_rows` at the quick budget.
        let rows = fig5_rows(FIG5_QUICK_SAMPLES);
        let same = rows
            .iter()
            .map(|r| report_key(&r.report))
            .eq(reports.iter().map(report_key));
        out.check(same, || "seed 0 does not reproduce fig5_rows".into());
    }
    check_fig5(&mut out, &reports);
    out
}

pub fn topology_traced(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let grid = topology_grid(args.seed);
    let reports = traced_sweep(
        &mut out,
        &grid,
        topology_point,
        topology_replica,
        RoutedNetworkReport::clone,
    );
    if args.seed == 0 {
        // The default seed is the figure's own: the grid must reproduce
        // `exp_topology`'s `topology_rows` at the same tick budget.
        let rows = topology_rows(TOPOLOGY_TICKS as u64);
        let same = rows.iter().map(|r| &r.report).eq(reports.iter());
        out.check(same, || "seed 0 does not reproduce topology_rows".into());
    }
    check_topology(&mut out, &reports);
    out
}

pub fn continuous_1m_traced(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let grid = continuous_1m_grid(args.seed);
    let reports = traced_sweep(
        &mut out,
        &grid,
        ContinuousScenario::run,
        continuous_replica,
        report_key,
    );
    check_continuous_1m(&mut out, &reports);
    out
}
