//! The `plane-open` workload: an open-loop, rate-controlled load on the
//! routed decision plane.
//!
//! A `RoutedLoad` over parking-lot(3) — one 3-hop route and three 1-hop
//! routes — is generated during set-up. Each replay builds a fresh
//! one-shard `RoutedPlane`; this thread sends every event at its
//! scheduled time through `RoutedIngestHandle::try_send`, stamping each
//! reserve with its intended send `Instant`, so a decision's latency
//! counts any stall of the generator too (no coordinated omission). One
//! consumer thread runs `RoutedShard::drain_into`. A round replays the
//! workload at 250k and at 1M decisions/s, then once with every event
//! due at once (offered above capacity). Every replay's decisions must
//! equal `routed_replay_serial`'s, byte for byte.

use crate::sim::{derive_seed, repeat_setup};
use crate::stats::{median, quantile};
use crate::trace::timer_ns;
use crate::{Args, Outcome};
use mbac_serve::{
    certainty_equivalent_factory, routed_replay_serial, ControllerFactory, RouteDecision,
    RoutedIngestHandle, RoutedPlane, RoutedPlaneConfig, RoutedReplayConfig, RoutedShard,
    RoutedShardEvent,
};
use mbac_sim::{
    RoutedEvent, RoutedLoad, RoutedLoadConfig, RoutedWorkload, SessionBuilder, Topology,
};
use mbac_traffic::rcbr::{RcbrConfig, RcbrModel};
use std::hint::spin_loop;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Admission requests per replay: 12 500 ticks × 4 routes × 4 requests.
const TICKS: usize = 12_500;
const REQUESTS_PER_TICK: usize = 4;
/// The workload's default seed (the serve bench's).
const SEED: u64 = 7;
/// The two stated offered loads, in decisions per second.
const RATE_250K: f64 = 250e3;
const RATE_1M: f64 = 1e6;
/// Ingest ring slots: room for ~10 ms of events at 1M decisions/s, so a
/// short consumer stall shows as latency rather than as backpressure.
const RING_CAPACITY: usize = 1 << 14;
/// Head start for the consumer thread before the first event is due.
const LEAD: Duration = Duration::from_millis(2);
/// A replay whose consumer makes no progress for this long after the
/// last send gives up; its undecided requests count as failed.
const STALL_LIMIT: Duration = Duration::from_secs(10);
/// Fewest rounds per run, whatever `--seconds`.
const MIN_ROUNDS: usize = 3;

/// The serve bench's controller: certainty equivalent at `p_ce = 1e-2`
/// over a filtered estimator with `T_m = 5`.
fn factory() -> ControllerFactory {
    certainty_equivalent_factory(1e-2, 5.0)
}

/// Generates the workload: the serve bench's routed shape on
/// parking-lot(3) at capacity 60 per link, 25 flows per route.
fn generate(seed: u64) -> RoutedWorkload {
    let model = RcbrModel::new(RcbrConfig::paper_default(1.0));
    let load = RoutedLoad {
        model: &model,
        cfg: RoutedLoadConfig {
            topology: Arc::new(Topology::parking_lot(3, 60.0)),
            flows_per_route: 25,
            ticks: TICKS,
            tick: 0.1,
            requests_per_tick: REQUESTS_PER_TICK,
            mean_holding: 10.0,
            noise_sd: 0.0,
            seed: derive_seed(SEED, seed),
        },
    };
    SessionBuilder::new()
        .run(&load)
        .expect("valid routed workload config")
}

/// The workload's events as the plane ingests them, in the canonical
/// order (each link's stream in order, links interleaved round-robin).
fn shard_events(w: &RoutedWorkload) -> Vec<RoutedShardEvent> {
    let topology = w.topology();
    w.canonical_events()
        .map(|(link, ev)| match ev {
            RoutedEvent::Measure { t, rates } => RoutedShardEvent::Measure {
                link,
                t: *t,
                rates: rates.clone(),
            },
            RoutedEvent::Request { route, seq, .. } => RoutedShardEvent::Reserve {
                link,
                seq: *seq,
                hop: topology
                    .hop_index(*route, link)
                    .expect("requests appear only on their route's links")
                    as u8,
                enqueued: None,
            },
        })
        .collect()
}

/// A fresh one-shard plane for `w` and the producer handle to its ring.
fn one_shard_plane(
    w: &RoutedWorkload,
    make: &ControllerFactory,
) -> (RoutedShard, RoutedIngestHandle) {
    let cfg = RoutedPlaneConfig {
        shards: 1,
        ring_capacity: RING_CAPACITY,
        ..RoutedPlaneConfig::default()
    };
    let plane = RoutedPlane::for_workload(&cfg, w, Arc::clone(make)).expect("valid plane config");
    let handle = plane.handle();
    (plane.into_shards().pop().expect("one shard"), handle)
}

/// Timing of the consumer's `drain_into` calls (traced runs only).
#[derive(Default, Clone, Copy)]
struct DrainStats {
    busy_ns: u64,
    events: u64,
    drains: u64,
    wall_ns: u64,
}

/// What one replay produced.
struct Replay {
    decisions: Vec<RouteDecision>,
    /// From the first due time to the last decision.
    wall_s: f64,
    /// How late the generator sent each event, in ns (rated replays).
    late_ns: Vec<f64>,
    full_retries: u64,
    drain: DrainStats,
}

/// The consumer: drains until the generator is done and nothing is
/// left in the ring or parked.
fn consume(
    shard: &mut RoutedShard,
    done: &AtomicBool,
    requests: usize,
    traced: bool,
) -> (Vec<RouteDecision>, Instant, DrainStats) {
    let mut out = Vec::with_capacity(requests);
    let mut st = DrainStats::default();
    let started = Instant::now();
    let mut give_up: Option<Instant> = None;
    loop {
        // Read before draining: once set, every event is already in the
        // ring, so an empty drain with nothing parked means all done.
        let finished = done.load(Ordering::Acquire);
        let n = if traced {
            let t = Instant::now();
            let n = shard.drain_into(&mut out);
            if n > 0 {
                st.busy_ns += t.elapsed().as_nanos() as u64;
                st.events += n as u64;
                st.drains += 1;
            }
            n
        } else {
            shard.drain_into(&mut out)
        };
        if n > 0 {
            continue;
        }
        if finished {
            if !shard.has_parked() {
                break;
            }
            if Instant::now() > *give_up.get_or_insert_with(|| Instant::now() + STALL_LIMIT) {
                break;
            }
        }
        spin_loop();
    }
    st.wall_ns = started.elapsed().as_nanos() as u64;
    (out, Instant::now(), st)
}

/// Replays `events` through a fresh plane, the `i`-th event due at
/// `i · gap_ns` after the start (`gap_ns = 0` offers everything at
/// once).
fn replay(
    w: &RoutedWorkload,
    make: &ControllerFactory,
    events: Vec<RoutedShardEvent>,
    gap_ns: f64,
    traced: bool,
) -> Replay {
    let (mut shard, handle) = one_shard_plane(w, make);
    let requests = w.total_requests();
    let done = AtomicBool::new(false);
    let rated = gap_ns > 0.0;
    let mut late_ns = Vec::with_capacity(if rated { events.len() } else { 0 });
    let mut full_retries = 0u64;
    let (decisions, finished, drain, start) = std::thread::scope(|s| {
        let shard_ref = &mut shard;
        let done_ref = &done;
        let consumer = s.spawn(move || consume(shard_ref, done_ref, requests, traced));
        let start = Instant::now() + LEAD;
        for (i, mut ev) in events.into_iter().enumerate() {
            let due = start + Duration::from_nanos((i as f64 * gap_ns) as u64);
            let mut now = Instant::now();
            while now < due {
                spin_loop();
                now = Instant::now();
            }
            if let RoutedShardEvent::Reserve { enqueued, .. } = &mut ev {
                *enqueued = Some(due);
            }
            if rated {
                late_ns.push((now - due).as_nanos() as f64);
            }
            while let Err(back) = handle.try_send(ev) {
                ev = back;
                full_retries += 1;
                spin_loop();
            }
        }
        done.store(true, Ordering::Release);
        let (decisions, finished, drain) = consumer.join().expect("consumer thread panicked");
        (decisions, finished, drain, start)
    });
    Replay {
        decisions,
        wall_s: finished.saturating_duration_since(start).as_secs_f64(),
        late_ns,
        full_retries,
        drain,
    }
}

/// The gap between event due times that offers `rate` decisions/s.
fn gap_ns(w: &RoutedWorkload, events: usize, rate: f64) -> f64 {
    1e9 * w.total_requests() as f64 / (rate * events as f64)
}

/// Per-route decision bytes (`RouteDecision::encode_into`, which leaves
/// latency out), in decision order.
fn route_bytes(w: &RoutedWorkload, decisions: &[RouteDecision]) -> Vec<Vec<u8>> {
    let mut out = vec![Vec::new(); w.topology().routes()];
    for d in decisions {
        d.encode_into(&mut out[d.route.index()]);
    }
    out
}

/// Counts the replay's requests and checks its decisions: every request
/// decided, and each route's bytes equal to the serial reference's.
fn verify(out: &mut Outcome, what: &str, w: &RoutedWorkload, r: &Replay, reference: &[Vec<u8>]) {
    let requests = w.total_requests();
    out.attempted += requests as u64;
    out.failed += requests.saturating_sub(r.decisions.len()) as u64;
    out.check(route_bytes(w, &r.decisions) == reference, || {
        format!("{what}: the decisions differ from routed_replay_serial's")
    });
}

/// Decision latencies in µs, from the intended send time; `hops`
/// selects routes of that length.
fn latencies_us(r: &Replay, hops: Option<usize>) -> Vec<f64> {
    r.decisions
        .iter()
        .filter(|d| hops.is_none_or(|h| d.hops.len() == h))
        .filter_map(|d| d.latency_ns)
        .map(|ns| ns as f64 / 1e3)
        .collect()
}

/// Per-replay figures gathered over a run's rounds.
#[derive(Default)]
struct Rounds {
    setup_s: Vec<f64>,
    p50_us_250k: Vec<f64>,
    p50_us_1m: Vec<f64>,
    p50_us_1m_1hop: Vec<f64>,
    p50_us_1m_3hop: Vec<f64>,
    p99_us_1m: Vec<f64>,
    /// Wall time of the replays offered above capacity.
    overload_s: Vec<f64>,
    late_p50_us: Vec<f64>,
    late_max_us: f64,
    /// Ring-full retries of the rated replays.
    full_retries: u64,
    /// `drain_into` timing of the 1M/s replays.
    drain_1m: DrainStats,
}

/// Set-up (timed repeatedly), the serial reference, then rounds
/// of the three replays for `--seconds`.
fn run_rounds(
    args: &Args,
    out: &mut Outcome,
    traced: bool,
) -> (RoutedWorkload, Vec<Vec<u8>>, Rounds) {
    let make = factory();
    let mut rounds = Rounds::default();
    let (w, setup_s) = repeat_setup(|| {
        let w = generate(args.seed);
        std::hint::black_box((shard_events(&w), one_shard_plane(&w, &make)));
        w
    });
    rounds.setup_s = setup_s;
    let reference = routed_replay_serial(&RoutedReplayConfig::default(), Arc::clone(&make), &w)
        .expect("valid replay config");
    let reference: Vec<Vec<u8>> = (0..w.topology().routes())
        .map(|r| reference.encode_route(r))
        .collect();

    let started = Instant::now();
    let mut n = 0;
    while n < MIN_ROUNDS || started.elapsed().as_secs_f64() < args.seconds {
        for rate in [Some(RATE_250K), Some(RATE_1M), None] {
            let events = shard_events(&w);
            let gap = rate.map_or(0.0, |rate| gap_ns(&w, events.len(), rate));
            let r = replay(&w, &make, events, gap, traced);
            verify(
                out,
                &format!("replay at {rate:?} decisions/s"),
                &w,
                &r,
                &reference,
            );
            match rate {
                Some(RATE_250K) => rounds.p50_us_250k.push(median(&mut latencies_us(&r, None))),
                Some(_) => {
                    let mut all = latencies_us(&r, None);
                    rounds.p50_us_1m.push(median(&mut all));
                    rounds.p99_us_1m.push(quantile(&mut all, 0.99));
                    rounds
                        .p50_us_1m_1hop
                        .push(median(&mut latencies_us(&r, Some(1))));
                    rounds
                        .p50_us_1m_3hop
                        .push(median(&mut latencies_us(&r, Some(3))));
                    let mut late = r.late_ns.iter().map(|ns| ns / 1e3).collect::<Vec<_>>();
                    rounds.late_p50_us.push(median(&mut late));
                    let d = &mut rounds.drain_1m;
                    d.busy_ns += r.drain.busy_ns;
                    d.events += r.drain.events;
                    d.drains += r.drain.drains;
                    d.wall_ns += r.drain.wall_ns;
                }
                None => rounds.overload_s.push(r.wall_s),
            }
            if rate.is_some() {
                let late_max = r.late_ns.iter().copied().fold(0.0, f64::max) / 1e3;
                rounds.late_max_us = rounds.late_max_us.max(late_max);
                rounds.full_retries += r.full_retries;
            }
        }
        n += 1;
    }
    (w, reference, rounds)
}

pub fn plane_open(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (_, _, mut rounds) = run_rounds(args, &mut out, false);
    out.metric("setup_s", median(&mut rounds.setup_s), "s");
    out.metric("run_s", median(&mut rounds.overload_s), "s");
    out.metric("p50_us", median(&mut rounds.p50_us_1m), "us");
    out
}

pub fn plane_open_traced(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (w, reference, mut rounds) = run_rounds(args, &mut out, true);

    // A serial pass timing `RoutedShard::apply` (plus the parking sweep
    // it triggers) per event type.
    let (mut shard, _handle) = one_shard_plane(&w, &factory());
    let mut decisions = Vec::with_capacity(w.total_requests());
    let (mut measure, mut reserve) = ((0u64, 0u64), (0u64, 0u64));
    for ev in shard_events(&w) {
        let slot = match ev {
            RoutedShardEvent::Measure { .. } => &mut measure,
            RoutedShardEvent::Reserve { .. } => &mut reserve,
        };
        let t = Instant::now();
        shard.apply(ev, &mut decisions);
        while shard.pump(&mut decisions) > 0 {}
        slot.0 += t.elapsed().as_nanos() as u64;
        slot.1 += 1;
    }
    out.check(route_bytes(&w, &decisions) == reference, || {
        "the traced serial pass differs from routed_replay_serial".into()
    });

    let d = rounds.drain_1m;
    let per = |(ns, n): (u64, u64)| ns as f64 / n.max(1) as f64;
    out.metric("serve.shard.ns_per_event", per((d.busy_ns, d.events)), "ns");
    out.metric(
        "serve.shard.busy_frac",
        d.busy_ns as f64 / d.wall_ns.max(1) as f64,
        "frac",
    );
    out.metric(
        "serve.shard.events_per_drain",
        per((d.events, d.drains)),
        "count",
    );
    out.metric("serve.apply.measure_ns", per(measure), "ns");
    out.metric("serve.apply.reserve_ns", per(reserve), "ns");
    out.metric(
        "serve.decide.p50_us_1hop",
        median(&mut rounds.p50_us_1m_1hop),
        "us",
    );
    out.metric(
        "serve.decide.p50_us_3hop",
        median(&mut rounds.p50_us_1m_3hop),
        "us",
    );
    out.metric("serve.decide.p99_us", median(&mut rounds.p99_us_1m), "us");
    out.metric(
        "serve.decide.p50_us_at_250k",
        median(&mut rounds.p50_us_250k),
        "us",
    );
    out.metric(
        "serve.capacity_dps",
        w.total_requests() as f64 / median(&mut rounds.overload_s),
        "1/s",
    );
    out.metric(
        "serve.gen.late_p50_us",
        median(&mut rounds.late_p50_us),
        "us",
    );
    out.metric("serve.gen.late_max_us", rounds.late_max_us, "us");
    out.metric(
        "serve.ring.full_retries",
        rounds.full_retries as f64,
        "count",
    );
    out.metric("bench.timer_ns", timer_ns(), "ns");
    out
}
