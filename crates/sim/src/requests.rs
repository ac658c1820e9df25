//! Scenario-as-request-stream adapter: replays the simulator's traffic
//! models as a *decision-plane workload*.
//!
//! The serve crate needs realistic admission traffic — links whose
//! measured load evolves like the paper's RCBR/AR(1)/trace sources,
//! interleaved with admission requests. [`RoutedLoad`] produces exactly
//! that over a [`Topology`] through the [`Scenario`] pipeline: one
//! replication per *route*, each evolving `flows_per_route` flows with
//! exponential holding-time churn, folded into per-link event streams
//! where a link's measurement is the concatenation of every crossing
//! route's flow snapshot (shared flows ⇒ correlated load) perturbed by
//! per-node measurement noise, and an admission request on an `h`-hop
//! route appears as one [`RoutedEvent::Request`] occurrence on *each*
//! hop link, all carrying the same global sequence number for the
//! plane's two-phase commit. On a [`Topology::single_hop`] network,
//! route `i` is link `i`'s own flow population, so every link carries
//! an independent stream: per tick, one [`RoutedEvent::Measure`]
//! snapshot followed by `requests_per_tick` requests.
//!
//! Because generation rides the Session pipeline, a workload is
//! **bit-identical for any worker count and either flow engine** (the
//! `rep_seed` determinism contract), so the serve invariance tests can
//! generate their streams in parallel without weakening the comparison.
//!
//! # Ordering contract
//!
//! The scientific content of a workload is **per-link order**: each
//! link's interleaving of measurements and requests is what the
//! controller's decision sequence depends on. Cross-link order is
//! deliberately unspecified — the decision plane is free to interleave
//! links arbitrarily (that is the whole point of sharding), and
//! [`RoutedWorkload::canonical_events`] provides one fixed round-robin
//! merge as the serial-reference order. Each link's `Request`
//! occurrences are strictly increasing in `seq`, which the two-phase
//! commit relies on.

use crate::session::{require_non_negative, require_positive, ConfigError, RepContext, Scenario};
use crate::telemetry::MetricsSink;
use mbac_core::topology::{LinkId, RouteId, Topology};
use mbac_num::rng::{exponential, normal};
use mbac_traffic::process::SourceModel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

// ---------------------------------------------------------------------
// Routed workloads
// ---------------------------------------------------------------------

/// One event in a *routed* workload's per-link stream.
#[derive(Debug, Clone, PartialEq)]
pub enum RoutedEvent {
    /// A measurement snapshot of the link: the concatenation of every
    /// crossing route's per-flow rates (route order), perturbed by this
    /// node's measurement noise. The length is the link's occupancy.
    Measure {
        /// Absolute measurement time.
        t: f64,
        /// Per-flow rates as measured at this node.
        rates: Box<[f64]>,
    },
    /// One hop's view of an admission request on `route`. A request on
    /// an `h`-hop route appears as `h` occurrences — one per hop link —
    /// all sharing the same `seq`; the decision plane joins them with
    /// its two-phase reserve/commit.
    Request {
        /// Absolute arrival time.
        t: f64,
        /// The route asking to admit one more flow.
        route: RouteId,
        /// Global request sequence number (strictly increasing within
        /// each link's stream — the deadlock-freedom invariant of the
        /// two-phase commit).
        seq: u64,
    },
}

/// Configuration of the routed request-stream workload.
#[derive(Debug, Clone)]
pub struct RoutedLoadConfig {
    /// The network: links with capacities, routes as hop lists. One
    /// replication — one RNG stream — per route.
    pub topology: Arc<Topology>,
    /// Steady-state flow population per route (churned, then topped
    /// up, every tick).
    pub flows_per_route: usize,
    /// Measurement ticks.
    pub ticks: usize,
    /// Measurement period `τ` (absolute times are `step · τ`).
    pub tick: f64,
    /// Admission requests emitted per route after each measurement.
    pub requests_per_tick: usize,
    /// Mean exponential holding time of the churned flows.
    pub mean_holding: f64,
    /// Standard deviation of the per-node measurement noise added to
    /// every rate sample independently at each link (0 disables noise
    /// and consumes no random numbers).
    pub noise_sd: f64,
    /// Base seed (the builder may override it).
    pub seed: u64,
}

/// The generated routed workload: per-link event streams over a shared
/// [`Topology`], plus the seq → route map the decision plane's route
/// table is built from.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutedWorkload {
    topology: Arc<Topology>,
    per_link: Vec<Vec<RoutedEvent>>,
    request_routes: Vec<RouteId>,
}

impl RoutedWorkload {
    /// The topology the workload was generated over.
    pub fn topology(&self) -> &Arc<Topology> {
        &self.topology
    }

    /// Number of links.
    pub fn links(&self) -> usize {
        self.per_link.len()
    }

    /// Link `link`'s event stream, in per-link order.
    pub fn events(&self, link: LinkId) -> &[RoutedEvent] {
        &self.per_link[link.index()]
    }

    /// The route of each request, indexed by `seq` — the total number
    /// of admission requests is this slice's length.
    pub fn request_routes(&self) -> &[RouteId] {
        &self.request_routes
    }

    /// Total admission requests (each counted once, not per hop).
    pub fn total_requests(&self) -> usize {
        self.request_routes.len()
    }

    /// Total per-link events (a multi-hop request counts once per hop).
    pub fn total_events(&self) -> usize {
        self.per_link.iter().map(Vec::len).sum()
    }

    /// The canonical serial-reference order: a round-robin merge by
    /// event index (`link 0 event 0, link 1 event 0, …, link 0 event 1,
    /// …`). Any order that preserves each link's own sequence yields the
    /// same decisions (the serve invariance suite proves this); this one
    /// is the fixed reference the sharded plane is compared against.
    pub fn canonical_events(&self) -> impl Iterator<Item = (LinkId, &RoutedEvent)> {
        let longest = self.per_link.iter().map(Vec::len).max().unwrap_or(0);
        (0..longest).flat_map(move |i| {
            self.per_link
                .iter()
                .enumerate()
                .filter_map(move |(link, evs)| evs.get(i).map(|e| (LinkId(link as u32), e)))
        })
    }
}

/// One route's flow population, evolved tick by tick: the per-tick
/// rate snapshots. The exact sequence of table/RNG operations is the
/// workload's bit-level contract — the serve plane's pinned decision
/// digests depend on it.
fn evolve_rate_snapshots(
    model: &dyn SourceModel,
    flows: usize,
    ticks: usize,
    tick: f64,
    mean_holding: f64,
    ctx: &RepContext,
) -> Vec<Box<[f64]>> {
    let mut rng = ctx.rng();
    let mut table = ctx.table();
    let mut snap = ctx.scratch_rates();
    // Seed population with exponential residual holding times.
    for _ in 0..flows {
        let hold = exponential(&mut rng, mean_holding);
        table.admit(model, hold, &mut rng);
    }
    let mut out = Vec::with_capacity(ticks);
    for step in 1..=ticks {
        let now = step as f64 * tick;
        table.advance_to(now, &mut rng);
        table.depart_until(now);
        // Churn: top the population back up, so the measured link
        // carries fresh flows but a stable occupancy.
        while table.len() < flows {
            let hold = exponential(&mut rng, mean_holding);
            table.admit(model, now + hold, &mut rng);
        }
        table.snapshot_into(&mut snap);
        out.push(snap.as_slice().into());
    }
    out
}

/// Salt deriving the per-node noise streams from the workload seed
/// (disjoint from the per-route replication streams, which use the
/// session's `rep_seed` derivation).
const NOISE_STREAM_SALT: u64 = 0x6E65_745F_6C69_6E6B; // "net_link"

/// The routed request-stream scenario: replication `r` evolves route
/// `r`'s flow population; the fold assembles per-link streams with
/// correlated load and per-node noise.
pub struct RoutedLoad<'a> {
    /// The per-flow traffic model (RCBR, AR(1), trace, …).
    pub model: &'a dyn SourceModel,
    /// Workload shape.
    pub cfg: RoutedLoadConfig,
}

impl Scenario for RoutedLoad<'_> {
    type Rep = Vec<Box<[f64]>>;
    type Report = RoutedWorkload;

    fn validate(&self) -> Result<(), ConfigError> {
        self.cfg.topology.validate()?;
        if self.cfg.flows_per_route < 2 {
            return Err(ConfigError::TooFewFlows {
                got: self.cfg.flows_per_route,
            });
        }
        require_positive("ticks", self.cfg.ticks as f64)?;
        require_positive("tick", self.cfg.tick)?;
        require_positive("mean holding time", self.cfg.mean_holding)?;
        require_non_negative("noise standard deviation", self.cfg.noise_sd)?;
        Ok(())
    }

    fn seed(&self) -> u64 {
        self.cfg.seed
    }

    fn replications(&self) -> usize {
        self.cfg.topology.routes()
    }

    fn run_rep(&self, ctx: &RepContext, _sink: &mut MetricsSink) -> Vec<Box<[f64]>> {
        let cfg = &self.cfg;
        evolve_rate_snapshots(
            self.model,
            cfg.flows_per_route,
            cfg.ticks,
            cfg.tick,
            cfg.mean_holding,
            ctx,
        )
    }

    fn fold(&self, reps: Vec<Vec<Box<[f64]>>>) -> RoutedWorkload {
        let cfg = &self.cfg;
        let topo = &cfg.topology;
        // One independent noise stream per link: the same flow measured
        // at two nodes sees different noise (per-node measurement
        // error), deterministically derived from the workload seed.
        let mut noise: Vec<StdRng> = topo
            .link_ids()
            .map(|l| {
                StdRng::seed_from_u64(crate::session::rep_seed(
                    cfg.seed ^ NOISE_STREAM_SALT,
                    l.as_u64(),
                ))
            })
            .collect();
        let mut per_link: Vec<Vec<RoutedEvent>> = (0..topo.links())
            .map(|_| Vec::with_capacity(cfg.ticks * (1 + cfg.requests_per_tick)))
            .collect();
        let mut request_routes =
            Vec::with_capacity(cfg.ticks * cfg.requests_per_tick * topo.routes());
        let mut seq = 0u64;
        for step in 1..=cfg.ticks {
            let now = step as f64 * cfg.tick;
            // Measurements: each link sees the union of its crossing
            // routes' flows (correlated load), through its own noise.
            for link in topo.link_ids() {
                let mut rates: Vec<f64> = Vec::new();
                for route in topo.routes_crossing(link) {
                    rates.extend_from_slice(&reps[route.index()][step - 1]);
                }
                if cfg.noise_sd > 0.0 {
                    let rng = &mut noise[link.index()];
                    for r in &mut rates {
                        *r = (*r + normal(rng, 0.0, cfg.noise_sd)).max(0.0);
                    }
                }
                per_link[link.index()].push(RoutedEvent::Measure {
                    t: now,
                    rates: rates.into(),
                });
            }
            // Requests: one occurrence per hop, shared seq, emitted in
            // seq order on every link (the two-phase commit's
            // monotonicity invariant).
            for route in topo.route_ids() {
                for _ in 0..cfg.requests_per_tick {
                    for &hop in topo.route(route) {
                        per_link[hop.index()].push(RoutedEvent::Request { t: now, route, seq });
                    }
                    request_routes.push(route);
                    seq += 1;
                }
            }
        }
        RoutedWorkload {
            topology: Arc::clone(topo),
            per_link,
            request_routes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::SessionBuilder;
    use mbac_traffic::rcbr::{RcbrConfig, RcbrModel};

    fn model() -> RcbrModel {
        RcbrModel::new(RcbrConfig::paper_default(1.0))
    }

    fn routed_config(topology: Topology) -> RoutedLoadConfig {
        RoutedLoadConfig {
            topology: Arc::new(topology),
            flows_per_route: 6,
            ticks: 12,
            tick: 0.5,
            requests_per_tick: 2,
            mean_holding: 5.0,
            noise_sd: 0.05,
            seed: 11,
        }
    }

    #[test]
    fn routed_workload_has_expected_shape() {
        let m = model();
        let topo = Topology::parking_lot(3, 8.0);
        let load = RoutedLoad {
            model: &m,
            cfg: routed_config(topo.clone()),
        };
        let w = SessionBuilder::new().run(&load).unwrap();
        assert_eq!(w.links(), 3);
        // 4 routes × 12 ticks × 2 requests.
        assert_eq!(w.total_requests(), 4 * 12 * 2);
        for link in topo.link_ids() {
            let evs = w.events(link);
            // Each link carries the long route + its own cross traffic.
            let measures = evs
                .iter()
                .filter(|e| matches!(e, RoutedEvent::Measure { .. }))
                .count();
            assert_eq!(measures, 12);
            for e in evs {
                if let RoutedEvent::Measure { rates, .. } = e {
                    assert_eq!(rates.len(), 2 * 6, "two crossing routes of 6 flows");
                }
            }
            // Seq monotonicity: the two-phase commit's invariant.
            let seqs: Vec<u64> = evs
                .iter()
                .filter_map(|e| match e {
                    RoutedEvent::Request { seq, .. } => Some(*seq),
                    _ => None,
                })
                .collect();
            assert!(seqs.windows(2).all(|w| w[0] < w[1]), "seq must increase");
        }
        // Every multi-hop request appears once per hop.
        let occurrences: usize = w.total_events()
            - topo.links() * 12 // measures
            ;
        let expected: usize = w
            .request_routes()
            .iter()
            .map(|&r| topo.route(r).len())
            .sum();
        assert_eq!(occurrences, expected);
    }

    #[test]
    fn routed_workload_is_worker_and_engine_invariant() {
        let m = model();
        let load = RoutedLoad {
            model: &m,
            cfg: routed_config(Topology::star(4, 8.0)),
        };
        let reference = SessionBuilder::new().workers(1).run(&load).unwrap();
        for workers in [2, 4] {
            let w = SessionBuilder::new().workers(workers).run(&load).unwrap();
            assert_eq!(w, reference, "diverged at {workers} workers");
        }
        let boxed = SessionBuilder::new()
            .engine(crate::session::Engine::Boxed)
            .run(&load)
            .unwrap();
        assert_eq!(boxed, reference, "boxed engine diverged");
    }

    /// A single-hop network is independent links: link `i` carries only
    /// route `i`'s flows, as one Measure followed by `requests_per_tick`
    /// Requests per tick.
    #[test]
    fn single_hop_workload_is_one_stream_per_link() {
        let m = model();
        let mut cfg = routed_config(Topology::single_hop(3, 8.0));
        cfg.noise_sd = 0.0;
        let w = SessionBuilder::new()
            .run(&RoutedLoad { model: &m, cfg })
            .unwrap();
        assert_eq!(w.links(), 3);
        assert_eq!(w.total_requests(), 3 * 12 * 2);
        assert_eq!(w.total_events(), 3 * 12 * 3);
        for link in w.topology().link_ids() {
            for (i, e) in w.events(link).iter().enumerate() {
                match e {
                    RoutedEvent::Measure { rates, .. } => {
                        assert_eq!(i % 3, 0);
                        // Occupancy is topped up to the target every tick.
                        assert_eq!(rates.len(), 6);
                    }
                    RoutedEvent::Request { route, .. } => {
                        assert_ne!(i % 3, 0);
                        assert_eq!(route.index(), link.index());
                    }
                }
            }
        }
    }

    #[test]
    fn canonical_order_is_round_robin_and_complete() {
        let m = model();
        let load = RoutedLoad {
            model: &m,
            cfg: routed_config(Topology::parking_lot(3, 8.0)),
        };
        let w = SessionBuilder::new().run(&load).unwrap();
        let merged: Vec<(LinkId, &RoutedEvent)> = w.canonical_events().collect();
        assert_eq!(merged.len(), w.total_events());
        // Per-link subsequence of the merge equals the link's own stream.
        for link in w.topology().link_ids() {
            let sub: Vec<&RoutedEvent> = merged
                .iter()
                .filter(|&&(l, _)| l == link)
                .map(|&(_, e)| e)
                .collect();
            let own: Vec<&RoutedEvent> = w.events(link).iter().collect();
            assert_eq!(sub, own);
        }
        assert_eq!(merged[0].0, LinkId(0));
        assert_eq!(merged[1].0, LinkId(1));
        assert_eq!(merged[2].0, LinkId(2));
    }

    #[test]
    fn routed_bad_configs_are_rejected() {
        let m = model();
        let mut cfg = routed_config(Topology::single_link(8.0));
        cfg.noise_sd = -0.1;
        assert!(matches!(
            RoutedLoad { model: &m, cfg }.validate(),
            Err(ConfigError::Negative { .. })
        ));
        let mut cfg = routed_config(Topology::single_link(8.0));
        cfg.flows_per_route = 1;
        assert!(matches!(
            RoutedLoad { model: &m, cfg }.validate(),
            Err(ConfigError::TooFewFlows { got: 1 })
        ));
        let mut cfg = routed_config(Topology::single_link(8.0));
        cfg.tick = 0.0;
        assert!(matches!(
            RoutedLoad { model: &m, cfg }.validate(),
            Err(ConfigError::NonPositive { field: "tick", .. })
        ));
    }

    /// Per-node noise decorrelates the measurements two links take of
    /// the same shared flow.
    #[test]
    fn per_node_noise_differs_across_links() {
        let m = model();
        let topo = Topology::new(vec![8.0, 8.0], vec![vec![LinkId(0), LinkId(1)]]).unwrap();
        let mut cfg = routed_config(topo);
        cfg.noise_sd = 0.1;
        let w = SessionBuilder::new()
            .run(&RoutedLoad { model: &m, cfg })
            .unwrap();
        // Same route crosses both links: identical underlying rates,
        // different measured values.
        let (a, b) = (w.events(LinkId(0)), w.events(LinkId(1)));
        let mut any_diff = false;
        for (ea, eb) in a.iter().zip(b) {
            if let (
                RoutedEvent::Measure { rates: ra, .. },
                RoutedEvent::Measure { rates: rb, .. },
            ) = (ea, eb)
            {
                assert_eq!(ra.len(), rb.len());
                if ra.iter().zip(rb.iter()).any(|(x, y)| x != y) {
                    any_diff = true;
                }
            }
        }
        assert!(any_diff, "independent per-node noise must decorrelate");
    }
}
