//! The headline correctness property of the decision plane: **shard
//! invariance**. For any shard count 1..=8, any producer count, either
//! flow engine, and any of the reference topologies (single link,
//! independent single-hop links, parking-lot, star), the sharded
//! plane's per-route decision sequence — votes, admissible counts,
//! occupancies, bit for bit through the canonical encoding — equals the
//! single-threaded serial reference. Sharding and threading are
//! performance knobs, never semantic ones (the serve-side extension of
//! the worker-invariance contract in `crates/sim/tests/session.rs`).
//! And on single-hop topologies the plane must reproduce pinned digests
//! of the per-link decision bytes recorded from the single-link plane
//! it replaced, and on the parking lot pinned per-route digests of its
//! mixed one-hop/multi-hop decisions, without re-blessing anything.

use mbac_metrics::MetricValue;
use mbac_num::KernelDispatch;
use mbac_serve::{
    certainty_equivalent_factory, routed_replay_serial, routed_replay_threaded, RoutedPlaneConfig,
    RoutedReplayConfig,
};
use mbac_sim::{
    Engine, MetricsMode, RoutedEvent, RoutedLoad, RoutedLoadConfig, RoutedWorkload, SessionBuilder,
    Topology,
};
use mbac_traffic::ar1::{Ar1Config, Ar1Model};
use mbac_traffic::process::SourceModel;
use mbac_traffic::rcbr::{RcbrConfig, RcbrModel};
use proptest::prelude::*;
use std::sync::Arc;

fn model(ar1: bool) -> Box<dyn SourceModel> {
    if ar1 {
        Box::new(Ar1Model::new(Ar1Config {
            mean: 1.0,
            std_dev: 0.3,
            t_c: 1.0,
            tick: 0.05,
            clamp_at_zero: true,
        }))
    } else {
        Box::new(RcbrModel::new(RcbrConfig::paper_default(1.0)))
    }
}

/// The acceptance topologies: a single link, the 3-hop parking lot,
/// the 4-leg star, and `links` independent single-hop links.
fn topology(kind: usize, links: usize) -> Topology {
    match kind {
        0 => Topology::single_link(8.0),
        1 => Topology::parking_lot(3, 14.0),
        // The hub aggregates all four legs' routes (20 steady flows),
        // so its capacity sits just past the acceptance boundary.
        2 => Topology::star(4, 26.0),
        _ => Topology::single_hop(links, 8.0),
    }
}

/// 64-bit FNV-1a, the digest the pinned decision bytes are kept as.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn workload(
    seed: u64,
    topo: Topology,
    ticks: usize,
    requests_per_tick: usize,
    noise_sd: f64,
    engine: Engine,
    ar1: bool,
) -> RoutedWorkload {
    let m = model(ar1);
    let load = RoutedLoad {
        model: m.as_ref(),
        cfg: RoutedLoadConfig {
            topology: Arc::new(topo),
            flows_per_route: 5,
            ticks,
            tick: 0.3,
            requests_per_tick,
            mean_holding: 4.0,
            noise_sd,
            seed,
        },
    };
    SessionBuilder::new().engine(engine).run(&load).unwrap()
}

fn replay_cfg(shards: usize, producers: usize, ring_capacity: usize) -> RoutedReplayConfig {
    RoutedReplayConfig {
        plane: RoutedPlaneConfig {
            shards,
            ring_capacity,
            metrics: MetricsMode::Enabled,
            stream: None,
        },
        producers,
        stamp_latency: false,
    }
}

fn assert_routes_match(
    sharded: &mbac_serve::RoutedReplayOutcome,
    reference: &mbac_serve::RoutedReplayOutcome,
    routes: usize,
    label: &str,
) {
    assert_eq!(sharded.decisions, reference.decisions, "{label}");
    for route in 0..routes {
        assert_eq!(
            sharded.encode_route(route),
            reference.encode_route(route),
            "route {route} diverged: {label}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any `(topology, shards, producers, engine, model, noise)`: the
    /// per-route decision bytes equal the serial reference's. The tiny
    /// ring capacity keeps backpressure — and therefore parking — on
    /// the hot side of the property.
    #[test]
    fn sharded_routed_decisions_match_serial_reference(
        seed in 0u64..1_000_000,
        topo_kind in 0usize..4,
        links in 1usize..6,
        shards in 1usize..=8,
        producers in 1usize..4,
        ring_pow in 3u32..7,
        ticks in 4usize..14,
        requests_per_tick in 0usize..4,
        noisy in 0u8..2,
        ar1 in 0u8..2,
        boxed in 0u8..2,
        memoryless in 0u8..2,
    ) {
        let engine = if boxed == 1 { Engine::Boxed } else { Engine::Batched };
        let noise_sd = if noisy == 1 { 0.05 } else { 0.0 };
        let w = workload(seed, topology(topo_kind, links), ticks, requests_per_tick, noise_sd, engine, ar1 == 1);
        let t_m = if memoryless == 1 { 0.0 } else { 2.0 };
        let make = certainty_equivalent_factory(1e-2, t_m);

        // The reference is always the batched-engine workload: engine
        // choice must not leak into the workload either.
        let w_ref = workload(seed, topology(topo_kind, links), ticks, requests_per_tick, noise_sd, Engine::Batched, ar1 == 1);
        let reference = routed_replay_serial(&replay_cfg(1, 1, 64), Arc::clone(&make), &w_ref).unwrap();
        let sharded = routed_replay_threaded(&replay_cfg(shards, producers, 1 << ring_pow), make, &w).unwrap();

        prop_assert_eq!(sharded.decisions, reference.decisions);
        for route in 0..w.topology().routes() {
            prop_assert_eq!(
                sharded.encode_route(route),
                reference.encode_route(route),
                "route {} diverged at topo={}, shards={}, producers={}",
                route, topo_kind, shards, producers
            );
        }
    }
}

/// The acceptance sweep, deterministically: every shard count 1..=8
/// (threaded, 2 producers) reproduces the serial reference byte for
/// byte, on every reference topology.
#[test]
fn every_shard_count_matches_serial_reference_on_every_topology() {
    for topo_kind in 0..4 {
        let w = workload(
            42,
            topology(topo_kind, 5),
            20,
            3,
            0.05,
            Engine::Batched,
            false,
        );
        let make = certainty_equivalent_factory(1e-2, 2.0);
        let reference = routed_replay_serial(&replay_cfg(1, 1, 64), Arc::clone(&make), &w).unwrap();
        assert!(
            reference.admitted > 0 && reference.rejected() > 0,
            "topology {topo_kind} must exercise both outcomes"
        );
        for shards in 1..=8 {
            let sharded =
                routed_replay_threaded(&replay_cfg(shards, 2, 32), Arc::clone(&make), &w).unwrap();
            assert_routes_match(
                &sharded,
                &reference,
                w.topology().routes(),
                &format!("topology {topo_kind}, {shards} shards"),
            );
        }
    }
}

/// FNV-1a digests of the per-link decision bytes of the single-link
/// plane this crate used to keep beside the routed one, recorded before
/// it was deleted: `(AR(1) source?, seed, digest of link l's bytes)`.
/// Workload: 4 flows per link, 20 ticks of 0.3, 3 requests per tick,
/// holding 4, capacity 8; controller `p_ce` = 1e-2, `T_m` = 2. A link's
/// stream depends only on (source, seed, link), so the 1-, 3- and
/// 8-link workloads' digests are prefixes of these (as recorded, at 1
/// and 4 shards alike).
const LEGACY_LINK_DIGESTS: [(bool, u64, [u64; 8]); 4] = [
    (
        false,
        42,
        [
            0x3593eebfe6f06b22,
            0x818da7c6af6bb5a0,
            0xb38633224e2c7bb0,
            0xa1e4da1c332783de,
            0xa9a4477f868e864e,
            0x4a09b5d2a0acc2bf,
            0xf684c9832a9be8d9,
            0x261b151230103580,
        ],
    ),
    (
        false,
        7,
        [
            0x0767ac5a4eece0b5,
            0xe8f45d530a1c6ea7,
            0x79f5802abbb391f2,
            0xa2f02d937666428b,
            0xb9fe24b357a89465,
            0xe6bd03d5153f0e93,
            0x8867c0196c3eda73,
            0xf78e3038359c2de5,
        ],
    ),
    (
        true,
        42,
        [
            0x26b36ff539f99486,
            0x846b94347039b41a,
            0x4139e962fe885c11,
            0xa981af1b23675543,
            0x9a6a71df3d3ab48f,
            0x2c85708fd80a31c1,
            0x40494b187bea6b5b,
            0x467ca46a9559f143,
        ],
    ),
    (
        true,
        7,
        [
            0x2cdf2d8cff4be741,
            0xe8473e97b96fcba3,
            0xfb7c7236b275c0ec,
            0x9edb1c976f66307d,
            0x70b3c1581da29291,
            0x26fd89ecddbcd85d,
            0xe2db33f7e4b2e1e0,
            0x7fd3b071c3cf795a,
        ],
    ),
];

/// A single link is a one-hop route: on `single_hop(n, 8.0)` the plane
/// must reproduce the pinned per-link digests of the single-link plane
/// it replaced — same workload bits, same decision bits — serially and
/// sharded, for n ∈ {1, 3, 8}, both seeds, and an RCBR and an AR(1)
/// source. Nothing is re-blessed: hop 0's 13-byte record is the old
/// per-link record.
#[test]
fn single_link_routed_decisions_reproduce_legacy_bytes() {
    for (ar1, seed, digests) in LEGACY_LINK_DIGESTS {
        let m = model(ar1);
        for links in [1, 3, 8] {
            let load = RoutedLoad {
                model: m.as_ref(),
                cfg: RoutedLoadConfig {
                    topology: Arc::new(Topology::single_hop(links, 8.0)),
                    flows_per_route: 4,
                    ticks: 20,
                    tick: 0.3,
                    requests_per_tick: 3,
                    mean_holding: 4.0,
                    noise_sd: 0.0,
                    seed,
                },
            };
            let w = SessionBuilder::new().run(&load).unwrap();
            let make = certainty_equivalent_factory(1e-2, 2.0);
            for shards in [1, 4] {
                let out = if shards == 1 {
                    routed_replay_serial(&replay_cfg(1, 1, 64), Arc::clone(&make), &w)
                } else {
                    routed_replay_threaded(&replay_cfg(shards, 2, 32), Arc::clone(&make), &w)
                }
                .unwrap();
                assert!(out.admitted > 0 && out.rejected() > 0);
                for (link, &digest) in digests.iter().enumerate().take(links) {
                    assert_eq!(
                        fnv1a(&out.encode_route(link)),
                        digest,
                        "link {link} diverged: ar1={ar1}, seed={seed}, \
                         {links} links, {shards} shards"
                    );
                }
            }
        }
    }
}

/// FNV-1a digests of the per-route decision bytes of the serial
/// reference on a mixed one-hop/multi-hop load, recorded before one-hop
/// requests were resolved in place: `(seed, digest of route r's bytes)`.
/// Workload: parking-lot(3) at capacity 60, 25 flows per route (RCBR
/// `paper_default(1.0)`), 400 ticks of 0.1, 4 requests per tick,
/// holding 10; controller `p_ce` = 1e-2, `T_m` = 5. Route 0 crosses all
/// three links; routes 1–3 are one hop each, and every route sees both
/// admits and rejects.
const PARKING_LOT_ROUTE_DIGESTS: [(u64, [u64; 4]); 2] = [
    (
        7,
        [
            0x5ad88884a84a1da4,
            0x41d5b11e5c3e4e8d,
            0xf76a48e6fe8e196d,
            0x2dfa195e37f9a702,
        ],
    ),
    (
        42,
        [
            0x3e7076b1c2687987,
            0x92eb56925b9ba3bf,
            0xc595d8d955ebab5d,
            0x9e065d36aa7bf475,
        ],
    ),
];

/// One-hop and multi-hop requests share links on the parking lot, so
/// the in-place one-hop resolution and the two-phase protocol meet
/// there. Their joint decision bytes must equal the pinned digests,
/// serially and at 2 and 4 shards.
#[test]
fn mixed_topology_routed_decisions_reproduce_pinned_bytes() {
    let m = RcbrModel::new(RcbrConfig::paper_default(1.0));
    for (seed, digests) in PARKING_LOT_ROUTE_DIGESTS {
        let load = RoutedLoad {
            model: &m,
            cfg: RoutedLoadConfig {
                topology: Arc::new(Topology::parking_lot(3, 60.0)),
                flows_per_route: 25,
                ticks: 400,
                tick: 0.1,
                requests_per_tick: 4,
                mean_holding: 10.0,
                noise_sd: 0.0,
                seed,
            },
        };
        let w = SessionBuilder::new().run(&load).unwrap();
        let make = certainty_equivalent_factory(1e-2, 5.0);
        for shards in [1, 2, 4] {
            let out = if shards == 1 {
                routed_replay_serial(&replay_cfg(1, 1, 64), Arc::clone(&make), &w)
            } else {
                routed_replay_threaded(&replay_cfg(shards, 2, 32), Arc::clone(&make), &w)
            }
            .unwrap();
            for (route, &digest) in digests.iter().enumerate() {
                let d = &out.per_route[route];
                assert!(
                    d.iter().any(|d| d.admit) && d.iter().any(|d| !d.admit),
                    "route {route} must see both outcomes: seed={seed}"
                );
                assert_eq!(
                    fnv1a(&out.encode_route(route)),
                    digest,
                    "route {route} diverged: seed={seed}, {shards} shards"
                );
            }
        }
    }
}

/// Kernel dispatch is a performance knob, never a semantic one: the
/// routed decision bytes are identical under the scalar and wide
/// kernels, on a multi-hop topology, serial and sharded.
#[test]
fn routed_decisions_are_bit_identical_across_dispatch() {
    let run = || {
        let w = workload(7, topology(1, 0), 15, 2, 0.05, Engine::Batched, true);
        let make = certainty_equivalent_factory(1e-2, 2.0);
        let serial = routed_replay_serial(&replay_cfg(1, 1, 64), Arc::clone(&make), &w).unwrap();
        let sharded = routed_replay_threaded(&replay_cfg(4, 2, 32), make, &w).unwrap();
        let routes = w.topology().routes();
        (0..routes)
            .map(|r| (serial.encode_route(r), sharded.encode_route(r)))
            .collect::<Vec<_>>()
    };
    let prev = KernelDispatch::set_global(KernelDispatch::Scalar);
    let scalar = run();
    KernelDispatch::set_global(KernelDispatch::Wide);
    let wide = run();
    KernelDispatch::set_global(prev);
    assert_eq!(scalar.len(), wide.len());
    for (route, (s, w)) in scalar.into_iter().zip(wide).enumerate() {
        assert_eq!(
            s.0, w.0,
            "serial bytes diverged across dispatch, route {route}"
        );
        assert_eq!(
            s.1, w.1,
            "sharded bytes diverged across dispatch, route {route}"
        );
        assert_eq!(s.0, s.1, "serial/sharded diverged, route {route}");
    }
}

/// The counters account for everything exactly once, for any shard
/// count, on a multi-hop and a single-hop topology: decisions and
/// measurements partition across shards, and every per-link reserve
/// either committed or aborted.
#[test]
fn routed_counters_partition_the_decisions() {
    for topo_kind in [1, 3] {
        let w = workload(
            7,
            topology(topo_kind, 4),
            15,
            2,
            0.0,
            Engine::Batched,
            false,
        );
        let topo = Arc::clone(w.topology());
        let make = certainty_equivalent_factory(1e-2, 2.0);
        for shards in [1, 3, 8] {
            let label = format!("topology {topo_kind}, {shards} shards");
            let out =
                routed_replay_threaded(&replay_cfg(shards, 2, 32), Arc::clone(&make), &w).unwrap();
            let counter = |name: &str| -> u64 {
                (0..shards)
                    .map(
                        |s| match out.snapshot.get(&format!("serve.shard{s}.{name}")) {
                            Some(MetricValue::Counter(c)) => c.count,
                            None => 0,
                            other => panic!("{other:?}"),
                        },
                    )
                    .sum()
            };
            assert_eq!(counter("requests"), out.decisions, "{label}");
            assert_eq!(counter("admitted"), out.admitted);
            assert_eq!(counter("rejected"), out.rejected());
            let measure_events = topo
                .link_ids()
                .flat_map(|l| w.events(l))
                .filter(|e| matches!(e, RoutedEvent::Measure { .. }))
                .count() as u64;
            assert_eq!(counter("measures"), measure_events, "{label}");
            // Timing-gated histogram must be absent in plain Enabled mode.
            assert!(out.snapshot.get("serve.shard0.decision_ns").is_none());
            // Per-link: every reserve resolves to a commit or an abort, and
            // the reserve total counts each request once per hop.
            let link_counter = |link: usize, name: &str| -> u64 {
                match out.snapshot.get(&format!("net.link{link}.{name}")) {
                    Some(MetricValue::Counter(c)) => c.count,
                    other => panic!("net.link{link}.{name}: {other:?}"),
                }
            };
            let mut reserves = 0;
            for link in 0..topo.links() {
                assert_eq!(
                    link_counter(link, "commits") + link_counter(link, "aborts"),
                    link_counter(link, "reserves"),
                    "link {link}: {label}"
                );
                reserves += link_counter(link, "reserves");
            }
            let per_request_hops: u64 = topo
                .route_ids()
                .map(|r| out.per_route[r.index()].len() as u64 * topo.route(r).len() as u64)
                .sum();
            assert_eq!(reserves, per_request_hops, "{label}");
        }
    }
}
