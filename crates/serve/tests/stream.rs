//! Streaming-emission contract on the decision plane: attaching a
//! stream handle never changes what the plane computes, and the
//! cumulative interval records it emits re-fold to the plane's own
//! merged snapshot exactly — for any shard count, producer count, and
//! flush interval, on independent single-hop links and on a multi-hop
//! topology.

use mbac_metrics::{refold_intervals, StreamConfig, StreamItem, StreamSink};
use mbac_serve::{
    certainty_equivalent_factory, routed_replay_serial, routed_replay_threaded, RoutedPlaneConfig,
    RoutedReplayConfig,
};
use mbac_sim::{
    MetricsMode, RoutedLoad, RoutedLoadConfig, RoutedWorkload, SessionBuilder, Topology,
};
use mbac_traffic::rcbr::{RcbrConfig, RcbrModel};
use proptest::prelude::*;
use std::sync::Arc;

fn workload(seed: u64, topology: Topology) -> RoutedWorkload {
    let model = RcbrModel::new(RcbrConfig::paper_default(1.0));
    let load = RoutedLoad {
        model: &model,
        cfg: RoutedLoadConfig {
            topology: Arc::new(topology),
            flows_per_route: 6,
            ticks: 20,
            tick: 0.1,
            requests_per_tick: 3,
            mean_holding: 5.0,
            noise_sd: 0.0,
            seed,
        },
    };
    SessionBuilder::new().run(&load).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// With sampling at 1.0 every decision emits exactly one sample,
    /// and the final intervals (one per shard, cumulative) re-fold to
    /// the plane's merged `serve.shard<i>.*` / `net.link<j>.*` snapshot
    /// byte-for-byte.
    #[test]
    fn serve_stream_refolds_to_plane_snapshot(
        seed in 0u64..100_000,
        multi_hop in 0u8..2,
        shards in 1usize..5,
        producers in 1usize..4,
        flush_interval in 0u64..20,
    ) {
        let topology = if multi_hop == 1 {
            Topology::parking_lot(3, 14.0)
        } else {
            Topology::single_hop(8, 8.0)
        };
        let w = workload(seed, topology);
        let (sink, collected) = StreamSink::collecting(StreamConfig {
            ring_capacity: 1 << 14,
            sample_fraction: 1.0,
            flush_interval,
            ..StreamConfig::default()
        });
        let cfg = RoutedReplayConfig {
            plane: RoutedPlaneConfig {
                shards,
                ring_capacity: 64,
                metrics: MetricsMode::Streaming,
                stream: Some(sink.handle()),
            },
            producers,
            stamp_latency: false,
        };
        let make = certainty_equivalent_factory(1e-2, 2.0);
        let out = if shards > 1 || producers > 1 {
            routed_replay_threaded(&cfg, make, &w).unwrap()
        } else {
            routed_replay_serial(&cfg, make, &w).unwrap()
        };
        let stats = sink.finish().unwrap();
        prop_assert_eq!(stats.dropped, 0, "oversized ring must not drop");
        prop_assert_eq!(stats.samples, out.decisions, "one sample per decision");

        let items = collected.lock().unwrap();
        let sampled = items
            .iter()
            .filter(|i| matches!(i, StreamItem::Sample { .. }))
            .count() as u64;
        prop_assert_eq!(sampled, out.decisions);
        let refolded = refold_intervals(&items);
        prop_assert_eq!(
            out.snapshot.to_json(),
            refolded.to_json(),
            "re-folded serve intervals diverged (multi_hop={}, shards={}, producers={})",
            multi_hop,
            shards,
            producers
        );
    }
}
