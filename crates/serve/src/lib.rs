//! # mbac-serve — the sharded admission decision plane
//!
//! Turns the paper's O(1) admission controller into a service shape.
//! The controller decides per link (eqn 42); a request on a route is
//! admitted only if every hop's controller accepts, so a single link is
//! just a topology whose routes each have one hop
//! ([`mbac_sim::Topology::single_hop`]). One plane serves every shape:
//!
//! * [`ring::IngestRing`] — a bounded lock-free multi-producer
//!   measurement-ingest ring (per-producer FIFO, loss-free, visible
//!   backpressure);
//! * [`routed`] — per-link [`mbac_sim::MbacController`] state hashed
//!   across shards ([`RoutedPlane`]), with a deterministic two-phase
//!   reserve/commit that joins the per-hop votes of a request even when
//!   its hops land on different shards, all-or-nothing so a rejection
//!   never leaks provisional load into earlier hops; plus the serial
//!   reference ([`routed_replay_serial`]) and the multi-producer sharded
//!   replay ([`routed_replay_threaded`]) of a Scenario-generated
//!   [`mbac_sim::RoutedWorkload`];
//! * [`plane`] — what every shard shares: configuration errors, link →
//!   shard placement ([`shard_of`]), the controller factory, and the
//!   per-shard metrics and stream folding;
//! * [`bench::routed_closed_loop_with_parallelism`] — the closed-loop
//!   load generator reporting p50/p99 decision latency and sustained
//!   decisions/sec, with the single-core gate (`skipped_single_core`)
//!   for hosts where threaded throughput would be meaningless.
//!
//! # Correctness bar
//!
//! Admission decisions under concurrency must match the serial
//! reference *exactly*: for any shard count, producer count, and flow
//! engine, each route's admit/reject sequence (with every hop's
//! admissible count, bit for bit) equals the single-threaded replay's.
//! The argument is per-link order preservation — see [`routed`]'s
//! module docs — and `tests/routed.rs` proves it property-based.

#![warn(missing_docs)]

pub mod bench;
pub mod plane;
pub mod ring;
pub mod routed;

pub use bench::{
    host_parallelism, routed_closed_loop_with_parallelism, BenchError, BenchReport,
    RoutedBenchConfig,
};

pub use plane::{certainty_equivalent_factory, shard_of, ControllerFactory, ServeError};
pub use ring::IngestRing;
pub use routed::{
    routed_plane_snapshot, routed_replay_serial, routed_replay_threaded, HopDecision,
    RouteDecision, RouteTable, RoutedIngestHandle, RoutedPlane, RoutedPlaneConfig,
    RoutedReplayConfig, RoutedReplayOutcome, RoutedShard, RoutedShardEvent,
};
