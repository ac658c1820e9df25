//! Subcommand implementations.

pub mod churn;
pub mod design;
pub mod serve_bench;
pub mod simulate;
pub mod theory;
pub mod trace;

use crate::args::{ArgError, Args};
use mbac_core::topology::{LinkId, Topology};
use mbac_metrics::{StreamConfig, StreamSink};

/// Opens the streaming JSONL sink implied by `--metrics-stream` (with
/// `--stream-sample` and `--stream-flush` shaping it), or `None` when
/// the flag is absent.
pub(crate) fn open_stream(args: &Args) -> Result<Option<StreamSink>, ArgError> {
    let Some(path) = args.get("metrics-stream") else {
        return Ok(None);
    };
    let sample_fraction = args.f64_or("stream-sample", 0.0)?;
    if !(0.0..=1.0).contains(&sample_fraction) {
        return Err(ArgError(format!(
            "--stream-sample must be in [0, 1], got {sample_fraction}"
        )));
    }
    let ring_capacity = args.u64_or("stream-ring", StreamConfig::default().ring_capacity as u64)?;
    if ring_capacity == 0 {
        return Err(ArgError("--stream-ring must be >= 1".into()));
    }
    let cfg = StreamConfig {
        sample_fraction,
        flush_interval: args.u64_or("stream-flush", 0)?,
        ring_capacity: ring_capacity as usize,
        ..StreamConfig::default()
    };
    StreamSink::to_path(cfg, std::path::Path::new(path))
        .map(Some)
        .map_err(|e| ArgError(format!("cannot write {path}: {e}")))
}

/// Joins the stream writer and reports its visible backpressure
/// accounting (dropped records are the bounded-memory trade-off; they
/// must be loud, never silent).
pub(crate) fn finish_stream(args: &Args, sink: Option<StreamSink>) -> Result<(), ArgError> {
    let Some(sink) = sink else {
        return Ok(());
    };
    let path = args.get("metrics-stream").unwrap_or("-");
    let stats = sink
        .finish()
        .map_err(|e| ArgError(format!("cannot write {path}: {e}")))?;
    println!(
        "metrics stream: {} samples, {} intervals, {} dropped (ring capacity {})",
        stats.samples, stats.intervals, stats.dropped, stats.ring_capacity
    );
    Ok(())
}

/// Parses a `--topology` spec into a [`Topology`] with every link at
/// `capacity`. Accepted forms: `single[:<links>]` (independent
/// single-hop links, 1 by default), `parking-lot:<hops>` and
/// `star:<legs>` (both need >= 2). A capacity or route length that a
/// topology rejects is an invalid configuration, not a panic.
pub(crate) fn parse_topology(spec: &str, capacity: f64) -> Result<Topology, ArgError> {
    let bad = |why: &str| ArgError(format!("--topology '{spec}': {why}"));
    let size = |raw: &str, what: &str, min: usize| -> Result<usize, ArgError> {
        let n: usize = raw
            .parse()
            .map_err(|_| bad(&format!("{what} must be an integer, got '{raw}'")))?;
        if n < min {
            return Err(bad(&format!("{what} must be >= {min}")));
        }
        Ok(n)
    };
    // (size, longest route, constructor)
    let (n, longest, build): (usize, usize, fn(usize, f64) -> Topology) = match spec.split_once(':')
    {
        None if spec == "single" => (1, 1, Topology::single_hop),
        Some(("single", raw)) => (size(raw, "links", 1)?, 1, Topology::single_hop),
        Some(("parking-lot", raw)) => {
            let hops = size(raw, "hops", 2)?;
            (hops, hops, Topology::parking_lot)
        }
        Some(("star", raw)) => (size(raw, "legs", 2)?, 2, Topology::star),
        _ => {
            return Err(bad(
                "expected single[:<links>], parking-lot:<hops>, or star:<legs>",
            ))
        }
    };
    // The shape constructors panic on what `Topology::validate` rejects;
    // validate the shape's longest route at this capacity first.
    let longest_route = vec![(0..longest as u32).map(LinkId).collect()];
    Topology::new(vec![capacity; longest], longest_route)
        .map_err(|e| ArgError(format!("invalid configuration: {e}")))?;
    Ok(build(n, capacity))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_three_shapes() {
        let t = parse_topology("single", 8.0).unwrap();
        assert_eq!(t, Topology::single_link(8.0));
        assert_eq!(parse_topology("single:1", 8.0).unwrap(), t);
        let t = parse_topology("single:5", 8.0).unwrap();
        assert_eq!(t, Topology::single_hop(5, 8.0));
        let t = parse_topology("parking-lot:3", 10.0).unwrap();
        assert_eq!(t.links(), 3);
        assert_eq!(t.routes(), 4);
        let t = parse_topology("star:4", 10.0).unwrap();
        assert_eq!(t.links(), 5);
        assert_eq!(t.routes(), 4);
    }

    #[test]
    fn rejects_malformed_specs() {
        for spec in [
            "ring",
            "parking-lot",
            "parking-lot:x",
            "parking-lot:1",
            "star:0",
            "mesh:3",
            "single:0",
            "single:",
        ] {
            assert!(parse_topology(spec, 8.0).is_err(), "{spec}");
        }
    }

    #[test]
    fn rejects_what_a_topology_rejects() {
        assert!(parse_topology("parking-lot:255", 8.0).is_ok());
        let err = parse_topology("parking-lot:256", 8.0).unwrap_err();
        assert_eq!(
            err.0,
            "invalid configuration: route0 has 256 hops, more than 255"
        );
        for spec in ["single:3", "parking-lot:3", "star:3"] {
            let err = parse_topology(spec, -1.0).unwrap_err();
            assert!(err.0.starts_with("invalid configuration: "), "{spec}");
        }
    }
}
