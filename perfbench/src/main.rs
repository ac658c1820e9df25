//! The repository benchmark: four workloads driven through the public
//! entry points of `mbac-experiments`, `mbac-sim`, `mbac-core` and
//! `mbac-serve`, with end-to-end metrics from untraced runs and
//! per-layer metrics from a separate traced run.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. See `README.md` for
//! the workloads, the metrics and the checks.

mod host;
mod plane;
mod sim;
mod stats;
mod trace;

use std::process::ExitCode;

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run produced: its metrics plus the outcome of its
/// output checks.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// Units of work attempted (simulations, or admission requests).
    pub attempted: u64,
    /// Units that failed: simulations that did not produce a valid
    /// report, or requests never decided.
    pub failed: u64,
    /// Failed output checks, one message each.
    pub check_failures: Vec<String>,
    /// What the program computed, one line each, for the log.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records an output check; a false `ok` makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }
}

/// The parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => {
                args.seed = value
                    .parse()
                    .map_err(|_| format!("--seed: not an unsigned integer: {value}"))?
            }
            "--seconds" => {
                args.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("--seconds: not a positive number: {value}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: expected 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, got {:?}",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

const WORKLOADS: [&str; 4] = ["fig5-quick", "topology", "continuous-1m", "plane-open"];

/// Per-layer metric names with their units, in report order. A traced
/// run reports every one of them; a layer the workload does not call
/// reports 0.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("sim.flows.measure_ns", "ns"),
    ("sim.flows.ns_per_flow_tick", "ns"),
    ("sim.flows.flow_ticks", "count"),
    ("sim.flows.departures", "count"),
    ("sim.flows.unfused_ticks", "count"),
    ("sim.flows.admit_ns", "ns"),
    ("sim.flows.admits", "count"),
    ("sim.flows.advance_ns", "ns"),
    ("sim.flows.depart_ns", "ns"),
    ("sim.flows.snapshot_ns", "ns"),
    ("sim.network.compose_ns", "ns"),
    ("core.estimator.observe_ns", "ns"),
    ("core.admission.decide_ns", "ns"),
    ("core.admission.decides", "count"),
    ("core.topology.path_decide_ns", "ns"),
    ("core.topology.path_sync_ns", "ns"),
    ("core.topology.path_release_ns", "ns"),
    ("sim.metrics.meter_ns", "ns"),
    ("num.pool.utilization", "frac"),
    ("sweep.point_max_s", "s"),
    ("serve.shard.ns_per_event", "ns"),
    ("serve.shard.busy_frac", "frac"),
    ("serve.shard.events_per_drain", "count"),
    ("serve.apply.measure_ns", "ns"),
    ("serve.apply.reserve_ns", "ns"),
    ("serve.decide.p50_us_1hop", "us"),
    ("serve.decide.p50_us_3hop", "us"),
    ("serve.decide.p99_us", "us"),
    ("serve.decide.p50_us_at_250k", "us"),
    ("serve.capacity_dps", "1/s"),
    ("serve.gen.late_p50_us", "us"),
    ("serve.gen.late_max_us", "us"),
    ("serve.ring.full_retries", "count"),
    ("bench.other_ns", "ns"),
    ("bench.span_coverage", "frac"),
    ("bench.timer_ns", "ns"),
    ("bench.trace_overhead", "frac"),
];

/// Fills in 0 for every per-layer metric the workload did not report
/// and orders the list as [`PER_LAYER`].
fn complete_per_layer(out: &mut Outcome) {
    let mut ordered = Vec::with_capacity(PER_LAYER.len());
    for (name, unit) in PER_LAYER {
        let value = out
            .metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value);
        ordered.push(Metric { name, value, unit });
    }
    for m in &out.metrics {
        assert!(
            PER_LAYER.iter().any(|(name, _)| *name == m.name),
            "per-layer metric {} is not declared",
            m.name
        );
    }
    out.metrics = ordered;
}

/// Adds the end-to-end memory metric every workload reports.
fn add_peak_rss(out: &mut Outcome) {
    match host::peak_rss_mb() {
        Some(mb) => out.metric("peak_rss_mb", mb, "MB"),
        None => {
            out.check(false, || "peak RSS is unavailable on this host".into());
            out.metric("peak_rss_mb", 0.0, "MB");
        }
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn result_line(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(m.name),
                m.value,
                json_string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.check_failures.is_empty() && out.failed == 0,
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    println!("host {}", host::fingerprint_json());
    let mut out = match (args.workload.as_str(), args.trace) {
        ("fig5-quick", false) => sim::fig5_quick(&args),
        ("fig5-quick", true) => sim::fig5_quick_traced(&args),
        ("topology", false) => sim::topology(&args),
        ("topology", true) => sim::topology_traced(&args),
        ("continuous-1m", false) => sim::continuous_1m(&args),
        ("continuous-1m", true) => sim::continuous_1m_traced(&args),
        ("plane-open", false) => plane::plane_open(&args),
        ("plane-open", true) => plane::plane_open_traced(&args),
        _ => unreachable!("workload names are validated by parse_args"),
    };
    if args.trace {
        complete_per_layer(&mut out);
    } else {
        add_peak_rss(&mut out);
    }
    for m in &mut out.metrics {
        if !m.value.is_finite() {
            out.check_failures
                .push(format!("metric {} is not finite", m.name));
            m.value = 0.0;
        }
    }
    for n in &out.notes {
        println!("{n}");
    }
    for m in &out.metrics {
        println!("{:<32} {:>18.6} {}", m.name, m.value, m.unit);
    }
    for f in &out.check_failures {
        eprintln!("check failed: {f}");
    }
    println!("{}", result_line(&out));
    ExitCode::SUCCESS
}
