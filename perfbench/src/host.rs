//! Host facts: the fingerprint stamped on every result, and peak RSS.

use std::process::Command;

/// The first `model name` line of `/proc/cpuinfo`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `rustc --version` of the compiler on the path (the one cargo used to
/// build this benchmark, unless `RUSTC` names another).
fn rustc_version() -> String {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The `target-cpu` the build used, from `.cargo/config.toml` in the
/// working directory (the repository root the benchmark runs from).
fn target_cpu() -> String {
    std::fs::read_to_string(".cargo/config.toml")
        .ok()
        .and_then(|s| {
            let at = s.find("target-cpu=")? + "target-cpu=".len();
            let rest = &s[at..];
            let end = rest
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '-' || c == '_'))
                .unwrap_or(rest.len());
            Some(rest[..end].to_string())
        })
        .unwrap_or_else(|| "default".into())
}

/// The host fingerprint as one JSON object: results are comparable only
/// between runs with the same fingerprint.
pub fn fingerprint_json() -> String {
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"cpu\": {}, \"available_parallelism\": {}, \"rustc\": {}, \"target_cpu\": {}}}",
        crate::json_string(&cpu_model()),
        parallelism,
        crate::json_string(&rustc_version()),
        crate::json_string(&target_cpu()),
    )
}

/// The process's peak resident set size in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}
