//! Shared main-routine for the experiment binaries.
//!
//! Every `src/bin` wrapper does the same four things: enable report
//! collection, run its experiment, print the tables, and emit the JSON
//! run report. [`run`] centralises that and layers the flight recorder on
//! top: setting `NETSIM_PROFILE=1` (any non-empty value other than `0`)
//! or passing `--profile` turns on `netsim::profile` for the process, so
//! the emitted report carries `profile`, `runner`, and per-snapshot
//! gauge-sample sections. `--profile-chrome <path>` additionally writes
//! the scope tree as a chrome://tracing / Perfetto file.
//!
//! Scale-ready telemetry is layered the same way: `--sample-flows N` /
//! `NETSIM_SAMPLE=N`, `--topk K`, and `--sketch-threshold N` (see
//! [`telemetry_requested`]) install a [`netsim::TelemetryConfig`] that
//! every observed world receives — head-based flow sampling, heavy-hitter
//! sketches, and the online invariant monitors' report section.

use crate::report;
use crate::Table;
use netsim::TelemetryConfig;

/// Whether this process should record the flight recorder: the
/// `NETSIM_PROFILE` environment variable (non-empty, not `"0"`) or a
/// `--profile` argument.
pub fn profile_requested() -> bool {
    std::env::var("NETSIM_PROFILE").is_ok_and(|v| !v.is_empty() && v != "0")
        || std::env::args().any(|a| a == "--profile")
}

/// The value following `flag` in argv, when present.
pub fn arg_value(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    let ix = args.iter().position(|a| a == flag)?;
    args.get(ix + 1).filter(|v| !v.starts_with("--")).cloned()
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok().and_then(|v| v.parse().ok())
}

/// An integer knob settable as `--flag N` (wins) or `ENV=N` — the pattern
/// every scale/churn size shares.
pub fn u64_knob(flag: &str, env: &str) -> Option<u64> {
    arg_value(flag)
        .and_then(|v| v.parse().ok())
        .or_else(|| env_u64(env))
}

/// Parse the scale-ready telemetry configuration from argv and the
/// environment. `None` when nothing was asked for — the full-fidelity
/// default. Knobs (flag wins over environment variable):
///
/// * `--sample-flows N` / `NETSIM_SAMPLE=N` — record 1-in-N flows fully
///   (anomalous flows always promoted to full capture)
/// * `--topk K` / `NETSIM_TOPK=K` — heavy-hitter sketch slots
/// * `--sketch-threshold N` / `NETSIM_SKETCH_THRESHOLD=N` — node count
///   above which per-node counters collapse into sketches
/// * `NETSIM_TELEMETRY_SEED=S` — seed for every sampling decision
pub fn telemetry_requested() -> Option<TelemetryConfig> {
    let mut cfg = TelemetryConfig::default();
    let mut any = false;
    if let Some(n) = u64_knob("--sample-flows", "NETSIM_SAMPLE") {
        cfg.sample_flows = Some(n);
        any = true;
    }
    if let Some(k) = u64_knob("--topk", "NETSIM_TOPK") {
        cfg.topk = k as usize;
        any = true;
    }
    if let Some(t) = u64_knob("--sketch-threshold", "NETSIM_SKETCH_THRESHOLD") {
        cfg.sketch_node_threshold = t as usize;
        any = true;
    }
    if let Some(s) = env_u64("NETSIM_TELEMETRY_SEED") {
        cfg.seed = s;
    }
    any.then_some(cfg)
}

/// Run an experiment binary body under the standard harness: report
/// collection on, profiling on when requested, the whole run wrapped in a
/// root scope named after the binary, tables printed, and the run report
/// emitted. Returns the tables for callers that post-process them.
pub fn run(name: &'static str, f: impl FnOnce() -> Vec<Table>) -> Vec<Table> {
    report::enable();
    if let Some(cfg) = telemetry_requested() {
        report::set_telemetry_config(cfg);
    }
    let profiling = profile_requested();
    if profiling {
        netsim::profile::set_enabled(true);
    }
    let tables = {
        let _prof = netsim::profile::scope(name);
        f()
    };
    for t in &tables {
        println!("{t}");
    }
    report::emit(name, &tables);
    if profiling {
        export_chrome_if_asked(name);
    }
    tables
}

/// Honour `--profile-chrome <path>`; with no path the trace lands next to
/// the run reports as `<name>-chrome.json`.
fn export_chrome_if_asked(name: &str) {
    let args: Vec<String> = std::env::args().collect();
    let Some(ix) = args.iter().position(|a| a == "--profile-chrome") else {
        return;
    };
    let path = args
        .get(ix + 1)
        .filter(|p| !p.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| format!("{name}-chrome.json"));
    let trace = netsim::profile::capture().chrome_trace();
    let json = serde_json::to_string_pretty(&trace)
        .unwrap_or_else(|e| format!("{{\"error\":\"serialization failed: {e:?}\"}}"));
    match std::fs::write(&path, json) {
        Ok(()) => eprintln!("chrome-trace: {path}"),
        Err(e) => eprintln!("chrome-trace: cannot write {path}: {e}"),
    }
}
