//! The repository benchmark: two workloads built from the workspace's
//! public entry points, measured end to end with tracing off, and layer by
//! layer in a separate traced run.
//!
//! ```text
//! perfbench --workload suite|churn --seed N --seconds S --trace 0|1
//! ```
//!
//! - `suite`: every paper experiment (`run_all_with` at `nproc` runners)
//!   with report collection on, ending each iteration with the run report
//!   built and serialized in memory, as `all_experiments` does. Experiment
//!   seeds are fixed inside the crate, so `--seed` changes nothing here.
//! - `churn`: E18 on a 20,480-host world, observed like `exp_scale`: a
//!   handoff storm, a flash crowd and a re-registration stampede of 512
//!   each, then E18's policy miss storm over 262,144 correspondents, one
//!   `run_churn` call per phase. A fresh world per iteration, since churn
//!   cannot be replayed on a used world.
//!
//! Every run checks the program's outputs and counts failed operations.
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the lines before it name every
//! metric with its unit and how it was taken. `perfbench/README.md` maps
//! each per-layer metric to the end-to-end metric it should move.

use std::collections::HashMap;
use std::process::Command;
use std::time::Instant;

use bench::experiments::{default_threads, run_all_with, take_runner_telemetry, RunnerBatch};
use bench::report;
use bench::scale::{build_world, run_churn, ChurnParams, ChurnStats, ScaleParams};
use bench::Table;
use netsim::profile::{self, Counter, ScopeStat};
use netsim::DropReason;

/// Metrics of a run with `--trace 0`: `(name, unit)`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("iter_s.p50", "s"),
    ("iter_s.tail", "s"),
    ("bytes_per_unit", "B"),
];

/// Metrics of a run with `--trace 1`: `(name, unit)`. A workload that does
/// not cross a layer reports 0 for it.
const PER_LAYER: &[(&str, &str)] = &[
    ("world.dispatch.ns_per_call", "ns"),
    ("event.pop_batch.ns_per_call", "ns"),
    ("link.transmit.ns_per_call", "ns"),
    ("device.router.forward.ns_per_call", "ns"),
    ("device.router.forward.allocs_per_call", "count"),
    ("device.host.rx.ns_per_call", "ns"),
    ("device.host.rx.allocs_per_call", "count"),
    ("device.host.tx.ns_per_call", "ns"),
    ("device.host.tx.allocs_per_call", "count"),
    ("route.lookup.ns_per_call", "ns"),
    ("route.cache_hit_ratio", "ratio"),
    ("wire.frame_emit.ns_per_call", "ns"),
    ("world.allocs_per_event", "count"),
    ("event.dispatched", "count"),
    ("event.cancelled_share", "ratio"),
    ("device.drops.source-address-filter", "count"),
    ("device.drops.transit-policy", "count"),
    ("device.drops.firewall", "count"),
    ("device.drops.ttl-expired", "count"),
    ("device.drops.no-route", "count"),
    ("device.drops.mtu-exceeded", "count"),
    ("device.drops.link-fault", "count"),
    ("device.drops.arp-failure", "count"),
    ("device.drops.no-listener", "count"),
    ("device.drops.malformed", "count"),
    ("scale.build_s", "s"),
    ("scale.build_bytes_per_host", "B"),
    ("scale.handoff_s", "s"),
    ("scale.flash_s", "s"),
    ("scale.rereg_s", "s"),
    ("scale.policy_s", "s"),
    ("tcp.segment.ns_per_call", "ns"),
    ("tcp.timer.ns_per_call", "ns"),
    ("world.compute_routes.ns_per_call", "ns"),
    ("experiments.exp.fig01_basic_s", "s"),
    ("experiments.exp.fig02_filtering_s", "s"),
    ("experiments.exp.fig03_bitunnel_s", "s"),
    ("experiments.exp.fig04_triangle_s", "s"),
    ("experiments.exp.fig05_smart_ch_s", "s"),
    ("experiments.exp.fig06_formats_s", "s"),
    ("experiments.exp.fig10_grid_s", "s"),
    ("experiments.exp.probing_s", "s"),
    ("experiments.exp.http_s", "s"),
    ("experiments.exp.handoff_s", "s"),
    ("experiments.exp.multicast_s", "s"),
    ("experiments.exp.feedback_s", "s"),
    ("experiments.exp.foreign_agent_s", "s"),
    ("experiments.exp.encap_s", "s"),
    ("experiments.exp.decap_risk_s", "s"),
    ("experiments.exp.lsr_s", "s"),
    ("experiments.runner_speedup", "ratio"),
    ("experiments.runner_idle_share", "ratio"),
    ("suite.unattributed_share", "ratio"),
    ("report.build_s", "s"),
    ("report.serialize_s", "s"),
    ("observe.churn_share", "ratio"),
    ("observe.bytes_per_host", "B"),
    ("policy.decision_ns", "ns"),
    ("policy.hits", "count"),
    ("policy.misses", "count"),
    ("policy.evictions", "count"),
    ("policy.hit_ratio", "ratio"),
    ("trace.overhead_share", "ratio"),
];

/// In-crate profiling scopes on the packet path and in TCP, and the metric
/// prefix each reports under; `true` where allocations per call are
/// reported too.
const SCOPED_LAYERS: &[(&str, &str, bool)] = &[
    ("world/dispatch", "world.dispatch", false),
    ("sched/pop_batch", "event.pop_batch", false),
    ("link/transmit", "link.transmit", false),
    ("router/forward", "device.router.forward", true),
    ("host/rx", "device.host.rx", true),
    ("host/tx", "device.host.tx", true),
    ("route/lookup", "route.lookup", false),
    ("frame/emit", "wire.frame_emit", false),
    ("tcp/segment", "tcp.segment", false),
    ("tcp/timer", "tcp.timer", false),
    ("world/compute_routes", "world.compute_routes", false),
];

/// The experiments `run_all_with` names with `exp:` scopes.
const EXPERIMENTS: &[&str] = &[
    "fig01_basic",
    "fig02_filtering",
    "fig03_bitunnel",
    "fig04_triangle",
    "fig05_smart_ch",
    "fig06_formats",
    "fig10_grid",
    "probing",
    "http",
    "handoff",
    "multicast",
    "feedback",
    "foreign_agent",
    "encap",
    "decap_risk",
    "lsr",
];

/// Fresh processes whose first suite iteration makes one `setup_s` median.
const COLD_STARTS: usize = 9;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: time the first suite iteration of this process and print it.
    cold_start: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
            cold_start: false,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            if flag == "--cold-start" {
                args.cold_start = true;
                continue;
            }
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => args.workload = value,
                "--seed" => args.seed = value.parse().map_err(|_| bad)?,
                "--seconds" => args.seconds = value.parse().map_err(|_| bad)?,
                "--trace" => match value.as_str() {
                    "0" => args.trace = false,
                    "1" => args.trace = true,
                    _ => return Err(bad),
                },
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !["suite", "churn"].contains(&args.workload.as_str()) {
            return Err(format!("unknown workload {:?}", args.workload));
        }
        if !(args.seconds > 0.0 && args.seconds.is_finite()) {
            return Err(format!("--seconds must be positive, got {}", args.seconds));
        }
        Ok(args)
    }
}

/// What one run measured: checked operation counts and named metric values.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    values: HashMap<String, f64>,
    /// How a metric was taken, printed beside its value.
    notes: HashMap<String, String>,
}

impl Outcome {
    fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    fn note(&mut self, name: &str, note: String) {
        self.notes.insert(name.to_string(), note);
    }

    fn check(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    fn set_timings(&mut self, samples: &[f64]) {
        let s = Summary::of(samples);
        self.set("iter_s.p50", s.p50);
        self.note("iter_s.p50", format!("median of {} iterations", s.n));
        self.set("iter_s.tail", s.tail);
        self.note(
            "iter_s.tail",
            format!("p{} of {} iterations", s.tail_pct, s.n),
        );
    }

    /// Prints every metric of the run's kind, then the JSON result line.
    fn finish(&self, trace: bool) {
        let share = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "failed_share = {share} ({} of {} ops failed)",
            self.failed, self.attempted
        );
        let list = if trace { PER_LAYER } else { END_TO_END };
        let mut json = Vec::with_capacity(list.len());
        for &(name, unit) in list {
            let value = match self.values.get(name) {
                Some(v) if v.is_finite() => *v,
                Some(v) => panic!("{name} measured as {v}"),
                None if trace => 0.0,
                None => panic!("workload did not measure {name}"),
            };
            match self.notes.get(name) {
                Some(note) => println!("{name} = {value} {unit} ({note})"),
                None => println!("{name} = {value} {unit}"),
            }
            json.push(format!(
                "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
            ));
        }
        for name in self.values.keys() {
            assert!(
                END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| n == name),
                "{name} is not a declared metric"
            );
        }
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            json.join(",")
        );
    }
}

/// Median and tail of one timed quantity. The tail is the highest whole
/// percentile with at least ten samples beyond it (the maximum when there
/// are ten samples or fewer).
struct Summary {
    p50: f64,
    tail: f64,
    tail_pct: usize,
    n: usize,
}

impl Summary {
    fn of(samples: &[f64]) -> Summary {
        let mut xs = samples.to_vec();
        xs.sort_by(f64::total_cmp);
        let n = xs.len();
        let tail_pct = if n > 10 { 100 * (n - 10) / n } else { 100 };
        // Nearest rank: at most n - 10 samples at or below this one.
        let rank = (tail_pct * n).div_ceil(100).max(1);
        Summary {
            p50: median(&xs),
            tail: xs[rank - 1],
            tail_pct,
            n,
        }
    }
}

fn median(samples: &[f64]) -> f64 {
    let mut xs = samples.to_vec();
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Calls `iteration` until `seconds` of wall time have passed (at least
/// once) and collects what each call returned.
fn for_seconds<T>(seconds: f64, mut iteration: impl FnMut() -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.is_empty() || start.elapsed().as_secs_f64() < seconds {
        out.push(iteration());
    }
    out
}

fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Median over fresh processes of the first suite iteration, each process
/// running this binary with `--cold-start`, so work a process caches for
/// later iterations still counts.
fn suite_cold_start_median() -> f64 {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let samples: Vec<f64> = (0..COLD_STARTS)
        .map(|_| {
            let out = Command::new(&exe)
                .args(["--workload", "suite", "--cold-start"])
                .output()
                .expect("cold-start probe starts");
            assert!(
                out.status.success(),
                "cold-start probe failed: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let text = String::from_utf8_lossy(&out.stdout);
            text.trim()
                .parse()
                .expect("cold-start probe prints seconds")
        })
        .collect();
    median(&samples)
}

/// Per-name totals over a captured call forest. Self figures subtract the
/// child scopes, so nested layers are not counted twice.
#[derive(Default)]
struct Layer {
    calls: u64,
    incl_ns: u64,
    self_ns: u64,
    self_allocs: u64,
}

fn layers(roots: &[ScopeStat]) -> HashMap<String, Layer> {
    fn walk(s: &ScopeStat, into: &mut HashMap<String, Layer>) {
        let child_allocs: u64 = s.children.iter().map(|c| c.allocs).sum();
        let l = into.entry(s.name.clone()).or_default();
        l.calls += s.calls;
        l.incl_ns += s.incl_ns;
        l.self_ns += s.excl_ns;
        l.self_allocs += s.allocs.saturating_sub(child_allocs);
        for c in &s.children {
            walk(c, into);
        }
    }
    let mut into = HashMap::new();
    for r in roots {
        walk(r, &mut into);
    }
    into
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Mean inclusive seconds per call of a benchmark-side scope.
fn secs_per_call(layers: &HashMap<String, Layer>, scope: &str) -> f64 {
    layers
        .get(scope)
        .map_or(0.0, |l| ratio(l.incl_ns as f64, l.calls as f64) / 1e9)
}

/// Enables the flight recorder from a clean slate for the traced half.
fn start_trace() {
    profile::reset();
    take_runner_telemetry();
    profile::set_enabled(true);
}

/// The per-layer metrics every traced run derives the same way: packet,
/// TCP and route layers from in-crate scopes, policy counters per traced
/// iteration, and the tracing overhead.
fn traced_common(
    out: &mut Outcome,
    layers: &HashMap<String, Layer>,
    traced_iterations: usize,
    untraced: &[f64],
    traced: &[f64],
) {
    for &(scope, metric, allocs) in SCOPED_LAYERS {
        let Some(l) = layers.get(scope).filter(|l| l.calls > 0) else {
            continue;
        };
        out.set(
            &format!("{metric}.ns_per_call"),
            l.self_ns as f64 / l.calls as f64,
        );
        if allocs {
            let per_call = l.self_allocs as f64 / l.calls as f64;
            out.set(&format!("{metric}.allocs_per_call"), per_call);
        }
    }
    let count = |c| profile::counter(c) as f64;
    let (hit, miss) = (
        count(Counter::RouteCacheHit),
        count(Counter::RouteCacheMiss),
    );
    out.set("route.cache_hit_ratio", ratio(hit, hit + miss));
    let per_iter = traced_iterations as f64;
    let (hits, misses) = (
        count(Counter::PolicyCacheHit),
        count(Counter::PolicyCacheMiss),
    );
    out.set("policy.hits", hits / per_iter);
    out.set("policy.misses", misses / per_iter);
    out.set(
        "policy.evictions",
        count(Counter::PolicyCacheEviction) / per_iter,
    );
    out.set("policy.hit_ratio", ratio(hits, hits + misses));
    out.set(
        "trace.overhead_share",
        median(traced) / median(untraced) - 1.0,
    );
    out.note(
        "trace.overhead_share",
        format!(
            "{} untraced, {} traced iterations",
            untraced.len(),
            traced.len()
        ),
    );
}

// ---------------------------------------------------------------------------
// suite
// ---------------------------------------------------------------------------

/// FNV-1a 64 of each table's printed text in `all_experiments` output,
/// written by `digest_tables.py`.
const SUITE_DIGEST: &str = include_str!("../suite_tables.digest");

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
    })
}

/// `(tables checked, tables that differ from the committed digest)`; a
/// missing or extra table counts as one failure.
fn suite_check(tables: &[Table]) -> (u64, u64) {
    let want: Vec<&str> = SUITE_DIGEST.lines().map(|l| &l[..16]).collect();
    let differ = tables
        .iter()
        .zip(&want)
        .filter(|(t, w)| format!("{:016x}", fnv1a64(format!("{t}\n").as_bytes())) != **w)
        .count();
    let missing = want.len().abs_diff(tables.len());
    (
        want.len().max(tables.len()) as u64,
        (differ + missing) as u64,
    )
}

/// One suite iteration: every experiment, then the run report built and
/// serialized in memory. Returns the tables and the report's size; the
/// report is freed before returning, inside the caller's timing.
fn suite_iteration(threads: usize) -> (Vec<Table>, usize) {
    let tables = run_all_with(threads);
    let value = {
        let _s = profile::scope("perfbench/report_build");
        report::build("all_experiments", &tables)
    };
    let json = {
        let _s = profile::scope("perfbench/serialize");
        serde_json::to_string_pretty(&value).expect("run report serializes")
    };
    (tables, json.len())
}

/// Times suite iterations for `seconds`, checking each. Returns the
/// iteration times, the last report's size and the runner batches
/// recorded (only while tracing).
fn suite_timed(
    out: &mut Outcome,
    threads: usize,
    seconds: f64,
) -> (Vec<f64>, usize, Vec<RunnerBatch>) {
    let (mut report_bytes, mut batches) = (0, Vec::new());
    let times = for_seconds(seconds, || {
        let t = Instant::now();
        let (tables, bytes) = suite_iteration(threads);
        let dt = secs_since(t);
        // Drained every iteration: the next report embeds whatever is
        // left, and an `all_experiments` process reports only its own.
        batches.extend(take_runner_telemetry());
        let (attempted, failed) = suite_check(&tables);
        out.check(attempted, failed);
        report_bytes = bytes;
        dt
    });
    (times, report_bytes, batches)
}

fn suite(args: &Args, out: &mut Outcome) {
    report::enable();
    let threads = default_threads();
    println!("suite: {threads} runner threads, experiment seeds fixed in the crate");
    if !args.trace {
        out.set("setup_s", suite_cold_start_median());
        out.note(
            "setup_s",
            format!("first iteration of a fresh process, median of {COLD_STARTS}"),
        );
    }
    suite_iteration(threads);
    if !args.trace {
        let (samples, report_bytes, _) = suite_timed(out, threads, args.seconds);
        out.set_timings(&samples);
        out.set("bytes_per_unit", report_bytes as f64);
        out.note(
            "bytes_per_unit",
            "report_bytes: serialized run report".into(),
        );
        return;
    }
    let (untraced, _, _) = suite_timed(out, threads, args.seconds / 2.0);
    start_trace();
    let (traced, _, batches) = suite_timed(out, threads, args.seconds / 2.0);
    let (mut busy_ns, mut wall_ns, mut runner_ns) = (0u64, 0u64, 0u64);
    for batch in &batches {
        busy_ns += batch.workers.iter().map(|w| w.busy_ns).sum::<u64>();
        wall_ns += batch.wall_ns;
        runner_ns += batch.wall_ns * batch.threads as u64;
    }
    profile::set_enabled(false);
    let layers = layers(&profile::capture().roots);
    traced_common(out, &layers, traced.len(), &untraced, &traced);
    let (mut exp_self, mut exp_incl) = (0u64, 0u64);
    for name in EXPERIMENTS {
        if let Some(l) = layers.get(&format!("exp:{name}")) {
            out.set(
                &format!("experiments.exp.{name}_s"),
                ratio(l.incl_ns as f64, l.calls as f64) / 1e9,
            );
            exp_self += l.self_ns;
            exp_incl += l.incl_ns;
        }
    }
    out.set(
        "experiments.runner_speedup",
        ratio(busy_ns as f64, wall_ns as f64),
    );
    out.set(
        "experiments.runner_idle_share",
        1.0 - ratio(busy_ns as f64, runner_ns as f64),
    );
    out.set(
        "suite.unattributed_share",
        ratio(exp_self as f64, exp_incl as f64),
    );
    out.note(
        "suite.unattributed_share",
        "exp: self time over exp: inclusive time".into(),
    );
    out.set(
        "report.build_s",
        secs_per_call(&layers, "perfbench/report_build"),
    );
    out.set(
        "report.serialize_s",
        secs_per_call(&layers, "perfbench/serialize"),
    );
}

// ---------------------------------------------------------------------------
// churn
// ---------------------------------------------------------------------------

const CHURN_HOSTS: usize = 20_000;
/// Handoffs, flash-crowd pingers and re-registering mobiles per iteration.
const CHURN_EACH: u64 = 512;
/// Distinct correspondents of the policy miss storm; the method cache
/// holds half of them.
const STORM_CORRESPONDENTS: u64 = 1 << 18;
/// Handoffs + pings + registrations (two waves) + storm correspondents
/// per iteration.
const CHURN_OPS: u64 = 4 * CHURN_EACH + STORM_CORRESPONDENTS;

/// The four E18 phases, one `run_churn` call each, with their scopes.
fn churn_phases() -> [(&'static str, ChurnParams); 4] {
    let none = ChurnParams {
        handoffs: 0,
        flash_crowd: 0,
        rereg: 0,
        ..ChurnParams::default()
    };
    let n = CHURN_EACH as usize;
    [
        (
            "perfbench/handoff",
            ChurnParams {
                handoffs: n,
                ..none
            },
        ),
        (
            "perfbench/flash",
            ChurnParams {
                flash_crowd: n,
                ..none
            },
        ),
        ("perfbench/rereg", ChurnParams { rereg: n, ..none }),
        (
            "perfbench/policy",
            ChurnParams {
                correspondents: STORM_CORRESPONDENTS as usize,
                ..none
            },
        ),
    ]
}

struct ChurnRun {
    setup_s: f64,
    iter_s: f64,
    build_bytes: i64,
    steady_bytes: i64,
    failed: u64,
    storm_decisions: u64,
    allocs: u64,
    dispatched: u64,
    pushed: u64,
    cancelled: u64,
    drops: Vec<(DropReason, u64)>,
}

/// Failed churn operations: handoffs not performed, pings unanswered,
/// registrations not accepted, and every storm correspondent when a hot
/// correspondent lost its history or the cache miscounted decisions. A world
/// whose invariant monitors fired fails every operation.
fn churn_failures(stats: &[ChurnStats; 4], violated: bool) -> u64 {
    if violated {
        return CHURN_OPS;
    }
    let [handoff, flash, rereg, storm] = stats;
    // `decisions` is the cache's own hits + misses: one per `mode_for`
    // call, a first contact for every storm and hot correspondent.
    let storm_ok = storm.policy.is_some_and(|p| {
        p.hot_retained == p.hot_set && p.decisions == p.correspondents + p.hot_set
    });
    CHURN_EACH.saturating_sub(handoff.handoffs)
        + CHURN_EACH.saturating_sub(flash.flash_replies)
        + (2 * CHURN_EACH).saturating_sub(rereg.registrations_accepted)
        + if storm_ok { 0 } else { STORM_CORRESPONDENTS }
}

/// Builds a world (observed like `exp_scale` when `observed`) and runs the
/// four churn phases on it.
fn churn_iteration(params: &ScaleParams, observed: bool) -> ChurnRun {
    let live0 = profile::live_bytes();
    let t = Instant::now();
    let (mut world, index) = {
        let _s = profile::scope("perfbench/build");
        build_world(params)
    };
    if observed {
        report::observe_world(&mut world);
    }
    let setup_s = secs_since(t);
    let build_bytes = profile::live_bytes() - live0;
    let sched0 = world.scheduler_stats();
    let allocs0 = profile::thread_allocations().0;
    let t = Instant::now();
    let stats = churn_phases().map(|(scope, phase)| {
        let _s = profile::scope(scope);
        run_churn(&mut world, &index, &phase)
    });
    let iter_s = secs_since(t);
    let allocs = profile::thread_allocations().0 - allocs0;
    let steady_bytes = profile::live_bytes() - live0;
    let sched = world.scheduler_stats();
    let violated = observed && world.has_invariant_violations();
    ChurnRun {
        setup_s,
        iter_s,
        build_bytes,
        steady_bytes,
        failed: churn_failures(&stats, violated),
        storm_decisions: stats[3].policy.map_or(0, |p| p.decisions),
        allocs,
        dispatched: sched.dispatched - sched0.dispatched,
        pushed: sched.pushed - sched0.pushed,
        cancelled: sched.cancelled - sched0.cancelled,
        drops: world.metrics.total_drops_by_reason(),
    }
}

fn median_per_host(runs: &[ChurnRun], hosts: f64, bytes: impl Fn(&ChurnRun) -> i64) -> f64 {
    median(
        &runs
            .iter()
            .map(|r| bytes(r) as f64 / hosts)
            .collect::<Vec<_>>(),
    )
}

fn churn(args: &Args, out: &mut Outcome) {
    report::enable();
    let params = ScaleParams {
        seed: args.seed,
        ..ScaleParams::with_hosts(CHURN_HOSTS)
    };
    let hosts = params.total_hosts() as f64;
    println!(
        "churn: {hosts} hosts, {CHURN_EACH} handoffs, pingers and re-registrations, \
         policy storm over {STORM_CORRESPONDENTS} correspondents"
    );
    churn_iteration(&params, true);
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let runs = for_seconds(seconds, || churn_iteration(&params, true));
    for r in &runs {
        out.check(CHURN_OPS, r.failed);
    }
    let iter: Vec<f64> = runs.iter().map(|r| r.iter_s).collect();
    let steady = median_per_host(&runs, hosts, |r| r.steady_bytes);
    if !args.trace {
        out.set_timings(&iter);
        let setup: Vec<f64> = runs.iter().map(|r| r.setup_s).collect();
        out.set("setup_s", median(&setup));
        out.note(
            "setup_s",
            format!("build_world + observe_world, median of {}", setup.len()),
        );
        out.set("bytes_per_unit", steady);
        out.note(
            "bytes_per_unit",
            "bytes_per_host: live heap after churn".into(),
        );
        return;
    }
    let allocs: u64 = runs.iter().map(|r| r.allocs).sum();
    let dispatched: u64 = runs.iter().map(|r| r.dispatched).sum();
    out.set(
        "world.allocs_per_event",
        ratio(allocs as f64, dispatched as f64),
    );
    let last = runs.last().expect("at least one iteration");
    out.set("event.dispatched", last.dispatched as f64);
    out.set(
        "event.cancelled_share",
        ratio(last.cancelled as f64, last.pushed as f64),
    );
    for &(reason, n) in &last.drops {
        out.set(&format!("device.drops.{}", reason.tag()), n as f64);
    }
    out.set(
        "scale.build_bytes_per_host",
        median_per_host(&runs, hosts, |r| r.build_bytes),
    );

    start_trace();
    let traced: Vec<f64> = for_seconds(args.seconds / 2.0, || {
        let r = churn_iteration(&params, true);
        out.check(CHURN_OPS, r.failed);
        r.iter_s
    });
    profile::set_enabled(false);
    let layers = layers(&profile::capture().roots);
    traced_common(out, &layers, traced.len(), &iter, &traced);
    out.set("scale.build_s", secs_per_call(&layers, "perfbench/build"));
    out.set(
        "scale.handoff_s",
        secs_per_call(&layers, "perfbench/handoff"),
    );
    out.set("scale.flash_s", secs_per_call(&layers, "perfbench/flash"));
    out.set("scale.rereg_s", secs_per_call(&layers, "perfbench/rereg"));
    let storm_s = secs_per_call(&layers, "perfbench/policy");
    out.set("scale.policy_s", storm_s);
    out.set(
        "policy.decision_ns",
        ratio(storm_s * 1e9, last.storm_decisions as f64),
    );
    out.note(
        "policy.decision_ns",
        "storm phase over its decisions, hot-set feedback included".into(),
    );

    // A few unobserved worlds price the observers: no metrics registry,
    // trace or invariant monitors.
    let bare: Vec<ChurnRun> = (0..3).map(|_| churn_iteration(&params, false)).collect();
    for r in &bare {
        out.check(CHURN_OPS, r.failed);
    }
    let bare_iter: Vec<f64> = bare.iter().map(|r| r.iter_s).collect();
    out.set(
        "observe.churn_share",
        1.0 - median(&bare_iter) / median(&iter),
    );
    out.set(
        "observe.bytes_per_host",
        steady - median_per_host(&bare, hosts, |r| r.steady_bytes),
    );
    out.note(
        "observe.bytes_per_host",
        "observed minus 3 unobserved worlds".into(),
    );
}

// ---------------------------------------------------------------------------

fn main() {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload suite|churn --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    if args.cold_start {
        report::enable();
        let t = Instant::now();
        suite_iteration(default_threads());
        println!("{}", secs_since(t));
        return;
    }
    let env = |k| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    println!(
        "tags: nproc={} profile={} rustc=\"{}\" commit={}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        env("PERFBENCH_RUSTC"),
        env("PERFBENCH_COMMIT"),
    );
    println!(
        "run: workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let mut out = Outcome::default();
    match args.workload.as_str() {
        "suite" => suite(&args, &mut out),
        _ => churn(&args, &mut out),
    }
    out.finish(args.trace);
}
