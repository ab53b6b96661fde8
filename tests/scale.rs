//! Scale-tentpole invariants, end to end: the hierarchical generator is
//! deterministic — same seed, same world, byte for byte, run to run — and
//! memory-compact: a hundred-thousand-host world costs at most 1 KiB of
//! live heap per host, through build and a handoff storm, and at most
//! 4 KiB per host with metrics and invariant monitors on.
//!
//! The memory tests read the counting allocator's process-global
//! live-byte gauge, which any concurrently running test would skew, so
//! every test serializes on one lock.

use std::sync::Mutex;

use bench::report;
use bench::scale::{build_world, run_churn, ChurnParams, ScaleParams};
use mobility4x4::netsim;

static GLOBAL: Mutex<()> = Mutex::new(());

/// Build a seeded world, run the full churn workload, and fingerprint
/// everything observable: the world snapshot (nodes, routes, bindings)
/// and the churn outcome.
fn fingerprint(params: &ScaleParams, churn: &ChurnParams) -> (String, String) {
    let (mut w, ix) = build_world(params);
    let stats = run_churn(&mut w, &ix, churn);
    let snap = serde_json::to_string(&report::world_snapshot(&w)).expect("serialize snapshot");
    (snap, format!("{stats:?}"))
}

#[test]
fn seeded_generator_is_byte_identical_run_to_run() {
    let _g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    let params = ScaleParams {
        seed: 42,
        ..ScaleParams::with_hosts(500)
    };
    let churn = ChurnParams::default();

    let first = fingerprint(&params, &churn);
    let again = fingerprint(&params, &churn);
    assert_eq!(first, again, "same seed must reproduce the same world");
}

/// The world the memory budgets are checked on. Debug builds pay the
/// same allocation *sizes* but ~20× the build time, so they check an
/// eighth of the release-mode world — at the same hosts-per-stub
/// density, since the budgets amortize each stub's segment and
/// router-interface overhead over its residents.
fn budget_params() -> ScaleParams {
    if cfg!(debug_assertions) {
        ScaleParams {
            backbones: 2,
            transits_per_backbone: 4,
            stubs_per_transit: 8,
            hosts_per_stub: 196,
            seed: 1,
        }
    } else {
        ScaleParams {
            seed: 1,
            ..ScaleParams::with_hosts(100_000)
        }
    }
}

#[test]
fn big_world_stays_under_a_kib_per_host() {
    let _g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    let params = budget_params();

    let before = netsim::profile::live_bytes();
    let (mut w, ix) = build_world(&params);
    // Full packet tracing is a debugging aid; scale runs sample flows
    // instead (see the telemetry knobs), so the budget excludes it.
    w.trace.set_enabled(false);
    let built = netsim::profile::live_bytes() - before;
    let n = ix.hosts.len() as i64;

    let storm = ChurnParams {
        handoffs: 64,
        flash_crowd: 0,
        rereg: 0,
        lifetime: 300,
        correspondents: 0,
    };
    let stats = run_churn(&mut w, &ix, &storm);
    assert_eq!(stats.handoffs, 64, "storm must actually run");
    let steady = netsim::profile::live_bytes() - before;

    assert!(
        built / n <= 1024,
        "freshly built world costs {} B/host (budget 1024)",
        built / n
    );
    assert!(
        steady / n <= 1024,
        "world after a handoff storm costs {} B/host (budget 1024)",
        steady / n
    );
}

#[test]
fn observed_world_stays_under_four_kib_per_host() {
    let _g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    let params = budget_params();

    let before = netsim::profile::live_bytes();
    let (mut w, ix) = build_world(&params);
    // What `report::observe_world` turns on for every observed world
    // (E18 under default observation): per-node and per-segment metrics
    // plus the invariant monitors.
    w.enable_metrics();
    w.enable_invariants();
    let n = ix.hosts.len() as i64;

    let storm = ChurnParams {
        handoffs: 64,
        flash_crowd: 64,
        rereg: 0,
        lifetime: 300,
        correspondents: 0,
    };
    let stats = run_churn(&mut w, &ix, &storm);
    assert_eq!(stats.handoffs, 64, "storm must actually run");
    assert_eq!(stats.flash_replies, 64, "flash crowd must be answered");
    assert!(!w.has_invariant_violations(), "monitors must stay clean");
    let steady = netsim::profile::live_bytes() - before;

    // Metrics nobody records into — a TCP RTT histogram on a host that
    // runs no TCP — must cost nothing, so observation stays within a
    // few times the untraced budget.
    assert!(
        steady / n <= 4096,
        "observed world after a handoff storm and a flash crowd costs {} B/host (budget 4096)",
        steady / n
    );
}
