//! Integration tests for the flight recorder (`netsim::profile`): scope
//! trees built from real simulations, counter wiring through the route
//! cache, the gauge sampler on a live world, and the O(1)-allocation
//! guarantee of the HDR histogram.
//!
//! The recorder is process-global, so every test that enables it runs
//! under one mutex and resets state on the way in and out; tests that
//! never enable profiling (the histogram and sampler ones) don't need it.

use std::sync::Mutex;

use netsim::profile;
use netsim::{Histogram, HostConfig, LinkConfig, RouterConfig, SimDuration, World};

/// Serializes the profiling-enabled tests: the recorder's enable flag,
/// counters, and merged tree are process-wide.
static GUARD: Mutex<()> = Mutex::new(());

fn with_profiling(f: impl FnOnce()) {
    let _g = GUARD.lock().unwrap_or_else(|e| e.into_inner());
    profile::reset();
    profile::set_enabled(true);
    f();
    profile::set_enabled(false);
    profile::reset();
}

fn ip(s: &str) -> netsim::Ipv4Addr {
    s.parse().unwrap()
}

/// Two LANs joined by a WAN via two routers; returns the world and the
/// sending host with its source/destination addresses.
fn ping_world() -> (World, netsim::NodeId) {
    let mut w = World::new(1);
    let lan_a = w.add_segment(LinkConfig::lan());
    let mid = w.add_segment(LinkConfig::wan(10));
    let lan_b = w.add_segment(LinkConfig::lan());
    let a = w.add_host(HostConfig::conventional("a"));
    let b = w.add_host(HostConfig::conventional("b"));
    let r1 = w.add_router(RouterConfig::named("r1"));
    let r2 = w.add_router(RouterConfig::named("r2"));
    w.attach(a, lan_a, Some("10.0.1.10/24"));
    w.attach(r1, lan_a, Some("10.0.1.1/24"));
    w.attach(r1, mid, Some("192.168.0.1/30"));
    w.attach(r2, mid, Some("192.168.0.2/30"));
    w.attach(r2, lan_b, Some("10.0.2.1/24"));
    w.attach(b, lan_b, Some("10.0.2.10/24"));
    w.compute_routes();
    (w, a)
}

fn run_pings(w: &mut World, a: netsim::NodeId, count: u16) {
    for seq in 0..count {
        w.host_do(a, |h, ctx| {
            h.send_ping(ctx, ip("10.0.1.10"), ip("10.0.2.10"), seq)
        });
    }
    w.run_until_idle(1_000_000);
}

#[test]
fn simulation_scopes_aggregate_into_tree() {
    with_profiling(|| {
        let (mut w, a) = ping_world();
        run_pings(&mut w, a, 8);
        let report = profile::capture();
        let names: Vec<&str> = {
            fn collect<'a>(stats: &'a [profile::ScopeStat], out: &mut Vec<&'a str>) {
                for s in stats {
                    out.push(&s.name);
                    collect(&s.children, out);
                }
            }
            let mut v = Vec::new();
            collect(&report.roots, &mut v);
            v
        };
        for expected in [
            "world/run",
            "sched/pop_batch",
            "world/dispatch",
            "link/transmit",
            "router/forward",
            "host/rx",
        ] {
            assert!(
                names.contains(&expected),
                "missing scope {expected}: {names:?}"
            );
        }
        // pop_batch and dispatch nest under the run loop.
        let run = report
            .roots
            .iter()
            .find(|r| r.name == "world/run")
            .expect("world/run is a root");
        assert!(run.children.iter().any(|c| c.name == "sched/pop_batch"));
        assert!(run.calls >= 1);
        assert!(run.incl_ns > 0);
    });
}

#[test]
fn disabled_recorder_observes_nothing() {
    let _g = GUARD.lock().unwrap_or_else(|e| e.into_inner());
    profile::reset();
    assert!(!profile::enabled());
    let (mut w, a) = ping_world();
    run_pings(&mut w, a, 4);
    let report = profile::capture();
    assert!(report.roots.is_empty(), "no scopes recorded while disabled");
    assert!(report.counters.iter().all(|(_, v)| *v == 0));
}

#[test]
fn route_cache_counters_accumulate() {
    with_profiling(|| {
        // Tables at or below the linear-scan threshold skip the result cache
        // entirely, so build one large enough to engage the indexed path.
        let mut table = netsim::RouteTable::new();
        for i in 0..16u8 {
            table.add(netsim::device::router::RouteEntry {
                prefix: netsim::Ipv4Cidr::new(ip(&format!("10.{i}.0.0")), 16),
                iface: 0,
                gateway: None,
            });
        }
        for _ in 0..8 {
            table.lookup(ip("10.3.4.5"));
        }
        profile::flush_thread();
        let hits = profile::counter(profile::Counter::RouteCacheHit);
        let misses = profile::counter(profile::Counter::RouteCacheMiss);
        // The first lookup misses, repeats hit the cache.
        assert!(misses >= 1, "first lookups miss: {misses}");
        assert!(
            hits > misses,
            "repeated lookups should mostly hit: {hits} vs {misses}"
        );
    });
}

#[test]
fn scopes_attribute_allocations() {
    with_profiling(|| {
        {
            let _s = profile::scope("test/allocating");
            std::hint::black_box(vec![0u8; 4096]);
        }
        profile::flush_thread();
        let report = profile::capture();
        let node = report
            .roots
            .iter()
            .find(|r| r.name == "test/allocating")
            .expect("scope recorded");
        assert!(node.allocs >= 1, "Vec allocation attributed");
        assert!(node.alloc_bytes >= 4096);
    });
}

#[test]
fn histogram_records_allocate_nothing() {
    // The HDR histogram allocates its fixed-size bucket array on the
    // first sample; after that warm-up, recording any number of samples
    // must not allocate. Diff the thread-local allocation counter around
    // one million records.
    let mut h = Histogram::EMPTY;
    h.record(1);
    let (allocs_before, _) = profile::thread_allocations();
    for i in 0..1_000_000u64 {
        h.record(i.wrapping_mul(2_654_435_761) % (1 << 40));
    }
    let (allocs_after, _) = profile::thread_allocations();
    assert_eq!(
        allocs_after - allocs_before,
        0,
        "1M histogram records must allocate nothing"
    );
    assert_eq!(h.count(), 1_000_001);
    assert!(h.percentile(50).is_some());
}

#[test]
fn empty_histograms_allocate_nothing() {
    // Buckets are lazy: a histogram that never saw a sample — and a merge
    // that folds one in — costs no heap, which is what keeps an observed
    // world's per-node TCP RTT histograms free on hosts that run no TCP.
    let (allocs_before, _) = profile::thread_allocations();
    let mut h = Histogram::EMPTY;
    h.merge(&Histogram::EMPTY);
    let mut node = netsim::NodeMetrics::default();
    node.merge(&netsim::NodeMetrics::default());
    let (allocs_after, _) = profile::thread_allocations();
    assert_eq!(allocs_after - allocs_before, 0, "empty histograms allocate");
    assert_eq!(h, Histogram::EMPTY);
    assert_eq!(h.percentile(50), None);
    // Folding a recorded histogram into an empty one allocates the
    // buckets and yields the same histogram.
    let mut recorded = Histogram::EMPTY;
    recorded.record(42);
    h.merge(&recorded);
    assert_eq!(h, recorded);
    assert_eq!(h.percentile(50), Some(42));
}

#[test]
fn world_sampler_records_bounded_monotonic_gauges() {
    // The gauge sampler is per-world state driven by sim time; it does
    // not need the global recorder.
    let (mut w, a) = ping_world();
    w.enable_sampling(SimDuration(50), 16);
    run_pings(&mut w, a, 64);
    let samples = w.samples().expect("sampler enabled");
    assert!(!samples.is_empty(), "pings span several sample intervals");
    assert!(samples.len() <= 16, "cap respected: {}", samples.len());
    for pair in samples.windows(2) {
        assert!(
            pair[0].sim_us < pair[1].sim_us,
            "sim time strictly advances"
        );
        assert!(
            pair[0].dispatched <= pair[1].dispatched,
            "dispatch counter is cumulative"
        );
    }
}

#[test]
fn report_survives_json_round_trip() {
    with_profiling(|| {
        let (mut w, a) = ping_world();
        run_pings(&mut w, a, 4);
        let value = profile::report_value(64);
        let json = serde_json::to_string(&value).unwrap();
        let parsed = serde_json::from_str(&json).unwrap();
        let report = profile::ProfileReport::from_value(&parsed).expect("parses back");
        assert!(!report.roots.is_empty());
        assert!(report.render_hot(10).contains("world/run"));
        let chrome = serde_json::to_string(&report.chrome_trace()).unwrap();
        assert!(chrome.contains("\"ph\":\"X\""));
    });
}
