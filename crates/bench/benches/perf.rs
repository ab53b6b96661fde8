//! Performance benches for the zero-copy forwarding fast path and the
//! parallel experiment runner (the PR-4 optimisation surface):
//!
//! - `forward_fastpath` — in-place TTL/checksum patching of a forwarded
//!   frame vs the parse → mutate → re-emit slow path it replaces.
//! - `route_lookup` — linear [`lpm`] scan vs the bucketed, cached
//!   [`RouteTable`].
//! - `compute_routes` — full route recomputation on a ~50-node topology.
//! - `runner` — the experiment thread pool on synthetic CPU-bound jobs,
//!   serial vs four workers, at two batch sizes.
//! - `scheduler` — the hierarchical timing wheel vs the reference binary
//!   heap on a timer-heavy pop-one/push-one churn (the PR-5 optimisation
//!   surface).
//! - `scale` — hierarchical world construction (routes installed
//!   arithmetically, no shortest-path pass) and the mass-churn driver
//!   (the PR-9 optimisation surface).
//! - `policy` — the method-cache lookup engine (the PR-10 optimisation
//!   surface): hit latency at 1k/100k/1M resident correspondents,
//!   steady-state miss+evict churn at capacity, compiled bucketed-LPM
//!   rule matching vs the linear reference scan at 1/64/1024 rules, and
//!   a full flash-crowd storm with hot-set recovery.
//!
//! Quick CI snapshots: `CRITERION_QUICK=1 CRITERION_JSON=BENCH_pr10.json
//! cargo bench -p bench --bench perf`.

use std::hint::black_box;

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, Criterion};

use bench::experiments::{pool_map, pool_map_exact, take_runner_telemetry};
use netsim::device::router::{lpm, patch_forwarded_frame, RouteEntry};
use netsim::wire::ethernet::{EtherType, EthernetFrame, MacAddr};
use netsim::wire::ipv4::{IpProtocol, Ipv4Addr, Ipv4Cidr, Ipv4Packet};
use netsim::{
    Event, EventKind, EventQueue, HostConfig, LinkConfig, NodeId, RouteTable, RouterConfig,
    SchedulerKind, SimTime, Timer, TimerToken, World,
};

fn ip(s: &str) -> Ipv4Addr {
    s.parse().unwrap()
}

/// A UDP-in-IPv4-in-Ethernet frame as a router would receive it.
fn sample_frame(payload_len: usize) -> Bytes {
    let pkt = Ipv4Packet::new(
        ip("10.0.1.10"),
        ip("10.0.2.20"),
        IpProtocol::Udp,
        Bytes::from(vec![0xAB; payload_len]),
    );
    EthernetFrame::new(
        MacAddr::from_index(1),
        MacAddr::from_index(2),
        EtherType::Ipv4,
        pkt.emit(),
    )
    .emit()
}

fn bench_forward_fastpath(c: &mut Criterion) {
    let mut g = c.benchmark_group("forward_fastpath");
    let wire = sample_frame(512);
    let next_hop = MacAddr::from_index(9);
    let out_mac = MacAddr::from_index(3);

    g.bench_function("reparse_512B", |b| {
        b.iter(|| {
            let eth = EthernetFrame::parse(&wire).unwrap();
            let mut pkt = Ipv4Packet::parse(&eth.payload).unwrap();
            pkt.ttl -= 1;
            let mut out = Vec::with_capacity(wire.len());
            EthernetFrame::emit_header_into(next_hop, out_mac, EtherType::Ipv4, &mut out);
            pkt.emit_into(&mut out);
            black_box(out)
        })
    });
    g.bench_function("patch_in_place_512B", |b| {
        b.iter(|| {
            let mut out = wire.as_slice().to_vec();
            patch_forwarded_frame(&mut out, next_hop, out_mac);
            black_box(out)
        })
    });
    g.finish();
}

fn bench_route_lookup(c: &mut Criterion) {
    let mut g = c.benchmark_group("route_lookup");
    let mut routes = Vec::new();
    let mut table = RouteTable::new();
    for i in 0..100u32 {
        let e = RouteEntry {
            prefix: Ipv4Cidr::new(Ipv4Addr((10 << 24) | (i << 16)), 16),
            iface: (i % 4) as usize,
            gateway: None,
        };
        routes.push(e);
        table.add(e);
    }
    // A flow-like mix: sixteen destinations visited over and over.
    let dsts: Vec<Ipv4Addr> = (0..16u32)
        .map(|i| Ipv4Addr((10 << 24) | ((i * 6 + 1) << 16) | 0x0505))
        .collect();

    g.bench_function("linear_lpm_100_routes", |b| {
        b.iter(|| {
            for &d in &dsts {
                black_box(lpm(&routes, d));
            }
        })
    });
    g.bench_function("route_table_100_routes", |b| {
        b.iter(|| {
            for &d in &dsts {
                black_box(table.lookup(d));
            }
        })
    });
    g.finish();
}

/// 24 LANs star-joined by a backbone: 24 routers + 24 hosts = 48 nodes.
fn grid_world() -> World {
    let mut w = World::new(7);
    let backbone = w.add_segment(LinkConfig::wan(5));
    for i in 0..24 {
        let lan = w.add_segment(LinkConfig::lan());
        let r = w.add_router(RouterConfig::named(&format!("r{i}")));
        w.attach(r, lan, Some(&format!("10.{i}.0.1/24")));
        w.attach(r, backbone, Some(&format!("192.168.0.{}/24", i + 1)));
        let h = w.add_host(HostConfig::conventional(&format!("h{i}")));
        w.attach(h, lan, Some(&format!("10.{i}.0.10/24")));
    }
    w
}

fn bench_compute_routes(c: &mut Criterion) {
    let mut g = c.benchmark_group("compute_routes");
    g.sample_size(10);
    let mut w = grid_world();
    g.bench_function("grid_48_nodes", |b| b.iter(|| w.compute_routes()));
    g.finish();
}

/// `count` identical CPU-bound jobs for the pool benches.
fn runner_jobs(count: u64) -> Vec<Box<dyn FnOnce() -> u64 + Send>> {
    (0..count)
        .map(|i| {
            Box::new(move || {
                // black_box keeps the loop from const-folding away.
                let mut acc = black_box(i);
                for k in 0..200_000u64 {
                    acc = acc
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(black_box(k));
                }
                acc
            }) as Box<dyn FnOnce() -> u64 + Send>
        })
        .collect()
}

fn bench_runner(c: &mut Criterion) {
    let mut g = c.benchmark_group("runner");
    g.sample_size(10);
    g.bench_function("pool_8_jobs_serial", |b| {
        b.iter(|| black_box(pool_map(runner_jobs(8), 1)))
    });
    g.bench_function("pool_8_jobs_4_threads", |b| {
        b.iter(|| black_box(pool_map(runner_jobs(8), 4)))
    });
    // A larger batch amortises per-call pool handoff and exercises the
    // resident workers over many claim cycles.
    g.bench_function("pool_32_jobs_serial", |b| {
        b.iter(|| black_box(pool_map(runner_jobs(32), 1)))
    });
    g.bench_function("pool_32_jobs_4_threads", |b| {
        b.iter(|| black_box(pool_map(runner_jobs(32), 4)))
    });
    // `pool_map` silently caps at the core count, so on small CI runners
    // the `_threads` variants above measure the serial path twice. The
    // `_forced` variants bypass the cap: on a single core they quantify
    // pure time-slicing overhead; on a real multicore they show the
    // speedup the capped numbers hide.
    g.bench_function("pool_32_jobs_4_threads_forced", |b| {
        b.iter(|| black_box(pool_map_exact(runner_jobs(32), 4)))
    });
    g.bench_function("pool_32_jobs_8_threads_forced", |b| {
        b.iter(|| black_box(pool_map_exact(runner_jobs(32), 8)))
    });
    // Simulation-shaped jobs (build + route a 48-node world) rather than
    // arithmetic spin: allocation-heavy, cache-heavy, closer to what
    // `all_experiments` actually schedules.
    g.bench_function("world_8_jobs_serial", |b| {
        b.iter(|| black_box(pool_map_exact(world_jobs(8), 1)))
    });
    g.bench_function("world_8_jobs_4_threads_forced", |b| {
        b.iter(|| black_box(pool_map_exact(world_jobs(8), 4)))
    });
    g.finish();

    record_worker_utilization();
}

/// `count` large-world jobs: each builds the 48-node grid and computes
/// full routes, so the pool schedules real simulator work.
fn world_jobs(count: u64) -> Vec<Box<dyn FnOnce() -> u64 + Send>> {
    (0..count)
        .map(|_| {
            Box::new(move || {
                let mut w = grid_world();
                w.compute_routes();
                w.pending_events() as u64
            }) as Box<dyn FnOnce() -> u64 + Send>
        })
        .collect()
}

/// After the timed runner benches, snapshot per-worker utilization for a
/// forced 1/2/4/8-thread sweep into the `CRITERION_JSON` summary
/// (`extras` → `runner_utilization`). This is the flight-recorder data
/// PROFILE_pr6.md cites: it shows directly whether workers overlapped or
/// time-sliced.
fn record_worker_utilization() {
    netsim::profile::set_enabled(true);
    take_runner_telemetry(); // drop anything stale
    let mut batches = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        black_box(pool_map_exact(runner_jobs(32), threads));
        batches.extend(take_runner_telemetry());
    }
    netsim::profile::set_enabled(false);
    netsim::profile::reset();
    match serde_json::to_string(&batches) {
        Ok(json) => criterion::record_extra("runner_utilization", json),
        Err(e) => eprintln!("runner_utilization extra skipped: {e:?}"),
    }
}

/// Timer-heavy churn: prefill `pending` timers, then `ops` rounds of pop
/// the earliest event and re-arm it a short pseudorandom delay later —
/// the shape of a simulation dominated by TCP retransmit/keepalive
/// timers. Returns a checksum so the work cannot be optimised away.
fn scheduler_churn(kind: SchedulerKind, pending: u64, ops: u64) -> u64 {
    let mut q = EventQueue::with_kind(kind);
    let mut rng = 0x9E37_79B9_7F4A_7C15u64;
    let mut delay = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        // Mostly sub-millisecond, occasionally far out (wheel levels 1+).
        if rng.is_multiple_of(64) {
            1 + rng % 3_000_000
        } else {
            1 + rng % 1_000
        }
    };
    for i in 0..pending {
        q.push(
            SimTime(delay()),
            EventKind::Timer(Timer {
                node: NodeId((i % 16) as usize),
                token: TimerToken(i),
            }),
        );
    }
    let mut acc = 0u64;
    for _ in 0..ops {
        let Event { at, kind, .. } = q.pop().expect("queue stays full");
        acc = acc.wrapping_add(at.0);
        q.push(SimTime(at.0 + delay()), kind);
    }
    acc
}

fn bench_scheduler(c: &mut Criterion) {
    let mut g = c.benchmark_group("scheduler");
    g.sample_size(10);
    g.bench_function("wheel_128k_timers_churn", |b| {
        b.iter(|| black_box(scheduler_churn(SchedulerKind::Wheel, 131_072, 131_072)))
    });
    g.bench_function("heap_128k_timers_churn", |b| {
        b.iter(|| {
            black_box(scheduler_churn(
                SchedulerKind::ReferenceHeap,
                131_072,
                131_072,
            ))
        })
    });
    g.finish();
}

/// The flight recorder's own cost: a scope enter/exit around trivial work
/// with profiling off (one relaxed atomic load — the tax every hot path
/// pays permanently) vs on (thread-local tree bookkeeping).
fn bench_profile(c: &mut Criterion) {
    let mut g = c.benchmark_group("profile");
    g.bench_function("scope_disabled", |b| {
        netsim::profile::set_enabled(false);
        b.iter(|| {
            let _prof = netsim::profile::scope("bench/probe");
            black_box(1u64 + black_box(1))
        })
    });
    g.bench_function("scope_enabled", |b| {
        netsim::profile::set_enabled(true);
        b.iter(|| {
            let _prof = netsim::profile::scope("bench/probe");
            black_box(1u64 + black_box(1))
        });
        netsim::profile::set_enabled(false);
    });
    netsim::profile::reset();
    g.finish();
}

/// The sketch/sampling primitives the scale-ready telemetry layer leans
/// on: Space-Saving offers under heavy key churn (worst case: every key
/// distinct, constant eviction), reservoir offers past capacity, and the
/// per-event flow-sampling hash decision.
fn bench_telemetry(c: &mut Criterion) {
    use netsim::{Reservoir, SpaceSaving};
    let mut g = c.benchmark_group("telemetry");
    g.bench_function("space_saving_offer_churn", |b| {
        b.iter(|| {
            let mut sk: SpaceSaving<u64> = SpaceSaving::new(64);
            for i in 0u64..4096 {
                sk.offer(black_box(i % 512), 1);
            }
            black_box(sk.top().len())
        })
    });
    g.bench_function("reservoir_offer", |b| {
        b.iter(|| {
            let mut r: Reservoir<u64> = Reservoir::new(64, 7);
            for i in 0u64..4096 {
                r.offer(black_box(i));
            }
            black_box(r.items().len())
        })
    });
    g.bench_function("flow_sample_decision", |b| {
        let trace = {
            let mut t = netsim::PacketTrace::new(true);
            t.enable_flow_sampling(8, 0x5eed);
            t
        };
        b.iter(|| {
            let mut kept = 0u64;
            for i in 0u64..4096 {
                if trace.keeps_flow(netsim::FlowId(black_box(i))) {
                    kept += 1;
                }
            }
            black_box(kept)
        })
    });
    g.finish();
}

/// Hierarchical world construction and the mass-churn driver. Build cost
/// is dominated by arithmetic route installation (no shortest-path pass
/// at any size), so it should scale linearly in hosts; the churn row
/// exercises the whole handoff/flash/re-registration pipeline on a
/// two-thousand-host world.
fn bench_scale(c: &mut Criterion) {
    use bench::scale::{build_world, run_churn, ChurnParams, ScaleParams};
    let mut g = c.benchmark_group("scale");
    g.sample_size(10);
    for hosts in [2_000usize, 20_000] {
        let params = ScaleParams {
            seed: 1,
            ..ScaleParams::with_hosts(hosts)
        };
        g.bench_function(format!("build_{hosts}_hosts"), |b| {
            b.iter(|| black_box(build_world(&params).1.hosts.len()))
        });
    }
    g.bench_function("churn_2000_hosts", |b| {
        let params = ScaleParams {
            seed: 1,
            ..ScaleParams::with_hosts(2_000)
        };
        let churn = ChurnParams::default();
        b.iter(|| {
            let (mut w, ix) = build_world(&params);
            black_box(run_churn(&mut w, &ix, &churn).events)
        })
    });
    g.finish();
}

/// The policy engine's production-scale claims, measured directly:
///
/// * `hit_*` — a cache hit is one hash probe into the SoA slab plus an
///   LRU touch, so latency must stay flat from 1k to 1M resident
///   correspondents;
/// * `miss_evict_*` — steady-state misses at capacity, where every
///   insert pays an LRU eviction and an index backfill on top of the
///   probe;
/// * `rules_*` — first-match rule lookup, linear reference scan vs the
///   compiled bucketed-LPM index (which deliberately stays linear below
///   nine rules, so the 1-rule rows should tie);
/// * `flash_crowd_*` — the whole E18 storm shape in miniature: a hot
///   set with real feedback history, a 2×-capacity miss storm with the
///   hot set conversing throughout, then a hot-set retention count.
fn bench_policy(c: &mut Criterion) {
    use mip_core::policy::rule_match_reference;
    use mip_core::{AuditTrail, Policy, PolicyConfig, Strategy};

    let mut g = c.benchmark_group("policy");

    for (label, n) in [("1k", 1_000usize), ("100k", 100_000), ("1m", 1_000_000)] {
        let mut p = Policy::new(PolicyConfig {
            cache_cap: n,
            ..PolicyConfig::optimistic()
        });
        // The trail is for explainability; drop it so the rows measure
        // the lookup engine, not ring-buffer bookkeeping.
        p.audit = AuditTrail::with_capacity(0);
        for i in 0..n as u32 {
            p.mode_for(Ipv4Addr(0x1000_0000u32.wrapping_add(i)));
        }
        let step = (n as u32 / 16).max(1);
        let dsts: Vec<Ipv4Addr> = (0..16u32)
            .map(|k| Ipv4Addr(0x1000_0000u32.wrapping_add(k * step)))
            .collect();
        g.bench_function(format!("hit_{label}_entries"), |b| {
            b.iter(|| {
                for &d in &dsts {
                    black_box(p.mode_for(d));
                }
            })
        });
    }

    {
        let cap = 65_536usize;
        let mut p = Policy::new(PolicyConfig {
            cache_cap: cap,
            ..PolicyConfig::optimistic()
        });
        p.audit = AuditTrail::with_capacity(0);
        for i in 0..cap as u32 {
            p.mode_for(Ipv4Addr(0x2000_0000u32 + i));
        }
        // Every lookup is a never-seen correspondent, so the cache stays
        // pinned at capacity and each iteration is a miss + evict.
        let mut next = cap as u32;
        g.bench_function("miss_evict_64k_entries", |b| {
            b.iter(|| {
                for _ in 0..16 {
                    next = next.wrapping_add(1);
                    black_box(p.mode_for(Ipv4Addr(0x2000_0000u32.wrapping_add(next))));
                }
            })
        });
    }

    for nrules in [1usize, 64, 1024] {
        let rules: Vec<(Ipv4Cidr, Strategy)> = (0..nrules as u32)
            .map(|i| {
                let strat = if i % 2 == 0 {
                    Strategy::Pessimistic
                } else {
                    Strategy::Optimistic
                };
                (Ipv4Cidr::new(Ipv4Addr((10 << 24) | (i << 12)), 20), strat)
            })
            .collect();
        // Half the destinations hit rules spread across the list, half
        // miss entirely — the linear scan's worst case.
        let dsts: Vec<Ipv4Addr> = (0..16u32)
            .map(|k| {
                if k % 2 == 0 {
                    Ipv4Addr((10 << 24) | ((k * nrules as u32 / 16) << 12) | 7)
                } else {
                    Ipv4Addr((11 << 24) | k)
                }
            })
            .collect();
        let p = Policy::new(PolicyConfig {
            rules: rules.clone(),
            ..PolicyConfig::optimistic()
        });
        g.bench_function(format!("rules_linear_{nrules}"), |b| {
            b.iter(|| {
                for &d in &dsts {
                    black_box(rule_match_reference(&rules, d));
                }
            })
        });
        g.bench_function(format!("rules_compiled_{nrules}"), |b| {
            b.iter(|| {
                for &d in &dsts {
                    black_box(p.rule_match_compiled(d));
                }
            })
        });
    }

    g.sample_size(10);
    g.bench_function("flash_crowd_2x_cap_4k", |b| {
        b.iter(|| {
            let mut p = Policy::new(PolicyConfig {
                cache_cap: 4_096,
                ..PolicyConfig::optimistic()
            });
            p.audit = AuditTrail::with_capacity(0);
            for i in 0..64u32 {
                let hot = Ipv4Addr(0x0900_0000 + i);
                p.mode_for(hot);
                p.record_feedback(hot, true);
                p.record_feedback(hot, true);
            }
            for i in 0..8_192u32 {
                p.mode_for(Ipv4Addr(0x0A00_0000 + i));
                // The hot set keeps conversing through the storm, so the
                // LRU keeps it off the tail.
                if i % 512 == 511 {
                    for k in 0..64u32 {
                        p.record_feedback(Ipv4Addr(0x0900_0000 + k), false);
                    }
                }
            }
            let mut retained = 0u32;
            for i in 0..64u32 {
                if p.entry(Ipv4Addr(0x0900_0000 + i)).is_some() {
                    retained += 1;
                }
            }
            black_box(retained)
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_forward_fastpath,
    bench_route_lookup,
    bench_compute_routes,
    bench_runner,
    bench_scheduler,
    bench_profile,
    bench_telemetry,
    bench_scale,
    bench_policy,
);
criterion_main!(benches);
