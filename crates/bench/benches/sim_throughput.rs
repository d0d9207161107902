//! Criterion benchmark: simulator throughput.
//!
//! Measures end-to-end runs on a small heterogeneous system across three
//! contention regimes — message-dominated (light load), near-saturation
//! (contention-dominated) and inter-cluster-heavy (every message crosses
//! the ECN1/ICN2 boundary) — plus topology construction for the paper's
//! big organizations. The load cases are the speedup yardstick for the
//! zero-allocation hot path (see `bench_snapshot` for the committed
//! events/sec trajectory).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use cocnet::model::Workload;
use cocnet::presets;
use cocnet::sim::{
    run_simulation, run_simulation_built, BuiltSystem, FaultAction, FaultEvent, FaultSchedule,
    SchedulerKind, SimConfig,
};
use cocnet::topology::{ClusterSpec, NetworkCharacteristics, SystemSpec};
use cocnet_workloads::Pattern;

fn small_spec() -> SystemSpec {
    let net1 = NetworkCharacteristics::new(500.0, 0.01, 0.02).unwrap();
    let net2 = NetworkCharacteristics::new(250.0, 0.05, 0.01).unwrap();
    let c = |n| ClusterSpec {
        n,
        icn1: net1,
        ecn1: net2,
        topology: Default::default(),
    };
    SystemSpec::new(4, vec![c(2), c(2), c(3), c(3)], net1).unwrap()
}

fn bench_cfg() -> SimConfig {
    SimConfig {
        warmup: 500,
        measured: 5_000,
        drain: 500,
        seed: 1,
        ..SimConfig::default()
    }
}

fn bench_sim_run(c: &mut Criterion) {
    let spec = small_spec();
    let wl = Workload::new(2e-4, 32, 256.0).unwrap();
    let cfg = bench_cfg();
    let built = BuiltSystem::build(&spec, wl.flit_bytes);
    let mut group = c.benchmark_group("sim");
    group.sample_size(20);
    group.bench_function("run_6k_messages_small_system", |b| {
        b.iter(|| run_simulation_built(black_box(&built), &wl, Pattern::Uniform, &cfg))
    });
    group.bench_function("run_including_build", |b| {
        b.iter(|| run_simulation(black_box(&spec), &wl, Pattern::Uniform, &cfg))
    });
    group.finish();
}

/// Near-saturation load: chained blocking dominates, so most events are
/// channel handoffs under contention rather than message generations.
/// This is where the hot-path rework has to pay off — each case runs
/// under both event-scheduler backends so the heap-vs-calendar delta is
/// measurable per contention regime.
fn bench_sim_load(c: &mut Criterion) {
    let spec = small_spec();
    let mut group = c.benchmark_group("sim_load");
    group.sample_size(10);

    let heavy = Workload::new(1e-3, 32, 256.0).unwrap();
    let built = BuiltSystem::build(&spec, heavy.flit_bytes);
    // Every message leaves its cluster: three segments per message, all
    // contending for the ECN1 ascent/descent and ICN2 crossing channels.
    let inter = Workload::new(4e-4, 32, 256.0).unwrap();
    let built_inter = BuiltSystem::build(&spec, inter.flit_bytes);
    let pattern = Pattern::ClusterLocal { locality: 0.0 };
    // Fault path: a timed fail/repair pulse on node 0's injection link —
    // measures drop/retry/backoff overhead against the zero-fault cases.
    let light = Workload::new(2e-4, 32, 256.0).unwrap();
    let injection_link = {
        let routes = built.route_table();
        let r = routes.route_ref(0, 1);
        routes.chan_at(routes.seg_meta(r, 0).start)
    };
    let faults = FaultSchedule {
        events: vec![
            FaultEvent {
                time: 0.0,
                link: injection_link,
                action: FaultAction::Fail,
            },
            FaultEvent {
                time: 10_000.0,
                link: injection_link,
                action: FaultAction::Repair,
            },
        ],
        max_attempts: 64,
        retry_timeout: 100.0,
        max_timeout: 800.0,
        ..FaultSchedule::default()
    };
    for scheduler in [SchedulerKind::Heap, SchedulerKind::Calendar] {
        let cfg = SimConfig {
            scheduler,
            ..bench_cfg()
        };
        group.bench_function(format!("high_load_near_saturation/{scheduler}"), |b| {
            b.iter(|| run_simulation_built(black_box(&built), &heavy, Pattern::Uniform, &cfg))
        });
        group.bench_function(format!("inter_cluster_heavy/{scheduler}"), |b| {
            b.iter(|| run_simulation_built(black_box(&built_inter), &inter, pattern, &cfg))
        });
        let cfg_faulted = SimConfig {
            faults: faults.clone(),
            ..cfg
        };
        group.bench_function(format!("faulted_pulse_retry/{scheduler}"), |b| {
            b.iter(|| {
                run_simulation_built(black_box(&built), &light, Pattern::Uniform, &cfg_faulted)
            })
        });
    }
    group.finish();
}

fn bench_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("build");
    group.sample_size(20);
    for (name, spec) in [
        ("org_1120", presets::org_1120()),
        ("org_544", presets::org_544()),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| BuiltSystem::build(black_box(&spec), 256.0))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sim_run, bench_sim_load, bench_build);
criterion_main!(benches);
