//! Golden equivalence between the committed `scenarios/*.json` files and
//! their hand-coded registry twins: the files must parse to *exactly* the
//! scenario the registry builds (pinned via the serialised form) and must
//! produce bit-identical `run_sim` output — so editing either side without
//! the other fails loudly.

use cocnet::registry;
use cocnet::runner::Scenario;
use cocnet::sim::SimConfig;
use std::path::{Path, PathBuf};

fn scenarios_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

fn committed_files() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(scenarios_dir())
        .expect("scenarios/ directory exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "scenarios/ holds committed files");
    files
}

fn load(path: &Path) -> Scenario {
    let text = std::fs::read_to_string(path).unwrap();
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn every_committed_file_matches_its_registry_twin() {
    for path in committed_files() {
        let stem = path.file_stem().unwrap().to_str().unwrap().to_string();
        let entry = registry::find(&stem)
            .unwrap_or_else(|| panic!("{}: no registry entry named {stem:?}", path.display()));
        let loaded = load(&path);
        loaded.validate().unwrap();
        // A custom (non-declarative) entry has no scenario twin to compare
        // against; its committed file is a standalone profile, pinned by a
        // dedicated test below (e.g. `degradation.json`).
        let Some(twin) = entry.scenario() else {
            continue;
        };
        assert_eq!(
            serde_json::to_string_pretty(&loaded).unwrap(),
            serde_json::to_string_pretty(&twin).unwrap(),
            "{}: committed file drifted from its registry twin \
             (regenerate with `cocnet describe {stem} --json`)",
            path.display()
        );
    }
}

#[test]
fn every_declarative_entry_has_a_committed_twin() {
    for entry in registry::all() {
        if entry.scenario().is_some() {
            let path = scenarios_dir().join(format!("{}.json", entry.name));
            assert!(
                path.exists(),
                "registry entry {} has no committed twin {}",
                entry.name,
                path.display()
            );
        }
    }
}

/// A test-sized population: small enough to run every committed scenario,
/// identical between the two sides being compared.
fn tiny(sim: &SimConfig) -> SimConfig {
    SimConfig {
        warmup: 200,
        measured: 2_000,
        drain: 200,
        ..sim.clone()
    }
}

#[test]
fn committed_files_run_bit_identical_to_their_twins() {
    for path in committed_files() {
        let stem = path.file_stem().unwrap().to_str().unwrap().to_string();
        let mut loaded = load(&path);
        let Some(mut twin) = registry::find(&stem).unwrap().scenario() else {
            continue; // custom entry: pinned by its dedicated test below
        };
        for s in [&mut loaded, &mut twin] {
            s.sim = tiny(&s.sim);
            s.rates = s.rates.with_steps(3);
            s.replications = 1;
        }
        let from_file = loaded.run_sim();
        let from_registry = twin.run_sim();
        assert_eq!(
            from_file,
            from_registry,
            "{}: run_sim output differs from registry twin",
            path.display()
        );
        assert!(
            from_file.iter().any(|s| !s.is_empty()),
            "{}: tiny run produced no points at all",
            path.display()
        );
    }
}

/// The committed `degradation.json` is the standalone faulted profile of
/// the *custom* `degradation` registry entry (its fraction sweep has no
/// declarative twin). This pins the hard guarantees the twin comparison
/// cannot: a faulted scenario run is deterministic — serial == parallel
/// and heap == calendar, f64-bit-identically — degrades delivery without
/// silently losing a single message, and terminates by draining its event
/// queue instead of hanging.
#[test]
fn degradation_file_is_deterministic_and_degrades_gracefully() {
    use cocnet::sim::{SchedulerKind, StopReason};

    let path = scenarios_dir().join("degradation.json");
    let mut scenario = load(&path);
    scenario.validate().unwrap();
    assert!(
        !scenario.sim.faults.is_inert(),
        "degradation.json must carry an active faults block"
    );
    scenario.sim = tiny(&scenario.sim);
    scenario.rates = scenario.rates.with_steps(3);
    scenario.replications = 1;

    let dump = |detailed: &[Vec<cocnet::runner::PointSim>]| -> Vec<String> {
        detailed
            .iter()
            .flatten()
            .flat_map(|p| p.runs.iter())
            .map(|r| serde_json::to_string(r).unwrap())
            .collect()
    };

    let parallel = scenario.run_sim_detailed();
    let serial = scenario.run_sim_detailed_serial();
    assert_eq!(
        dump(&parallel),
        dump(&serial),
        "faulted runs must be bit-identical between serial and parallel execution"
    );

    let mut calendar = scenario.clone();
    calendar.sim.scheduler = SchedulerKind::Calendar;
    assert_eq!(
        dump(&parallel),
        dump(&calendar.run_sim_detailed()),
        "faulted runs must be bit-identical between heap and calendar schedulers"
    );

    for point in parallel.iter().flatten() {
        for r in &point.runs {
            assert_eq!(r.stop, StopReason::Drained, "faulted run exits by draining");
            assert!(!r.completed);
            assert_eq!(
                r.generated,
                r.delivered_total + r.unreachable,
                "no message may be silently lost"
            );
            assert!(r.unreachable > 0, "10% failed links partition some pairs");
            assert!(r.delivered_total > 0, "most pairs still deliver");
        }
    }
}

/// The committed `torus_sweep.json` is the declarative twin of the first
/// non-tree registry entry: four 4×4 torus clusters under an m=4 ICN2
/// tree. The twin comparison above already pins file == registry; this
/// pins the determinism contract of the torus backend itself — the sweep
/// is f64-bit-identical across both scheduler backends, and (being
/// sim-only) the spec is outside the analytical model's coverage.
#[test]
fn torus_file_is_bit_identical_across_engines_and_schedulers() {
    use cocnet::model::{coverage, ModelCoverage};
    use cocnet::sim::SchedulerKind;

    let path = scenarios_dir().join("torus_sweep.json");
    let mut scenario = load(&path);
    scenario.validate().unwrap();
    assert!(
        matches!(coverage(&scenario.spec), ModelCoverage::SimOnly { .. }),
        "torus_sweep.json must be a sim-only scenario"
    );
    scenario.sim = tiny(&scenario.sim);
    scenario.rates = scenario.rates.with_steps(3);
    scenario.replications = 1;

    let dump = |detailed: &[Vec<cocnet::runner::PointSim>]| -> Vec<String> {
        detailed
            .iter()
            .flatten()
            .flat_map(|p| p.runs.iter())
            .map(|r| serde_json::to_string(r).unwrap())
            .collect()
    };

    scenario.sim.scheduler = SchedulerKind::Heap;
    let heap = dump(&scenario.run_sim_detailed());
    assert!(
        heap.iter().any(|r| !r.is_empty()),
        "tiny torus run produced no points at all"
    );
    let mut calendar = scenario.clone();
    calendar.sim.scheduler = SchedulerKind::Calendar;
    assert_eq!(
        heap,
        dump(&calendar.run_sim_detailed()),
        "torus sweep must be bit-identical between heap and calendar schedulers"
    );
}

/// The committed `org_scale.json` is the standalone 2048-endpoint profile
/// of the *custom* `org_scale` registry entry (its sweep axis is org
/// size, not rate, so there is no declarative twin). It pins the route-
/// interning guarantee end to end: the class-keyed table (the file's
/// explicit `"interning": "Classed"`) and the eager all-pairs oracle
/// produce f64-bit-identical simulation output on an organization an
/// order of magnitude larger than the golden-regression specs.
#[test]
fn org_scale_file_runs_bit_identical_across_intern_modes() {
    use cocnet::sim::InternMode;

    let path = scenarios_dir().join("org_scale.json");
    let mut scenario = load(&path);
    scenario.validate().unwrap();
    assert_eq!(scenario.spec.total_nodes(), 2048);
    assert_eq!(scenario.sim.interning, InternMode::Classed);
    scenario.sim = tiny(&scenario.sim);
    scenario.rates = scenario.rates.with_steps(2);
    scenario.replications = 1;

    let dump = |detailed: &[Vec<cocnet::runner::PointSim>]| -> Vec<String> {
        detailed
            .iter()
            .flatten()
            .flat_map(|p| p.runs.iter())
            .map(|r| serde_json::to_string(r).unwrap())
            .collect()
    };

    let classed = scenario.run_sim_detailed();
    let mut eager = scenario.clone();
    eager.sim.interning = InternMode::Eager;
    assert_eq!(
        dump(&classed),
        dump(&eager.run_sim_detailed()),
        "classed and eager interning must be bit-identical end to end"
    );
    assert!(
        classed.iter().flatten().any(|p| !p.runs.is_empty()),
        "tiny org_scale run produced no points at all"
    );
}
