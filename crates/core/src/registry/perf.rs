//! Performance snapshot and regression gate: the committed events/sec
//! trajectory of the hot path, and the CI job that enforces it.
//!
//! [`bench_snapshot`] runs a fixed simulator workload and *appends* an
//! entry to `BENCH_sim.json`. Earlier revisions overwrote the file per
//! run, losing the history; since PR 3 each run adds one trajectory entry
//! (git SHA, date, events/sec per case) so the perf record accumulates
//! across PRs. Since PR 5 every case runs under **both** event-scheduler
//! backends (`…/heap` vs `…/calendar`, see [`cocnet_sim::SchedulerKind`])
//! so the trajectory captures the scheduler win per contention regime.
//!
//! Six workloads × two schedulers:
//!
//! * `msg_dominated` — light load, generation and uncontended handoffs;
//! * `high_load` — near saturation, chained blocking dominates;
//! * `inter_heavy` — zero locality, every message crosses ECN1/ICN2;
//! * `adaptive` — oblivious-adaptive routing (per-message route builds);
//! * `faulted` — a timed fail/repair pulse exercising drop/retry/backoff;
//! * `flit` — the flit-level reference engine (per-flit events).
//!
//! Each entry records the host's `threads` so trajectory points from
//! different machines are comparable.
//!
//! Each case is executed `--reps` times; the best wall-clock repetition
//! is reported (throughput is a capability number, not an average over
//! scheduler noise). Usage:
//!
//! ```text
//! bench_snapshot [--quick] [--reps N] [--out-file PATH] [--stamp YYYY-MM-DD]
//! ```
//!
//! `--quick` (CI mode) scales the population down 10× so the snapshot
//! costs seconds; the committed baseline entries are produced without it.
//! `--stamp` pins the recorded date (CI passes `$(date -u +%F)`); without
//! it the system clock is used, and the git SHA falls back to the
//! `GITHUB_SHA` environment variable on checkouts without git metadata —
//! so committed entries never record `null` provenance again.
//!
//! [`perf_gate`] is the CI regression gate: it runs the same cases twice
//! (a quick warm-up pass, then the measured pass — full-size by default,
//! like-for-like with the committed baseline) and compares events/sec per
//! case against the **last full-mode entry** of the committed trajectory,
//! printing the full delta table and failing on any regression beyond
//! `--threshold` (default 30%). Since PR 9 each case also records
//! `build_ms` and `route_table_bytes` (route-table construction became a
//! first-class cost with class-keyed interning), and the gate fails on
//! build-time regressions past the same threshold plus a 5 ms noise
//! floor; entries migrated from before these fields carry 0 and never
//! gate on build time.

use super::{small_spec_48, RunOpts};
use crate::runner::Scenario;
use cocnet_model::Workload;
use cocnet_sim::{
    run_simulation_flit_built, BuiltSystem, Coupling, FaultAction, FaultEvent, FaultSchedule,
    SchedulerKind, SimConfig,
};
use cocnet_stats::Table;
use cocnet_workloads::Pattern;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// One measured case of a snapshot entry.
#[derive(Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
struct CaseReport {
    name: String,
    /// Messages generated by the measured repetition.
    messages: u64,
    /// Engine events processed by the measured repetition.
    events: u64,
    /// Best wall-clock seconds over the repetitions.
    wall_s: f64,
    events_per_sec: f64,
    messages_per_sec: f64,
    /// Peak concurrently-live messages (slab high-water mark).
    peak_live_msgs: u64,
    /// Milliseconds to build the case's system — spec graphs plus the
    /// route table — so the gate also watches build-time regressions
    /// (the class-keyed interning work made build cost a first-class
    /// metric). 0 for entries migrated from before this field existed,
    /// which never gate.
    #[serde(default)]
    build_ms: f64,
    /// Resident route-table bytes right after the build (0 for migrated
    /// entries). The classed table grows lazily, so this is the pre-run
    /// footprint; `org_scale` reports the post-run one.
    #[serde(default)]
    route_table_bytes: u64,
}

/// One run of the snapshot — one point of the committed trajectory.
#[derive(Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
struct SnapshotEntry {
    /// `git rev-parse --short HEAD` at measurement time (`+dirty` when the
    /// working tree had uncommitted changes), falling back to the
    /// `GITHUB_SHA` environment variable; absent only for entries migrated
    /// from the pre-trajectory file format.
    #[serde(default)]
    git_sha: Option<String>,
    /// Measurement date, `YYYY-MM-DD` (UTC): the `--stamp` value when
    /// given, the system clock otherwise; absent for migrated entries.
    #[serde(default)]
    date: Option<String>,
    /// `quick` (CI smoke) or `full` (committed baseline).
    mode: String,
    /// Repetitions per case (best is reported).
    reps: usize,
    /// Worker threads available on the measuring host
    /// (`available_parallelism`), so entries from different machines can
    /// be told apart; 0 for entries predating the field.
    #[serde(default)]
    threads: usize,
    /// Engine events summed over the cases' measured repetitions — the
    /// workload-size fingerprint of the entry: two entries with equal
    /// totals but different events/sec show a genuine throughput change,
    /// unequal totals show the workload itself changed (0 for entries
    /// migrated from before this field existed).
    #[serde(default)]
    events_total: u64,
    /// Messages generated, summed over the cases (0 for migrated entries).
    #[serde(default)]
    messages_total: u64,
    cases: Vec<CaseReport>,
}

/// The written `BENCH_sim.json`: the whole events/sec history, oldest
/// entry first.
#[derive(Debug, Default, Serialize, Deserialize)]
#[serde(default, deny_unknown_fields)]
struct Trajectory {
    trajectory: Vec<SnapshotEntry>,
}

/// What one timed repetition processed.
struct Measured {
    events: u64,
    messages: u64,
    peak: u64,
}

/// Times `run` `reps` times and reports the best repetition.
fn measure(name: &str, reps: usize, mut run: impl FnMut() -> Measured) -> CaseReport {
    let mut best: Option<CaseReport> = None;
    for _ in 0..reps {
        let start = Instant::now();
        let m = run();
        let wall_s = start.elapsed().as_secs_f64();
        let report = CaseReport {
            name: name.to_string(),
            messages: m.messages,
            events: m.events,
            wall_s,
            events_per_sec: m.events as f64 / wall_s,
            messages_per_sec: m.messages as f64 / wall_s,
            peak_live_msgs: m.peak,
            // Stamped by `snapshot_cases` once the shared builds are timed.
            build_ms: 0.0,
            route_table_bytes: 0,
        };
        if best.as_ref().is_none_or(|b| report.wall_s < b.wall_s) {
            best = Some(report);
        }
    }
    let report = best.expect("at least one repetition");
    eprintln!(
        "[{name}: {:.0} events/s, {:.0} msgs/s, peak slab {} ({:.3} s)]",
        report.events_per_sec, report.messages_per_sec, report.peak_live_msgs, report.wall_s
    );
    report
}

/// Runs the five workloads under both scheduler backends and returns the
/// measured cases — the shared engine behind [`bench_snapshot`] and
/// [`perf_gate`]. Case names are `<workload>/<scheduler>`.
fn snapshot_cases(quick: bool, reps: usize) -> Vec<CaseReport> {
    let scale = if quick { 10 } else { 1 };
    let spec = small_spec_48();
    let base = SimConfig {
        warmup: 5_000 / scale,
        measured: 50_000 / scale,
        drain: 5_000 / scale,
        seed: 1,
        ..SimConfig::default()
    };
    // The flit engine processes one event per flit per channel, so its
    // population is kept smaller for comparable wall-clock cost.
    let flit_cfg = SimConfig {
        warmup: 2_000 / scale,
        measured: 20_000 / scale,
        drain: 2_000 / scale,
        coupling: Coupling::StoreAndForward,
        ..base.clone()
    };
    let flit_wl = Workload::new(3e-4, 16, 256.0).expect("static workload");
    let build_start = Instant::now();
    let flit_built = BuiltSystem::build(&spec, flit_wl.flit_bytes);
    let flit_build_ms = build_start.elapsed().as_secs_f64() * 1e3;
    let flit_table_bytes = flit_built.route_table().resident_bytes() as u64;
    let build_start = Instant::now();
    let worm_built = BuiltSystem::build(&spec, 256.0);
    let worm_build_ms = build_start.elapsed().as_secs_f64() * 1e3;
    let worm_table_bytes = worm_built.route_table().resident_bytes() as u64;
    // First channel of node 0's interned route to node 1 — the link the
    // faulted case's fail/repair pulse targets.
    let injection_link = {
        let routes = worm_built.route_table();
        let r = routes.route_ref(0, 1);
        routes.chan_at(routes.seg_meta(r, 0).start)
    };

    let scenario = |name: &str, rate: f64, pattern: Pattern, cfg: SimConfig| {
        Scenario::new(name, spec.clone())
            .with_workload("M=32 Lm=256", Workload::new(rate, 32, 256.0).unwrap())
            .with_rates(vec![rate])
            .with_pattern(pattern)
            .with_sim(cfg)
    };
    let measure_scenario = |name: &str, s: &Scenario| {
        measure(name, reps, || {
            let detailed = s.run_sim_detailed();
            let point = &detailed[0][0];
            assert!(point.completed(), "{name}: snapshot case must complete");
            Measured {
                events: point.events_total(),
                messages: point.messages_total(),
                peak: point.peak_live_msgs(),
            }
        })
    };

    let mut cases = Vec::new();
    for scheduler in [SchedulerKind::Heap, SchedulerKind::Calendar] {
        let cfg = SimConfig {
            scheduler,
            ..base.clone()
        };
        cases.push(measure_scenario(
            &format!("msg_dominated/{scheduler}"),
            &scenario("msg_dominated", 2e-4, Pattern::Uniform, cfg.clone()),
        ));
        cases.push(measure_scenario(
            &format!("high_load/{scheduler}"),
            &scenario("high_load", 1e-3, Pattern::Uniform, cfg.clone()),
        ));
        cases.push(measure_scenario(
            &format!("inter_heavy/{scheduler}"),
            &scenario(
                "inter_heavy",
                4e-4,
                Pattern::ClusterLocal { locality: 0.0 },
                cfg.clone(),
            ),
        ));
        cases.push(measure_scenario(
            &format!("adaptive/{scheduler}"),
            &scenario(
                "adaptive",
                4e-4,
                Pattern::Uniform,
                SimConfig {
                    adaptive_routing: true,
                    ..cfg.clone()
                },
            ),
        ));
        // Fault path: a timed fail/repair pulse on node 0's injection
        // link, so every drop is eventually retried to completion — the
        // case measures drop/retry overhead while the zero-fault cases
        // above pin the unchanged hot path.
        cases.push(measure_scenario(
            &format!("faulted/{scheduler}"),
            &scenario(
                "faulted",
                2e-4,
                Pattern::Uniform,
                SimConfig {
                    faults: FaultSchedule {
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
                    },
                    ..cfg
                },
            ),
        ));
        let cfg_flit = SimConfig {
            scheduler,
            ..flit_cfg.clone()
        };
        cases.push(measure(&format!("flit/{scheduler}"), reps, || {
            let r = run_simulation_flit_built(&flit_built, &flit_wl, Pattern::Uniform, &cfg_flit);
            assert!(r.completed, "flit: snapshot case must complete");
            Measured {
                events: r.events_processed,
                messages: r.generated,
                peak: r.peak_live_msgs,
            }
        }));
    }
    // Every worm case shares one (spec, flit size) build; the flit cases
    // share the other. Stamp the timed build onto each report.
    for case in &mut cases {
        let (build_ms, bytes) = if case.name.starts_with("flit/") {
            (flit_build_ms, flit_table_bytes)
        } else {
            (worm_build_ms, worm_table_bytes)
        };
        case.build_ms = build_ms;
        case.route_table_bytes = bytes;
    }
    cases
}

/// `git rev-parse --short HEAD`, with a `+dirty` suffix when the working
/// tree differs from HEAD; falls back to the `GITHUB_SHA` environment
/// variable (shortened) on checkouts without usable git metadata. `None`
/// only when neither source exists.
fn git_sha() -> Option<String> {
    let run = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|out| out.status.success())
            .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    if let Some(sha) = run(&["rev-parse", "--short", "HEAD"]) {
        let dirty = run(&["status", "--porcelain"]).is_none_or(|s| !s.is_empty());
        return Some(if dirty { format!("{sha}+dirty") } else { sha });
    }
    std::env::var("GITHUB_SHA")
        .ok()
        .filter(|sha| !sha.is_empty())
        .map(|sha| sha.chars().take(9).collect())
}

/// `YYYY-MM-DD` (UTC) for a unix timestamp, via the days-to-civil
/// conversion (Howard Hinnant's algorithm) — no date crate available.
fn civil_date(unix_secs: u64) -> String {
    let z = (unix_secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = yoe + era * 400 + i64::from(m <= 2);
    format!("{y:04}-{m:02}-{d:02}")
}

/// Today's date from the system clock — the fallback when no `--stamp`
/// is passed.
fn today_utc() -> Option<String> {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .ok()
        .map(|d| civil_date(d.as_secs()))
}

/// Loads the existing trajectory. Accepts both the current format and the
/// pre-PR-3 single-snapshot format (migrated to one entry with no SHA or
/// date). Entries whose `git_sha`/`date` are `null` are kept exactly as
/// they are — the provenance fix applies to *new* entries only. A missing
/// file starts an empty trajectory; an unreadable one is an error —
/// silently discarding perf history defeats the file's point.
fn load_trajectory(path: &str) -> Result<Trajectory, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Trajectory::default()),
        Err(e) => return Err(format!("{path}: {e}")),
    };
    let value: serde::Value = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    if value.get("cases").is_some() {
        // Pre-trajectory format: one bare snapshot object.
        let entry: SnapshotEntry =
            serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
        return Ok(Trajectory {
            trajectory: vec![entry],
        });
    }
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

/// The `bench_snapshot` entry: measure every case under both scheduler
/// backends and append one trajectory entry to `BENCH_sim.json` (or
/// `--out-file PATH`).
pub fn bench_snapshot(opts: &RunOpts) {
    let quick = opts.quick;
    let reps = opts.reps.unwrap_or(if quick { 1 } else { 3 });
    let out = opts
        .out_file
        .clone()
        .unwrap_or_else(|| "BENCH_sim.json".to_string());

    let cases = snapshot_cases(quick, reps);

    let mut trajectory = load_trajectory(&out).expect("readable snapshot trajectory");
    trajectory.trajectory.push(SnapshotEntry {
        git_sha: git_sha(),
        date: opts.stamp.clone().or_else(today_utc),
        mode: if quick { "quick" } else { "full" }.to_string(),
        reps,
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        events_total: cases.iter().map(|c| c.events).sum(),
        messages_total: cases.iter().map(|c| c.messages).sum(),
        cases,
    });
    let json = serde_json::to_string_pretty(&trajectory).expect("trajectory serialises");
    std::fs::write(&out, json + "\n").expect("writable snapshot path");
    eprintln!(
        "[appended entry {} to {out}]",
        trajectory.trajectory.len() - 1
    );
}

/// Additive noise floor for the build-time gate: build deltas below this
/// many milliseconds never fail, whatever the relative change — sub-
/// millisecond builds (the classed table on small specs) are pure
/// allocator and scheduler jitter at this resolution.
const BUILD_NOISE_FLOOR_MS: f64 = 5.0;

/// One comparison row of the regression gate.
struct GateRow {
    name: String,
    baseline_eps: Option<f64>,
    current_eps: f64,
    /// Relative change, `current/baseline - 1` (None when the case has no
    /// baseline yet).
    delta: Option<f64>,
    failed: bool,
    /// Baseline build time, when the baseline entry recorded one
    /// (None for migrated entries with `build_ms == 0`, which never gate).
    baseline_build_ms: Option<f64>,
    current_build_ms: f64,
    build_failed: bool,
}

/// Compares current cases against the baseline's by name. A case is a
/// failure when its events/sec fell more than `threshold` below the
/// baseline, or when its build time grew beyond the same relative
/// threshold plus [`BUILD_NOISE_FLOOR_MS`]; cases without a baseline
/// counterpart are reported as `new` and never gate, while baseline cases
/// the current run no longer measures get an explicit `missing` row —
/// silently shrinking coverage would let a deleted-but-regressed case
/// slip past the gate unseen.
fn gate_rows(current: &[CaseReport], baseline: &[CaseReport], threshold: f64) -> Vec<GateRow> {
    let mut rows: Vec<GateRow> = current
        .iter()
        .map(|case| {
            let base = baseline.iter().find(|b| b.name == case.name);
            let base_eps = base.map(|b| b.events_per_sec);
            let delta = base_eps.map(|b| case.events_per_sec / b - 1.0);
            let baseline_build_ms = base.map(|b| b.build_ms).filter(|&ms| ms > 0.0);
            GateRow {
                name: case.name.clone(),
                baseline_eps: base_eps,
                current_eps: case.events_per_sec,
                delta,
                failed: delta.is_some_and(|d| d < -threshold),
                baseline_build_ms,
                current_build_ms: case.build_ms,
                build_failed: baseline_build_ms
                    .is_some_and(|b| case.build_ms > b * (1.0 + threshold) + BUILD_NOISE_FLOOR_MS),
            }
        })
        .collect();
    for gone in baseline
        .iter()
        .filter(|b| !current.iter().any(|c| c.name == b.name))
    {
        rows.push(GateRow {
            name: gone.name.clone(),
            baseline_eps: Some(gone.events_per_sec),
            current_eps: f64::NAN,
            delta: None,
            failed: false,
            baseline_build_ms: None,
            current_build_ms: f64::NAN,
            build_failed: false,
        });
    }
    rows
}

/// Renders the delta table the gate always prints, pass or fail.
fn render_gate(rows: &[GateRow], threshold: f64) -> String {
    let mut table = Table::new([
        "case",
        "baseline ev/s",
        "current ev/s",
        "delta",
        "build ms",
        "status",
    ]);
    for row in rows {
        table.push_row([
            row.name.clone(),
            row.baseline_eps
                .map_or("-".to_string(), |b| format!("{b:.0}")),
            if row.current_eps.is_nan() {
                "-".to_string()
            } else {
                format!("{:.0}", row.current_eps)
            },
            row.delta
                .map_or("-".to_string(), |d| format!("{:+.1}%", d * 100.0)),
            if row.current_build_ms.is_nan() {
                "-".to_string()
            } else {
                format!("{:.1}", row.current_build_ms)
            },
            if row.failed {
                format!("FAIL (>{:.0}% slower)", threshold * 100.0)
            } else if row.build_failed {
                format!(
                    "FAIL (build {:.1} ms vs {:.1} ms baseline)",
                    row.current_build_ms,
                    row.baseline_build_ms.unwrap_or(0.0)
                )
            } else if row.current_eps.is_nan() {
                "missing (in baseline, not measured)".to_string()
            } else if row.delta.is_none() {
                "new".to_string()
            } else {
                "ok".to_string()
            },
        ]);
    }
    table.render()
}

/// The `perf_gate` entry: a warm-up quick snapshot pass, a measured pass,
/// then the per-case events/sec comparison against the last *full*-mode
/// entry of the committed trajectory (`--baseline PATH` to point
/// elsewhere, `--threshold X` to change the 30% tolerance). Exits 1 on
/// any regression beyond the threshold, 2 when there is no baseline to
/// compare against; the delta table is always printed.
///
/// The measured pass runs the cases at **full** size by default so the
/// comparison is like-for-like with the committed full-mode baseline:
/// quick-mode cases run 10× smaller populations whose fixed per-run
/// costs (system build, first-touch allocation) bias events/sec ~25%
/// low — enough to eat the whole 30% tolerance before any real
/// regression. Passing `--quick` opts into the fast-but-biased
/// measurement anyway (useful with a quick-derived `--baseline`).
pub fn perf_gate(opts: &RunOpts) {
    let threshold = opts.threshold.unwrap_or(0.30);
    let path = opts.baseline.as_deref().unwrap_or("BENCH_sim.json");
    let trajectory = load_trajectory(path).unwrap_or_else(|e| {
        eprintln!("perf gate: {e}");
        std::process::exit(2);
    });
    let Some(baseline) = trajectory
        .trajectory
        .iter()
        .rev()
        .find(|e| e.mode == "full")
    else {
        eprintln!("perf gate: {path} holds no full-mode baseline entry");
        std::process::exit(2);
    };
    eprintln!(
        "[perf gate: baseline = entry {} ({}, {})]",
        trajectory
            .trajectory
            .iter()
            .position(|e| std::ptr::eq(e, baseline))
            .unwrap_or(0),
        baseline.git_sha.as_deref().unwrap_or("no sha"),
        baseline.date.as_deref().unwrap_or("no date"),
    );
    let reps = opts.reps.unwrap_or(2);
    eprintln!("[perf gate: warm-up pass (discarded)]");
    let _ = snapshot_cases(true, 1);
    eprintln!(
        "[perf gate: measured pass ({reps} reps per case, {} size)]",
        if opts.quick { "quick" } else { "full" }
    );
    let current = snapshot_cases(opts.quick, reps);

    let rows = gate_rows(&current, &baseline.cases, threshold);
    println!("{}", render_gate(&rows, threshold));
    let compared = rows.iter().filter(|r| r.delta.is_some()).count();
    if compared == 0 {
        eprintln!("perf gate: no case in common with the baseline — gate is vacuous");
        std::process::exit(2);
    }
    let missing = rows.iter().filter(|r| r.current_eps.is_nan()).count();
    if missing > 0 {
        eprintln!(
            "perf gate: warning — {missing} baseline case(s) were not measured; \
             refresh the committed baseline if they were removed on purpose"
        );
    }
    let failures: Vec<&GateRow> = rows.iter().filter(|r| r.failed || r.build_failed).collect();
    if failures.is_empty() {
        eprintln!(
            "[perf gate: ok — {compared} case(s) within {:.0}%]",
            threshold * 100.0
        );
    } else {
        for row in &failures {
            if row.failed {
                eprintln!(
                    "perf gate: {} regressed {:.1}% (baseline {:.0} ev/s, current {:.0} ev/s)",
                    row.name,
                    row.delta.unwrap_or(0.0) * -100.0,
                    row.baseline_eps.unwrap_or(0.0),
                    row.current_eps,
                );
            }
            if row.build_failed {
                eprintln!(
                    "perf gate: {} build time regressed ({:.1} ms vs {:.1} ms baseline)",
                    row.name,
                    row.current_build_ms,
                    row.baseline_build_ms.unwrap_or(0.0),
                );
            }
        }
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn case(name: &str, eps: f64) -> CaseReport {
        case_with_build(name, eps, 0.0)
    }

    fn case_with_build(name: &str, eps: f64, build_ms: f64) -> CaseReport {
        CaseReport {
            name: name.to_string(),
            messages: 1,
            events: 1,
            wall_s: 1.0,
            events_per_sec: eps,
            messages_per_sec: 1.0,
            peak_live_msgs: 1,
            build_ms,
            route_table_bytes: 1,
        }
    }

    #[test]
    fn gate_flags_only_regressions_beyond_threshold() {
        let baseline = vec![
            case("high_load/heap", 10_000.0),
            case("high_load/calendar", 12_000.0),
            case("flit/heap", 8_000.0),
            // Present in the baseline but no longer measured: must show
            // up as an explicit `missing` row, never vanish silently.
            case("gone/heap", 5_000.0),
        ];
        let current = vec![
            // 35% below baseline: must fail at a 30% threshold.
            case("high_load/heap", 6_500.0),
            // 25% below: within tolerance.
            case("high_load/calendar", 9_000.0),
            // Faster than baseline: fine.
            case("flit/heap", 9_500.0),
            // No baseline counterpart: reported as new, never gates.
            case("adaptive/calendar", 100.0),
        ];
        let rows = gate_rows(&current, &baseline, 0.30);
        assert_eq!(rows.len(), 5);
        assert!(rows[0].failed, "35% regression must trip the gate");
        assert!(!rows[1].failed, "25% regression is within the 30% gate");
        assert!(!rows[2].failed);
        assert!(!rows[3].failed && rows[3].delta.is_none());
        // The baseline-only case surfaces as a missing row (not a gate
        // failure — deleting a case is a deliberate change — but loud).
        assert_eq!(rows[4].name, "gone/heap");
        assert!(rows[4].current_eps.is_nan() && !rows[4].failed);
        // The synthetic >30% slowdown is what the committed workflow
        // fails on; the rendered table always carries every row.
        let rendered = render_gate(&rows, 0.30);
        assert!(rendered.contains("FAIL"), "{rendered}");
        assert!(rendered.contains("new"), "{rendered}");
        assert!(rendered.contains("missing"), "{rendered}");
        assert!(rendered.contains("gone/heap"), "{rendered}");
        assert!(rendered.contains("high_load/heap"), "{rendered}");
        // A tighter threshold trips the 25% case too.
        let strict = gate_rows(&current, &baseline, 0.20);
        assert!(strict[1].failed);
        // A looser one passes everything.
        let loose = gate_rows(&current, &baseline, 0.40);
        assert!(loose.iter().all(|r| !r.failed));
    }

    #[test]
    fn build_time_regressions_gate_with_a_noise_floor() {
        let baseline = vec![
            case_with_build("slow_build", 100.0, 50.0),
            case_with_build("tiny_build", 100.0, 1.0),
            // Migrated baseline entry: build_ms defaulted to 0.
            case_with_build("migrated", 100.0, 0.0),
        ];
        let current = vec![
            // 60% slower and well past the 5 ms floor: fails at 30%.
            case_with_build("slow_build", 100.0, 80.0),
            // 5x slower relatively, but 1·1.3 + 5 = 6.3 ms floor absorbs it.
            case_with_build("tiny_build", 100.0, 5.0),
            // A baseline without a recorded build time never gates.
            case_with_build("migrated", 100.0, 1_000.0),
        ];
        let rows = gate_rows(&current, &baseline, 0.30);
        assert!(rows[0].build_failed, "60% build regression must trip");
        assert!(!rows[0].failed, "throughput itself is unchanged");
        assert!(!rows[1].build_failed, "noise floor absorbs tiny builds");
        assert!(!rows[2].build_failed, "migrated build_ms == 0 never gates");
        let rendered = render_gate(&rows, 0.30);
        assert!(rendered.contains("FAIL (build 80.0 ms"), "{rendered}");
        assert!(rendered.contains("build ms"), "{rendered}");
    }

    #[test]
    fn date_conversion_matches_known_days() {
        assert_eq!(civil_date(0), "1970-01-01");
        // 2026-07-30 00:00:00 UTC.
        assert_eq!(civil_date(1_785_369_600), "2026-07-30");
        // A leap day.
        assert_eq!(civil_date(951_782_400), "2000-02-29");
        // End of a leap year.
        assert_eq!(civil_date(978_220_800), "2000-12-31");
    }

    #[test]
    fn old_single_snapshot_format_migrates() {
        let dir = std::env::temp_dir().join("cocnet_perf_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("old_bench.json");
        std::fs::write(
            &path,
            r#"{"mode":"full","reps":3,"cases":[{"name":"x","messages":1,"events":2,
                "wall_s":0.5,"events_per_sec":4.0,"messages_per_sec":2.0,"peak_live_msgs":3}]}"#,
        )
        .unwrap();
        let t = load_trajectory(path.to_str().unwrap()).unwrap();
        assert_eq!(t.trajectory.len(), 1);
        assert_eq!(t.trajectory[0].mode, "full");
        // Null provenance on migrated entries stays untouched.
        assert_eq!(t.trajectory[0].git_sha, None);
        assert_eq!(t.trajectory[0].date, None);
        assert_eq!(t.trajectory[0].cases[0].events, 2);
        // Entries predating the totals fields migrate with 0 (= unknown).
        assert_eq!(t.trajectory[0].events_total, 0);
        assert_eq!(t.trajectory[0].messages_total, 0);
        assert_eq!(t.trajectory[0].threads, 0);
        // ... as do per-case build metrics, which the gate then ignores.
        assert_eq!(t.trajectory[0].cases[0].build_ms, 0.0);
        assert_eq!(t.trajectory[0].cases[0].route_table_bytes, 0);
        // Round-trip keeps the nulls in place.
        let json = serde_json::to_string_pretty(&t).unwrap();
        assert!(json.contains("\"git_sha\": null"), "{json}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_starts_empty_and_garbage_errors() {
        let t = load_trajectory("/nonexistent/dir/bench.json").unwrap();
        assert!(t.trajectory.is_empty());
        let dir = std::env::temp_dir().join("cocnet_perf_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.json");
        std::fs::write(&path, "not json").unwrap();
        assert!(load_trajectory(path.to_str().unwrap()).is_err());
        std::fs::remove_file(&path).unwrap();
    }
}
