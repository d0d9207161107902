//! `cocnet-probe`: the in-process half of the cocnet benchmark.
//!
//! The benchmark script (`benchmark/run.py`) times `cocnet run` as a
//! subprocess; this binary links the same workspace crates and times calls
//! into each layer's public functions from outside the program. Nothing
//! inside the program is instrumented.
//!
//! Every subcommand reads a *plan*: a JSON object `{"runs": [{"file": …,
//! "no_sim": …}, …]}` listing the `cocnet run` invocations of one workload,
//! and prints one JSON object on stdout.
//!
//! ```text
//! cocnet-probe info  <plan>    model saturation rate per workload entry, node and channel counts
//! cocnet-probe serve <plan>    setup and model timings on request
//! cocnet-probe check <plan>    parallel sweep + model grid: per-point facts
//! cocnet-probe trace <plan>    serial traced replay: spans, counters, facts
//! ```

use cocnet::model::{
    coverage, evaluate_with_profile, saturation_point, OutgoingProfile, SystemLatency, Workload,
};
use cocnet::report::{render_figure, to_csv, to_json};
use cocnet::runner::{PointSim, Scenario};
use cocnet::sim::{
    run_simulation_built, BuiltSystem, CalendarQueue, EventQueue, Scheduler, SchedulerKind,
    SimConfig, SimResults,
};
use cocnet::stats::Series;
use cocnet::topology::{AscentPolicy, SystemSpec};
use cocnet_workloads::PoissonArrivals;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Serialize, Value};
use std::time::Instant;

/// Relative tolerance of the saturation search.
const SATURATION_TOL: f64 = 1e-4;
/// Timed pop+push pairs of the scheduler hold model.
const HOLD_OPS: usize = 2_000_000;
/// Seconds of one `serve` burst at least.
const BURST_SECONDS: f64 = 0.1;
/// Grid points a `model` burst times at most. A larger grid is sampled at
/// every k-th point, so that a run calls each sampled point often enough
/// to catch it undisturbed.
const MODEL_POINTS: usize = 128;

/// One `cocnet run <file> [--no-sim]` invocation of a workload.
struct Run {
    file: String,
    no_sim: bool,
}

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("cocnet-probe: {msg}");
    std::process::exit(1);
}

fn read_plan(path: &str) -> Vec<Run> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| fail(format!("{path}: {e}")));
    let plan: Value = serde_json::from_str(&text).unwrap_or_else(|e| fail(format!("{path}: {e}")));
    let Some(Value::Arr(runs)) = plan.get("runs") else {
        fail(format!("{path}: plan needs a \"runs\" array"))
    };
    runs.iter()
        .map(|run| match (run.get("file"), run.get("no_sim")) {
            (Some(Value::Str(file)), Some(Value::Bool(no_sim))) => Run {
                file: file.clone(),
                no_sim: *no_sim,
            },
            _ => fail(format!("{path}: every run needs \"file\" and \"no_sim\"")),
        })
        .collect()
}

/// What `cocnet run <file>` does before any work: read, parse, validate.
fn load(file: &str) -> Scenario {
    let text = std::fs::read_to_string(file).unwrap_or_else(|e| fail(format!("{file}: {e}")));
    let scenario: Scenario =
        serde_json::from_str(&text).unwrap_or_else(|e| fail(format!("{file}: {e}")));
    scenario
        .validate()
        .unwrap_or_else(|e| fail(format!("{file}: {e}")));
    scenario
}

/// The runner's build step for one workload entry.
fn build(scenario: &Scenario, workload: usize) -> BuiltSystem {
    BuiltSystem::try_build_full(
        &scenario.spec,
        scenario.workloads[workload].workload.flit_bytes,
        AscentPolicy::default(),
        &scenario.sim.faults,
        scenario.sim.interning,
    )
    .unwrap_or_else(|e| fail(format!("build: {e}")))
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn num<T: Serialize>(x: T) -> Value {
    x.to_value()
}

fn print(v: Value) {
    println!("{}", serde_json::to_string(&v).expect("values serialise"));
}

// ---- per-point facts ---------------------------------------------------------

/// Everything the output checks of `run.py` and digest need from one run.
fn run_facts(workload: usize, point: usize, rate: f64, seed: u64, r: &SimResults) -> Value {
    obj(vec![
        ("workload", num(workload)),
        ("point", num(point)),
        ("rate", num(rate)),
        ("seed", num(seed)),
        ("mean", num(r.latency.mean)),
        (
            "mean_bits",
            num(format!("{:016x}", r.latency.mean.to_bits())),
        ),
        ("events", num(r.events_processed)),
        ("generated", num(r.generated)),
        ("delivered_total", num(r.delivered_total)),
        ("delivered_recorded", num(r.delivered_recorded)),
        ("unreachable", num(r.unreachable)),
        ("dropped", num(r.dropped)),
        ("retransmits", num(r.retransmits)),
        ("peak_live_msgs", num(r.peak_live_msgs)),
        ("completed", num(r.completed)),
        ("stop", num(format!("{:?}", r.stop))),
        ("intra_mean", num(r.intra.mean)),
        ("intra_count", num(r.intra.count)),
        ("inter_mean", num(r.inter.mean)),
        ("inter_count", num(r.inter.count)),
    ])
}

fn sweep_facts(detailed: &[Vec<PointSim>], run: usize) -> Vec<Value> {
    let mut out = Vec::new();
    for (w, points) in detailed.iter().enumerate() {
        for (p, point) in points.iter().enumerate() {
            for (rep, r) in point.runs.iter().enumerate() {
                let mut facts = run_facts(w, p, point.rate, point.seed + rep as u64, r);
                if let Value::Obj(fields) = &mut facts {
                    fields.insert(0, ("run".to_string(), num(run)));
                }
                out.push(facts);
            }
        }
    }
    out
}

/// The model's system-level intra- and inter-cluster latencies: per-cluster
/// class latencies weighted by the share of messages each cluster sends in
/// that class (uniform generation, so weight `N_i·(1−U_i)` and `N_i·U_i`).
fn class_latencies(spec: &SystemSpec, out: &SystemLatency) -> (f64, f64) {
    let (mut intra, mut w_intra, mut inter, mut w_inter) = (0.0, 0.0, 0.0, 0.0);
    for c in &out.per_cluster {
        let n = spec.cluster_nodes(c.cluster) as f64;
        let u = c.outgoing_probability;
        intra += n * (1.0 - u) * c.intra.total();
        w_intra += n * (1.0 - u);
        inter += n * u * c.inter.total();
        w_inter += n * u;
    }
    (intra / w_intra, inter / w_inter)
}

/// Each workload entry's model saturation rate (`None` off model coverage).
fn saturations(scenario: &Scenario) -> Vec<Option<f64>> {
    let full = coverage(&scenario.spec).is_full();
    let saturation = |wl| saturation_point(&scenario.spec, wl, &scenario.opts, SATURATION_TOL);
    scenario
        .workloads
        .iter()
        .map(|e| {
            if full {
                saturation(&e.workload).ok()
            } else {
                None
            }
        })
        .collect()
}

/// The model at every grid point of one scenario, with the call's
/// latency in µs.
fn model_facts(scenario: &Scenario, run: usize) -> Vec<Value> {
    if !coverage(&scenario.spec).is_full() {
        return Vec::new();
    }
    let profile = OutgoingProfile::uniform(&scenario.spec);
    let rates = scenario.rates.values();
    let mut points = Vec::new();
    for (w, entry) in scenario.workloads.iter().enumerate() {
        for (p, &rate) in rates.iter().enumerate() {
            let wl = entry.workload.with_rate(rate);
            let mut facts = vec![
                ("run", num(run)),
                ("workload", num(w)),
                ("point", num(p)),
                ("rate", num(rate)),
            ];
            let t = Instant::now();
            let out = evaluate_with_profile(&scenario.spec, &wl, &scenario.opts, &profile);
            facts.push(("us", num(t.elapsed().as_secs_f64() * 1e6)));
            match out {
                Ok(out) => {
                    let (intra, inter) = class_latencies(&scenario.spec, &out);
                    facts.push(("latency", num(out.latency)));
                    facts.push(("intra", num(intra)));
                    facts.push(("inter", num(inter)));
                }
                Err(e) => facts.push(("error", num(e.to_string()))),
            }
            points.push(obj(facts));
        }
    }
    points
}

// ---- subcommands -------------------------------------------------------------

/// First ICN2 channel id: global numbering puts the ICN2 network last.
fn icn2_first(b: &BuiltSystem) -> u32 {
    let (mut lo, mut hi) = (0, b.num_channels() as u32);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if b.network_of(mid).0 == "ICN2" {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// `info`: per run, the model saturation rate of every workload entry, the
/// node count, the channel count and the first ICN2 channel (`run.py`
/// draws fault links and light-load rates from these).
fn cmd_info(plan: &[Run]) {
    let runs = plan
        .iter()
        .map(|run| {
            let s = load(&run.file);
            let built = build(&s, 0);
            obj(vec![
                ("saturation", num(saturations(&s))),
                ("nodes", num(s.spec.total_nodes())),
                ("channels", num(built.num_channels())),
                ("icn2_first", num(icn2_first(&built))),
            ])
        })
        .collect();
    print(obj(vec![("runs", Value::Arr(runs))]));
}

/// Everything `cocnet run` does before the first simulated event: parse,
/// validate, and build every workload entry of the simulated runs.
fn setup(plan: &[Run]) {
    for run in plan {
        let scenario = load(&run.file);
        if !run.no_sim {
            for w in 0..scenario.workloads.len() {
                std::hint::black_box(build(&scenario, w));
            }
        }
    }
}

/// `serve`: a long-lived session answering timing requests on stdin, one
/// per line, so `run.py` can interleave them with its timed `cocnet run`
/// passes and all of them see the same host conditions. A request is one
/// word; it runs for at least [`BURST_SECONDS`] and prints one JSON line:
///
/// * `setup` — repetitions of [`setup`]: `{"samples": [s, …]}`;
/// * `model` — whole passes over the plan's model grid (at most
///   [`MODEL_POINTS`] of its points, evenly spaced in grid order), one
///   `evaluate_with_profile` call per point:
///   `{"samples": [µs, …], "grid": <calls per pass>}`.
fn cmd_serve(plan: &[Run]) {
    let scenarios: Vec<(Scenario, OutgoingProfile)> = plan
        .iter()
        .map(|run| load(&run.file))
        .filter(|s| coverage(&s.spec).is_full())
        .map(|s| {
            let profile = OutgoingProfile::uniform(&s.spec);
            (s, profile)
        })
        .collect();
    let mut grid: Vec<(usize, Workload)> = Vec::new();
    for (i, (s, _)) in scenarios.iter().enumerate() {
        let rates = s.rates.values();
        for e in &s.workloads {
            grid.extend(rates.iter().map(|&r| (i, e.workload.with_rate(r))));
        }
    }
    let points: Vec<(usize, Workload)> = grid
        .iter()
        .copied()
        .step_by(grid.len().div_ceil(MODEL_POINTS).max(1))
        .collect();
    for line in std::io::stdin().lines() {
        let line = line.unwrap_or_else(|e| fail(e));
        let what = line.trim();
        let mut samples = Vec::new();
        let start = Instant::now();
        while samples.is_empty() || start.elapsed().as_secs_f64() < BURST_SECONDS {
            match what {
                "setup" => {
                    let t = Instant::now();
                    setup(plan);
                    samples.push(t.elapsed().as_secs_f64());
                }
                "model" => {
                    if points.is_empty() {
                        fail("the plan has no model grid");
                    }
                    for (i, wl) in &points {
                        let (s, profile) = &scenarios[*i];
                        let t = Instant::now();
                        let out = evaluate_with_profile(&s.spec, wl, &s.opts, profile);
                        samples.push(t.elapsed().as_secs_f64() * 1e6);
                        std::hint::black_box(out.ok());
                    }
                }
                other => fail(format!("unknown request {other:?}")),
            }
        }
        print(obj(vec![
            ("samples", num(samples)),
            ("grid", num(points.len())),
        ]));
    }
}

/// `check`: what `cocnet run` computes, untraced — the parallel sweep and
/// the model grid — as per-point facts.
fn cmd_check(plan: &[Run]) {
    let mut sims = Vec::new();
    let mut models = Vec::new();
    let mut saturation = Vec::new();
    for (i, run) in plan.iter().enumerate() {
        let scenario = load(&run.file);
        saturation.push(num(saturations(&scenario)));
        models.extend(model_facts(&scenario, i));
        if !run.no_sim {
            sims.extend(sweep_facts(&scenario.run_sim_detailed(), i));
        }
    }
    print(obj(vec![
        ("sims", Value::Arr(sims)),
        ("models", Value::Arr(models)),
        ("saturation", Value::Arr(saturation)),
    ]));
}

/// One recorded span: a call into a layer, timed from outside.
struct Span {
    name: &'static str,
    start: f64,
    end: f64,
    parent: Option<usize>,
}

/// In-memory span recorder; spans are written out when the run ends.
struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// Runs `f` inside a span named `name`, nested under the open span.
    fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.now();
        out
    }

    fn to_value(&self) -> Value {
        Value::Arr(
            self.spans
                .iter()
                .map(|s| {
                    obj(vec![
                        ("name", num(s.name)),
                        ("start", num(s.start)),
                        ("end", num(s.end)),
                        ("parent", num(s.parent)),
                    ])
                })
                .collect(),
        )
    }
}

/// Draws a run's message population the way the engine does — one
/// Poisson arrival per node to prime, then a destination and the next
/// arrival per message — outside the engine. Returns the messages drawn.
fn generate(scenario: &Scenario, rate: f64, seed: u64, messages: u64) -> u64 {
    let spec = &scenario.spec;
    let nodes = spec.total_nodes();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut arrivals = vec![PoissonArrivals::new(rate); nodes];
    let mut sink = 0.0;
    for a in arrivals.iter_mut() {
        sink += a.next_arrival(&mut rng);
    }
    for k in 0..messages {
        let src = (k % nodes as u64) as usize;
        let dst = scenario.pattern.sample(spec, src, &mut rng);
        sink += arrivals[src].next_arrival(&mut rng) + dst as f64;
    }
    std::hint::black_box(sink);
    messages
}

/// A hold model on one scheduler backend: `pending` events, then `ops`
/// timed pop+push pairs with exponential increments (one pending event per
/// time unit on average). Returns ns per pair.
fn hold<Q: Scheduler<u32>>(pending: usize, ops: usize) -> f64 {
    let mut rng = StdRng::seed_from_u64(pending as u64);
    let span = pending as f64;
    let mut q = Q::new();
    for i in 0..pending {
        q.schedule(rng.random::<f64>() * span, i as u32);
    }
    let mut step = |q: &mut Q| {
        let ev = q.pop().expect("hold keeps the queue full");
        q.schedule(ev.time - (1.0 - rng.random::<f64>()).ln() * span, ev.kind);
    };
    for _ in 0..pending.min(ops) {
        step(&mut q);
    }
    let start = Instant::now();
    for _ in 0..ops {
        step(&mut q);
    }
    start.elapsed().as_secs_f64() * 1e9 / ops as f64
}

/// `trace`: a serial, in-process replay of the plan's `cocnet run`
/// invocations with a span around every call into a layer, then the
/// untraced parallel sweep (`runner.sweep`), the workload-generation
/// replay, the saturation search and the scheduler hold model. Prints
/// spans, counters, the per-point facts of both the serial replay and the
/// parallel sweep, and the model facts.
fn cmd_trace(plan: &[Run]) {
    let mut tr = Tracer::new();
    let mut serial = Vec::new();
    let mut builts: Vec<Vec<BuiltSystem>> = Vec::new();
    let mut scenarios = Vec::new();
    let mut evals = 0usize;
    let mut route_bytes_pre = 0usize;
    tr.span("runner.replay", |tr| {
        for (i, run) in plan.iter().enumerate() {
            let scenario = tr.span("runner.parse", |_| load(&run.file));
            let mut series: Vec<Series> = if coverage(&scenario.spec).is_full() {
                evals += scenario.workloads.len() * scenario.rates.len();
                tr.span("model", |_| scenario.run_model())
            } else {
                Vec::new()
            };
            let mut run_builts = Vec::new();
            if !run.no_sim {
                run_builts = (0..scenario.workloads.len())
                    .map(|w| tr.span("build", |_| build(&scenario, w)))
                    .collect();
                route_bytes_pre += run_builts
                    .iter()
                    .map(|b| b.route_table().resident_bytes())
                    .sum::<usize>();
                let rates = scenario.rates.values();
                let mut detailed = Vec::new();
                for (w, entry) in scenario.workloads.iter().enumerate() {
                    let mut points = Vec::new();
                    for (p, &rate) in rates.iter().enumerate() {
                        let base = scenario.point_seed(w, p);
                        let runs = (0..scenario.replications)
                            .map(|rep| {
                                let cfg = SimConfig {
                                    seed: base.wrapping_add(rep as u64),
                                    ..scenario.sim.clone()
                                };
                                let wl = entry.workload.with_rate(rate);
                                tr.span("engine", |_| {
                                    run_simulation_built(
                                        &run_builts[w],
                                        &wl,
                                        scenario.pattern,
                                        &cfg,
                                    )
                                })
                            })
                            .collect();
                        points.push(PointSim {
                            rate,
                            seed: base,
                            runs,
                        });
                    }
                    detailed.push(points);
                }
                series.extend(tr.span("stats", |_| scenario.sim_series(&detailed)));
                serial.extend(sweep_facts(&detailed, i));
            }
            tr.span("report", |_| {
                std::hint::black_box((
                    render_figure(&scenario.name, &series),
                    cocnet::stats::scatter(&series, 64, 20),
                    to_json(&series),
                    to_csv(&series),
                ));
            });
            builts.push(run_builts);
            scenarios.push(scenario);
        }
    });

    // Route-table state after the runs; then free the systems before the
    // parallel sweep builds its own.
    let all_builts = || builts.iter().flatten();
    let channels = all_builts().map(|b| b.num_channels()).max().unwrap_or(0);
    let route_bytes_post: usize = all_builts().map(|b| b.route_table().resident_bytes()).sum();
    let segments_post: usize = all_builts()
        .map(|b| b.route_table().num_interned_segments())
        .sum();
    drop(builts);

    let mut parallel = Vec::new();
    let mut messages = 0u64;
    let mut pending = 0usize;
    for (i, (scenario, run)) in scenarios.iter().zip(plan).enumerate() {
        if run.no_sim {
            continue;
        }
        let detailed = tr.span("runner.sweep", |_| scenario.run_sim_detailed());
        let facts = sweep_facts(&detailed, i);
        for (w, points) in detailed.iter().enumerate() {
            for point in points {
                for (rep, r) in point.runs.iter().enumerate() {
                    let wl = scenario.workloads[w].workload.with_rate(point.rate);
                    messages += tr.span("workloads.gen", |_| {
                        generate(scenario, wl.lambda_g, point.seed + rep as u64, r.generated)
                    });
                    pending = pending.max(scenario.spec.total_nodes() + r.peak_live_msgs as usize);
                }
            }
        }
        parallel.extend(facts);
    }
    let mut models = Vec::new();
    let mut saturation = Vec::new();
    for (i, scenario) in scenarios.iter().enumerate() {
        saturation.push(num(tr.span("model.saturation", |_| saturations(scenario))));
        models.extend(model_facts(scenario, i));
    }
    let backend = scenarios
        .iter()
        .zip(plan)
        .find(|(_, run)| !run.no_sim)
        .map_or(SchedulerKind::Heap, |(s, _)| s.sim.scheduler);
    let hold_ns = if pending == 0 {
        0.0
    } else {
        match backend {
            SchedulerKind::Heap => hold::<EventQueue<u32>>(pending, HOLD_OPS),
            SchedulerKind::Calendar => hold::<CalendarQueue<u32>>(pending, HOLD_OPS),
        }
    };

    print(obj(vec![
        ("threads", num(rayon::current_num_threads())),
        ("spans", tr.to_value()),
        ("model_evals", num(evals)),
        ("channels", num(channels)),
        ("route_bytes_pre", num(route_bytes_pre)),
        ("route_bytes_post", num(route_bytes_post)),
        ("segments_post", num(segments_post)),
        ("gen_messages", num(messages)),
        ("pending", num(pending)),
        ("hold_backend", num(format!("{backend:?}"))),
        ("hold_ns_per_op", num(hold_ns)),
        ("serial", Value::Arr(serial)),
        ("parallel", Value::Arr(parallel)),
        ("models", Value::Arr(models)),
        ("saturation", Value::Arr(saturation)),
    ]));
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [cmd, plan] = args.as_slice() else {
        fail("usage: cocnet-probe <info|serve|check|trace> <plan>")
    };
    let plan = read_plan(plan);
    match cmd.as_str() {
        "info" => cmd_info(&plan),
        "serve" => cmd_serve(&plan),
        "check" => cmd_check(&plan),
        "trace" => cmd_trace(&plan),
        other => fail(format!("unknown subcommand {other:?}")),
    }
}
