#!/usr/bin/env python3
"""The cocnet benchmark: end-to-end and per-layer metrics of `cocnet run`.

Run from the root of a source checkout:

    python3 benchmark/run.py --workload paper_sweep --seed 1 --seconds 15 --trace 0

It builds `cocnet` and the in-process probe (`benchmark/probe`) from source,
generates the workload's scenario files from the seed, then

* `--trace 0`: times `cocnet run <file>` as a subprocess, pass after pass,
  for `--seconds`, and prints the end-to-end metrics;
* `--trace 1`: runs the probe's serial traced replay (spans around every
  call into a layer), times an untraced `cocnet run <file> --serial`, and
  prints the per-layer metrics.

Both modes check every operation's output (see `check_ops`) and print the
run's record (digest, deterministic counts, failures) on the line before
the result, which is the last line: one JSON object with `correct`,
`attempted`, `failed` and `metrics`.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import struct
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import workloads  # noqa: E402

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "events_per_s": "1/s",
    "model_eval_us_p50": "us",
    "model_rel_err": "ratio",
}

PER_LAYER = {
    "runner.parse_s": "s",
    "runner.jobs": "count",
    "runner.sweep_s": "s",
    "runner.parallel_eff": "ratio",
    "runner.idle_s": "s",
    "runner.self_s": "s",
    "build.s": "s",
    "build.channels": "count",
    "build.route_bytes_pre": "bytes",
    "build.route_bytes_post": "bytes",
    "build.segments_post": "count",
    "workloads.gen_ns_per_msg": "ns",
    "workloads.gen_share": "ratio",
    "engine.s": "s",
    "engine.events": "count",
    "engine.msgs": "count",
    "engine.events_per_msg": "ratio",
    "engine.ns_per_event": "ns",
    "engine.peak_live_msgs": "count",
    "engine.dropped": "count",
    "engine.retransmits": "count",
    "engine.unreachable": "count",
    "engine.delivered_frac": "ratio",
    "engine.retry_frac": "ratio",
    "events.hold_ns_per_op": "ns",
    "events.pending": "count",
    "stats.summarize_s": "s",
    "model.evals": "count",
    "model.evals_per_s": "1/s",
    "model.eval_us_p99": "us",
    "model.s": "s",
    "model.saturation_s": "s",
    "model.err_intra": "ratio",
    "model.err_inter": "ratio",
    "report.s": "s",
    "trace.total_s": "s",
    "trace.overhead_s": "s",
}

# Model bursts after every timed pass last at least this share of the pass.
MODEL_SHARE = 0.25
# Timed passes of a run never fall below this.
MIN_PASSES = 3


def log(msg):
    print(f"[bench] {msg}", file=sys.stderr, flush=True)


def build(root):
    """Builds `cocnet` and the probe in release mode; returns their paths."""
    target = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    probe_manifest = os.path.join(os.path.relpath(HERE, root), "probe", "Cargo.toml")
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q", "-p", "cocnet", "--bin", "cocnet"],
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", probe_manifest],
    ):
        subprocess.run(cmd, cwd=root, env=env, check=True, stdout=sys.stderr)
    release = os.path.join(target, "release")
    return os.path.join(release, "cocnet"), os.path.join(release, "cocnet-probe")


def probe_call(probe, *args):
    out = subprocess.run([probe, *map(str, args)], check=True, capture_output=True, text=True)
    return json.loads(out.stdout)


def timed(args):
    """Runs one `cocnet` invocation; returns wall s, CPU s, peak RSS MB,
    exit code and stdout."""
    start = time.perf_counter()
    proc = subprocess.Popen(args, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    stdout = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode, stdout


class Session:
    """A `cocnet-probe serve` process: set-up and model-latency bursts on
    request, interleaved with the timed `cocnet run` passes."""

    def __init__(self, probe, plan):
        self.proc = subprocess.Popen(
            [probe, "serve", plan], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        # Set-up times, pooled; model-call latencies, one list per burst,
        # and the calls of one pass over the model grid.
        self.setup, self.model, self.grid = [], [], None

    def burst(self, what):
        self.proc.stdin.write(what + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"cocnet-probe serve exited with {self.proc.wait()}")
        reply = json.loads(line)
        if what == "setup":
            self.setup.extend(reply["samples"])
        else:
            self.model.append(reply["samples"])
            self.grid = reply["grid"]

    def close(self):
        self.proc.stdin.close()
        if self.proc.wait() != 0:
            raise RuntimeError(f"cocnet-probe serve exited with {self.proc.returncode}")


def run_pass(cocnet, runs, extra):
    """`cocnet run` over every file of the plan: per invocation its wall s,
    CPU s and peak RSS MB, and its (exit code, stdout)."""
    timings, outputs = [], []
    for run in runs:
        args = [cocnet, "run", run["file"], "--out", "json", *extra]
        if run["no_sim"]:
            args.append("--no-sim")
        wall, cpu, rss, code, stdout = timed(args)
        timings.append((wall, cpu, rss))
        outputs.append((code, stdout))
    return {"wall": sum(t[0] for t in timings), "timings": timings, "outputs": outputs}


# ---- output checks -------------------------------------------------------------


def cli_points(stdout):
    """`cocnet run --out json` output as {(series label, rate): latency}."""
    try:
        series = json.loads(stdout)
    except ValueError:
        return None
    return {(s["label"], p["x"]): p["y"] for s in series for p in s["points"]}


def finite(x):
    return isinstance(x, float) and x == x and abs(x) != float("inf")


def sim_faults(fact, measured):
    """Why one simulated point fails, from the engine's own accounting."""
    reasons = []
    if fact["stop"] == "EventCap":
        reasons.append("event_cap")
    accounted = fact["delivered_total"] + fact["unreachable"]
    # A run that stops once its measured population is delivered leaves
    # later messages in flight, so equality holds only for drained runs.
    drained = fact["stop"] == "Drained"
    if accounted > fact["generated"] or (drained and accounted != fact["generated"]):
        reasons.append("conservation")
    if not fact["completed"] or fact["delivered_recorded"] != measured:
        reasons.append("incomplete")
    if not finite(fact["mean"]):
        reasons.append("non_finite")
    return reasons


def model_faults(fact, saturation):
    if "latency" in fact:
        return [] if finite(fact["latency"]) else ["non_finite"]
    if saturation is not None and fact["rate"] <= saturation:
        return ["no_model_point"]
    return []


def check_ops(scenarios, facts, outputs):
    """Checks every operation of one pass — a simulated point or a model
    evaluation — against the engine's accounting, and the CLI's printed
    series against the probe's facts bit for bit. Returns the number of
    operations and the failures as (operation, reason)."""
    failures = []
    ops = 0
    points = [cli_points(stdout) if code == 0 else None for code, stdout in outputs]
    for fact in facts["sims"]:
        ops += 1
        run, scen = fact["run"], scenarios[fact["run"]]
        op = f"sim run={run} w={fact['workload']} p={fact['point']}"
        reasons = sim_faults(fact, scen["sim"]["measured"])
        label = "Simulation (" + scen["workloads"][fact["workload"]]["label"] + ")"
        if outputs[run][0] != 0:
            reasons.append(f"exit_{outputs[run][0]}")
        elif points[run] is None or points[run].get((label, fact["rate"])) != fact["mean"]:
            reasons.append("cli_mismatch")
        failures += [(op, r) for r in reasons]
    for fact in facts["models"]:
        ops += 1
        run, scen = fact["run"], scenarios[fact["run"]]
        op = f"model run={run} w={fact['workload']} p={fact['point']}"
        reasons = model_faults(fact, facts["saturation"][run][fact["workload"]])
        label = "Analysis (" + scen["workloads"][fact["workload"]]["label"] + ")"
        if outputs[run][0] != 0:
            reasons.append(f"exit_{outputs[run][0]}")
        elif points[run] is None or points[run].get((label, fact["rate"])) != fact.get("latency"):
            reasons.append("cli_mismatch")
        failures += [(op, r) for r in reasons]
    return ops, failures


def bits(x):
    return struct.pack(">d", x).hex() if isinstance(x, float) else str(x)


def digest(sims):
    """Digest of the simulated statistics: every point's mean latency bits,
    events, generated and delivered. Equal digests mean bit-identical runs."""
    h = hashlib.sha256()
    for f in sims:
        h.update(
            f"{f['run']} {f['workload']} {f['point']} {f['seed']} {f['mean_bits']} "
            f"{f['events']} {f['generated']} {f['delivered_total']}\n".encode()
        )
    return h.hexdigest()[:32]


def model_digest(models):
    h = hashlib.sha256()
    for f in models:
        h.update(f"{f['run']} {f['workload']} {f['point']} {bits(f.get('latency'))}\n".encode())
    return h.hexdigest()[:32]


def model_errors(facts):
    """Mean |model - sim| / sim over light-load points (rate at most
    LIGHT_LOAD of the model's saturation rate): overall, intra- and
    inter-cluster."""
    model = {(f["run"], f["workload"], f["point"]): f for f in facts["models"]}
    errs = {"all": [], "intra": [], "inter": []}
    for s in facts["sims"]:
        m = model.get((s["run"], s["workload"], s["point"]))
        sat = facts["saturation"][s["run"]][s["workload"]] if m else None
        if m is None or "latency" not in m or sat is None or s["rate"] > workloads.LIGHT_LOAD * sat:
            continue
        errs["all"].append(abs(m["latency"] - s["mean"]) / s["mean"])
        if s["intra_count"]:
            errs["intra"].append(abs(m["intra"] - s["intra_mean"]) / s["intra_mean"])
        if s["inter_count"]:
            errs["inter"].append(abs(m["inter"] - s["inter_mean"]) / s["inter_mean"])
    return {k: statistics.fmean(v) if v else None for k, v in errs.items()}


# ---- the two modes -----------------------------------------------------------


def percentile(sorted_samples, q):
    """Nearest-rank percentile."""
    return sorted_samples[max(1, math.ceil(q * len(sorted_samples))) - 1]


def burst_stats(session):
    """Per model burst: calls and median call latency."""
    return [{"calls": len(b), "p50": percentile(b, 0.5)} for b in map(sorted, session.model)]


def grid_p50(session):
    """Median over the model grid's points of each point's fastest call of
    the run. A burst is whole passes over the grid's sampled points (at most
    128, see `cocnet-probe serve`), so call `i` of a burst evaluates point
    `i % grid`."""
    fastest = [math.inf] * session.grid
    for burst in session.model:
        for i, us in enumerate(burst):
            fastest[i % session.grid] = min(fastest[i % session.grid], us)
    return statistics.median(fastest)


def end_to_end(cocnet, probe, plan, runs, seconds):
    """Timed passes of `cocnet run` for `seconds`, each followed by model-
    latency bursts and a set-up burst of the probe session, then the
    untraced check replay."""
    session = Session(probe, plan)
    passes = []
    start = time.perf_counter()
    try:
        while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
            passes.append(run_pass(cocnet, runs, []))
            burst_start = time.perf_counter()
            session.burst("model")
            while time.perf_counter() - burst_start < MODEL_SHARE * passes[-1]["wall"]:
                session.burst("model")
            session.burst("setup")
    finally:
        session.close()
    log(f"{len(passes)} timed passes in {time.perf_counter() - start:.1f} s")
    facts = probe_call(probe, "check", plan)
    # Neighbours on the shared host slow single-threaded work by up to half,
    # in spells from a fraction of a second to minutes. Each invocation
    # counts with its median pass: the fastest pass is the one that happened
    # to dodge the most spells, which varies far more from run to run. Model
    # calls are microseconds long and every grid point is called hundreds
    # of times or more, so each point counts with its fastest call, which
    # lands in a quiet moment. Set-up counts with its fastest repetition
    # the same way: hundreds of millisecond repetitions per run, except on
    # mega_org (6-9 of half a second).
    per_invocation = list(zip(*(p["timings"] for p in passes)))
    wall = sum(statistics.median(t[0] for t in inv) for inv in per_invocation)
    bursts = burst_stats(session)
    errors = model_errors(facts)
    metrics = {
        "wall_s": wall,
        "cpu_s": sum(statistics.median(t[1] for t in inv) for inv in per_invocation),
        "setup_s": min(session.setup),
        "peak_rss_mb": statistics.median(max(t[2] for t in p["timings"]) for p in passes),
        "events_per_s": sum(f["events"] for f in facts["sims"]) / wall,
        "model_eval_us_p50": grid_p50(session),
        "model_rel_err": errors["all"],
    }
    record = {
        "passes": len(passes),
        "timings": [p["timings"] for p in passes],
        "setup_reps": len(session.setup),
        "model_bursts": bursts,
        "model_errors": errors,
        "counts": {
            "jobs": len(facts["sims"]),
            "events": sum(f["events"] for f in facts["sims"]),
            "msgs": sum(f["generated"] for f in facts["sims"]),
            "model_evals": len(facts["models"]),
        },
    }
    return metrics, facts, passes, record


def self_times(spans):
    """Self time per span name: each span's duration minus its children's."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    out = {}
    for s, c in zip(spans, child):
        out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"]) - c
    return out


def per_layer(cocnet, probe, plan, runs, seconds):
    start = time.perf_counter()
    trace = probe_call(probe, "trace", plan)
    # One timed call per model grid point.
    calls = sorted(f["us"] for f in trace["models"])
    passes = [run_pass(cocnet, runs, ["--serial"])]
    while time.perf_counter() - start < seconds:
        passes.append(run_pass(cocnet, runs, ["--serial"]))
    spans = trace["spans"]
    own = self_times(spans)
    total = sum(s["end"] - s["start"] for s in spans if s["name"] == "runner.replay")
    engine_spans = [s["end"] - s["start"] for s in spans if s["name"] == "engine"]
    engine = sum(engine_spans)
    sweep = own.get("runner.sweep", 0.0)
    threads = trace["threads"]
    sims = trace["parallel"]
    events = sum(f["events"] for f in sims)
    msgs = sum(f["generated"] for f in sims)
    facts = {"sims": sims, "models": trace["models"], "saturation": trace["saturation"]}
    errors = model_errors(facts)
    metrics = {
        "runner.parse_s": own.get("runner.parse", 0.0),
        "runner.jobs": len(engine_spans),
        "runner.sweep_s": sweep,
        "runner.parallel_eff": engine / (threads * sweep) if sweep else 0.0,
        "runner.idle_s": threads * sweep - engine if sweep else 0.0,
        "runner.self_s": own.get("runner.replay", 0.0),
        "build.s": own.get("build", 0.0),
        "build.channels": trace["channels"],
        "build.route_bytes_pre": trace["route_bytes_pre"],
        "build.route_bytes_post": trace["route_bytes_post"],
        "build.segments_post": trace["segments_post"],
        "workloads.gen_ns_per_msg": own.get("workloads.gen", 0.0) * 1e9 / trace["gen_messages"]
        if trace["gen_messages"]
        else 0.0,
        "workloads.gen_share": own.get("workloads.gen", 0.0) / engine if engine else 0.0,
        "engine.s": engine,
        "engine.events": events,
        "engine.msgs": msgs,
        "engine.events_per_msg": events / msgs if msgs else 0.0,
        "engine.ns_per_event": engine * 1e9 / events if events else 0.0,
        "engine.peak_live_msgs": max((f["peak_live_msgs"] for f in sims), default=0),
        "engine.dropped": sum(f["dropped"] for f in sims),
        "engine.retransmits": sum(f["retransmits"] for f in sims),
        "engine.unreachable": sum(f["unreachable"] for f in sims),
        "engine.delivered_frac": sum(f["delivered_total"] for f in sims) / msgs if msgs else 1.0,
        "engine.retry_frac": sum(f["retransmits"] for f in sims) / msgs if msgs else 0.0,
        "events.hold_ns_per_op": trace["hold_ns_per_op"],
        "events.pending": trace["pending"],
        "stats.summarize_s": own.get("stats", 0.0),
        "model.evals": trace["model_evals"],
        "model.evals_per_s": 1e6 * len(calls) / sum(calls),
        "model.eval_us_p99": percentile(calls, 0.99),
        "model.s": own.get("model", 0.0),
        "model.saturation_s": own.get("model.saturation", 0.0),
        "model.err_intra": errors["intra"],
        "model.err_inter": errors["inter"],
        "report.s": own.get("report", 0.0),
        "trace.total_s": total,
        "trace.overhead_s": total - statistics.median(p["wall"] for p in passes),
    }
    shares = {
        name: own[name] / total
        for name in ("runner.replay", "runner.parse", "model", "build", "engine", "stats", "report")
        if name in own
    }
    record = {
        "threads": threads,
        "serial_passes": len(passes),
        "serial_digest": digest(trace["serial"]),
        "hold_backend": trace["hold_backend"],
        "self_share_of_total": shares,
        "spans": len(spans),
    }
    return metrics, facts, passes, record


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    start = time.perf_counter()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "crates", "core", "Cargo.toml")):
        sys.exit("benchmark/run.py runs from the root of a cocnet source checkout")
    threads = max(1, min(len(os.sched_getaffinity(0)), 2))
    os.environ["RAYON_NUM_THREADS"] = str(threads)
    log(f"building (RAYON_NUM_THREADS={threads})")
    cocnet, probe = build(root)

    work = os.path.join(root, ".bench_runs", f"{args.workload}-{args.seed}-t{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    plan = workloads.generate(args.workload, args.seed, work, probe)
    with open(plan) as f:
        runs = json.load(f)["runs"]
    scenarios = []
    for run in runs:
        with open(run["file"]) as f:
            scenarios.append(json.load(f))
    log(f"{args.workload} seed {args.seed}: {len(runs)} scenario file(s) in {work}, "
        f"generated in {time.perf_counter() - start:.1f} s")

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "threads": threads}
    measure, units = (end_to_end, END_TO_END) if args.trace == 0 else (per_layer, PER_LAYER)
    metrics, facts, passes, extra = measure(cocnet, probe, plan, runs, args.seconds)
    record.update(extra)

    attempted = failed = 0
    failures = []
    for p in passes:
        ops, fails = check_ops(scenarios, facts, p["outputs"])
        attempted += ops
        failed += len({op for op, _ in fails})
        failures += fails
    record["digest"] = digest(facts["sims"])
    record["model_digest"] = model_digest(facts["models"])
    record["failures"] = sorted({f"{op}: {reason}" for op, reason in failures})[:20]
    correct = failed == 0 and all(v is not None for v in metrics.values())
    # The serial replay and the untraced parallel sweep must agree bit for
    # bit: the runner's serial == parallel guarantee, seen from outside.
    if args.trace == 1 and record["serial_digest"] != record["digest"]:
        record["failures"].append("serial replay digest differs from the parallel sweep")
        correct = False

    os.makedirs(os.path.join(root, ".bench_runs", "records"), exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(root, ".bench_runs", "records", name), "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps({"record": record}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )


if __name__ == "__main__":
    main()
