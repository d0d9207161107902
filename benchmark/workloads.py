"""Seeded scenario generators for the cocnet benchmark's workloads.

Each generator draws a workload's structure from the seed alone, writes the
scenario JSON files that `cocnet run` will see, and returns the workload's
*plan*: the list of `cocnet run <file> [--no-sim]` invocations. Rates are
set as fractions of the analytical model's saturation rate, which the
generator asks the probe for (`cocnet-probe info`), so the same seed and
the same program give byte-identical files.
"""

import json
import os
import random
import subprocess

# Table 2 of the paper: Net.1 carries ICN1 and ICN2, Net.2 carries ECN1.
NET1 = {"bandwidth": 500.0, "network_latency": 0.01, "switch_latency": 0.02}
NET2 = {"bandwidth": 250.0, "network_latency": 0.05, "switch_latency": 0.01}

# The message configurations of Figs. 3-6: (M flits, Lm flit bytes).
CONFIGS = [(32, 256.0), (32, 512.0), (64, 256.0), (64, 512.0)]

# Rates at or below this share of the model's saturation rate are light load.
LIGHT_LOAD = 0.5


def organization(m, heights, nets=None):
    """A system spec with one cluster per entry of `heights`; `nets` gives
    each cluster's (ICN1, ECN1) characteristics (default: the paper's)."""
    nets = nets or [(NET1, NET2)] * len(heights)
    clusters = [{"n": n, "icn1": icn1, "ecn1": ecn1} for n, (icn1, ecn1) in zip(heights, nets)]
    return {"m": m, "clusters": clusters, "icn2": NET1}


def org_544():
    """Table 1, N=544: C=16, m=4, heights 3 (x8), 4 (x3), 5 (x5)."""
    return organization(4, [3] * 8 + [4] * 3 + [5] * 5)


def org_1120():
    """Table 1, N=1120: C=32, m=8, heights 1 (x12), 2 (x16), 3 (x4)."""
    return organization(8, [1] * 12 + [2] * 16 + [3] * 4)


def entry(flits, flit_bytes):
    return {
        "label": f"M={flits} Lm={int(flit_bytes)}",
        "workload": {"lambda_g": 0.0, "msg_flits": flits, "flit_bytes": flit_bytes},
    }


def scenario(name, spec, entries, sim):
    # Placeholder rate: the generator replaces it once saturation is known.
    return {
        "name": name,
        "spec": spec,
        "workloads": entries,
        "pattern": "Uniform",
        "rates": [1e-6],
        "seeding": "PerPoint",
        "sim": sim,
    }


def population(warmup, measured, drain, rng):
    return {"warmup": warmup, "measured": measured, "drain": drain, "seed": rng.randrange(1 << 32)}


class Plan:
    """The `cocnet run` invocations of one workload and their files."""

    def __init__(self, directory):
        self.directory = directory
        self.scenarios = []

    def add(self, name, scen, no_sim):
        self.scenarios.append((os.path.join(self.directory, name + ".json"), scen, no_sim))

    def write(self):
        os.makedirs(self.directory, exist_ok=True)
        for path, scen, _ in self.scenarios:
            with open(path, "w") as f:
                json.dump(scen, f, indent=1)
                f.write("\n")
        runs = [{"file": path, "no_sim": no_sim} for path, _, no_sim in self.scenarios]
        path = os.path.join(self.directory, "plan.json")
        with open(path, "w") as f:
            json.dump({"runs": runs}, f, indent=1)
            f.write("\n")
        return path

    def info(self, probe):
        """Model saturation per workload entry, nodes and channels, per run."""
        out = subprocess.run([probe, "info", self.write()], check=True, capture_output=True, text=True)
        return json.loads(out.stdout)["runs"]


def jitter(rng, share, spread=0.02):
    return share + rng.uniform(-spread, spread)


def paper_sweep(rng, plan, probe):
    """The N=544 organisation of Figs. 5/6, one file per message
    configuration, eight rates from ~0.1 to ~0.8 of its model saturation."""
    for flits, flit_bytes in CONFIGS:
        name = f"m{flits}_l{int(flit_bytes)}"
        sim = population(2_000, 20_000, 2_000, rng)
        plan.add(name, scenario(f"N=544 {name}", org_544(), [entry(flits, flit_bytes)], sim), False)
    for (_, scen, _), info in zip(plan.scenarios, plan.info(probe)):
        sat = info["saturation"][0]
        scen["rates"] = [jitter(rng, 0.1 * k) * sat for k in range(1, 9)]


def mega_org(rng, plan, probe):
    """1024 clusters x 1024 nodes (m=16, n=3), per-cluster networks drawn
    among Table 2's, two light rates."""
    nets = [(rng.choice([NET1, NET2]), rng.choice([NET1, NET2])) for _ in range(1024)]
    spec = organization(16, [3] * 1024, nets)
    sim = population(1_000, 10_000, 1_000, rng)
    plan.add("mega", scenario("2^20 endpoints", spec, [entry(32, 256.0)], sim), False)
    sat = plan.info(probe)[0]["saturation"][0]
    plan.scenarios[0][1]["rates"] = [jitter(rng, 0.05, 0.01) * sat, jitter(rng, 0.15, 0.01) * sat]


def heterogeneous(rng, clusters, m, heights):
    """A tree spec whose clusters differ in network speed (bandwidths within
    -20%/+25% of Table 2's), so no two clusters share a model evaluation.
    Cluster heights cycle through `heights` in a shuffled order, so every
    seed gives the same mix of cluster sizes."""
    nets = []
    for _ in range(clusters):
        icn1 = dict(NET1, bandwidth=round(NET1["bandwidth"] * rng.uniform(0.8, 1.25), 1))
        ecn1 = dict(NET2, bandwidth=round(NET2["bandwidth"] * rng.uniform(0.8, 1.25), 1))
        nets.append((icn1, ecn1))
    mix = [heights[i % len(heights)] for i in range(clusters)]
    rng.shuffle(mix)
    return organization(m, mix, nets)


# Grid points per design_space spec and message configuration: 3 specs x 4
# configurations x 100 rates = 1200 evaluations, so p99 has 12 beyond it.
DESIGN_GRID = 100


def design_space(rng, plan, probe):
    """Model-only capacity planning over three heterogeneous tree specs of
    C = 2(m/2)^n = 8, 16 (m=4) and 32 (m=8) clusters, one file per spec and
    message configuration with a dense grid up to its saturation rate; then
    a light-load simulated spot check of each spec. (C=32 at m=4 would cost
    4x more per evaluation, making each pass too long to steady on a noisy
    host.)"""
    specs = [
        heterogeneous(rng, 8, 4, [2, 3, 4]),
        heterogeneous(rng, 16, 4, [2, 3, 4]),
        heterogeneous(rng, 32, 8, [1, 2, 3]),
    ]
    for spec in specs:
        c = len(spec["clusters"])
        for flits, flit_bytes in CONFIGS:
            name = f"c{c}_m{flits}_l{int(flit_bytes)}"
            plan.add(name, scenario(f"C={c} {name}", spec, [entry(flits, flit_bytes)], {}), True)
    for spec in specs:
        c = len(spec["clusters"])
        sim = population(100, 1_000, 100, rng)
        plan.add(f"c{c}_spot", scenario(f"C={c} spot check", spec, [entry(32, 256.0)], sim), False)
    for (_, scen, no_sim), info in zip(plan.scenarios, plan.info(probe)):
        sat = info["saturation"][0]
        if no_sim:
            scen["rates"] = {"stop": 0.98 * sat, "steps": DESIGN_GRID}
        else:
            scen["rates"] = [jitter(rng, 0.3) * sat]


# Length of faulted_adaptive's fail/repair pulses. Every ICN2 link gets one
# pulse of this length, so the share of retried messages is alike across
# seeds; the seed draws only their order and times.
PULSE_LENGTH = 2_000.0


def faulted_adaptive(rng, plan, probe):
    """The N=1120 organisation with adaptive routing, one timed fail/repair
    pulse on every ICN2 link in a seed-drawn order, retry/backoff, and six
    rates from ~0.2 to ~0.6 of the model saturation rate.

    The pulses fall on the ICN2, which ~97 % of uniform traffic crosses
    (C=32): on a concentrator link only retries after a timeout get a
    message through, and on a trunk link an adaptive retry may route around
    the failure. Both paths then carry a few per cent of all messages."""
    sim = population(5_000, 50_000, 5_000, rng)
    sim["adaptive_routing"] = True
    plan.add("faulted", scenario("N=1120 adaptive, link pulses", org_1120(), [entry(32, 256.0)], sim), False)
    info = plan.info(probe)[0]
    sat, nodes, channels = info["saturation"][0], info["nodes"], info["channels"]
    shares = [jitter(rng, 0.2 + 0.08 * k) for k in range(6)]
    scen = plan.scenarios[0][1]
    scen["rates"] = [share * sat for share in shares]
    # Spread the pulses over the shortest run (the highest rate), each far
    # shorter than the retry budget (19 500 time units over 8 attempts) so
    # every message is delivered.
    horizon = (sim["warmup"] + sim["measured"] + sim["drain"]) / (nodes * max(scen["rates"]))
    # Channels 2k and 2k+1 are one physical link, so a step of 2 takes
    # each link once.
    links = list(range(info["icn2_first"], channels, 2))
    rng.shuffle(links)
    events = []
    for k, link in enumerate(links):
        start = horizon * (k + rng.random()) / len(links)
        events.append({"time": start, "link": link, "action": "Fail"})
        events.append({"time": start + PULSE_LENGTH, "link": link, "action": "Repair"})
    events.sort(key=lambda e: e["time"])
    sim["faults"] = {
        "events": events,
        "max_attempts": 8,
        "retry_timeout": 500.0,
        "backoff": 2.0,
        "max_timeout": 4_000.0,
    }


GENERATORS = {
    "paper_sweep": paper_sweep,
    "mega_org": mega_org,
    "design_space": design_space,
    "faulted_adaptive": faulted_adaptive,
}


def generate(workload, seed, directory, probe):
    """Writes `workload`'s scenario files for `seed` under `directory` and
    returns the path of its plan."""
    rng = random.Random(f"{workload}/{seed}")
    plan = Plan(directory)
    GENERATORS[workload](rng, plan, probe)
    return plan.write()
