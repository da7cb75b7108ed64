"""Seeded scenario inputs for the four benchmark workloads.

Seed 0 is always the shipped scenario (or scenarios), unchanged. Any other
seed draws the inputs named in ``RANGES`` uniformly. For the three searches
the ranges are a few per cent around the shipped value, inside the region
where the search runs the same certificates as the shipped scenario, so a
seed changes the geometry but not the kind or amount of work. The small
batch draws from wide ranges inside each parameter's valid domain.
"""

from __future__ import annotations

import copy
import json
import math
import random
from pathlib import Path

WORKLOADS = ("isotopy-search", "corner-search", "concordance-search",
             "small-batch")

# (low, high) of every perturbed input, per workload. Never narrow a range
# to avoid a failing input: a failure is a finding, counted in the result.
RANGES = {
    # Round target radius and boundary angle, shipped (2.0, 0.795). In this
    # box exactly the first probe (nu = 0.2) fails synthesis, as on seed 0,
    # so every seed computes the same 20 certificates. Below R = 2 more
    # probes fail synthesis, which changes the work; at (1.9, 0.76) none
    # synthesizes and the search ends with exit code 3.
    "isotopy-search": {
        "R": (2.0, 2.08),
        "b1": (0.785, 0.815),
    },
    # The bisection always makes 10 probes and 22 certificates, but the
    # face forms they evaluate follow the inputs: 16.3k at delta_ratio 0.22
    # and 19.5k at 0.18, and the first ranges, [0.18, 0.22] x [0.025,
    # 0.035] x [0.20, 0.24], gave 16.9k-20.2k across seeds. In these ranges
    # twelve draws gave 17.1k-18.1k.
    "corner-search": {
        "delta_ratio": (0.195, 0.205),  # C2 window / C1 window, shipped 0.2
        "search.lo": (0.028, 0.032),  # eps bracket, shipped [0.03, 0.22]
        "search.hi": (0.215, 0.225),
    },
    # Boundary curvature allowance, shipped 0.05. The path's amplitude and
    # base stay as shipped: perturbing either by as little as 0.2% decides
    # at random (about half the time) whether the cheap t0 gate admits one
    # failing certificate pair, which doubles the work of a run.
    "concordance-search": {
        "nu": (0.045, 0.055),
    },
    "small-batch": {
        "curvature.R": (1.0, 4.0),       # round sphere radius
        "spline.eps": (0.3, 0.6),        # C1 window of the |x|-type kink
        "spline.delta": (0.05, 0.15),    # C2 windows
        "spline.slope": (0.5, 1.5),      # magnitude of each side's slope
        "triangle.r": (0.05, 0.75),      # side r in (0, pi/4)
    },
}

SHIPPED = {
    "isotopy-search": ("isotopy.json",),
    "corner-search": ("glue_corner.json",),
    "concordance-search": ("concordance_bump.json",),
    "small-batch": ("curvature_round_sphere.json", "spline_demo.json",
                    "triangle.json"),
}

# Instances of each kind in one small-batch pass; seed 0 repeats each
# shipped scenario this many times.
BATCH_PER_KIND = 8

# Percentile of the pooled instance latencies reported as the tail. It is
# fixed per workload because the pool's size is not: a 20 s small-batch run
# pools 700-1300 latencies, and a level chosen per run as the highest with
# 10 samples beyond it flipped between p99 and p95 with the number of passes
# that fit. p90 keeps 70 or more beyond and was the steadiest of p90, p95
# and p99. The searches pool fewer than 40, where p75 stands in for the tail
# because the maximum of a few samples mostly measures the slowest moment of
# the host.
TAIL_LEVEL = {
    "isotopy-search": 0.75,
    "corner-search": 0.75,
    "concordance-search": 0.75,
    "small-batch": 0.9,
}


def _load(scenarios: Path, name: str) -> dict:
    return json.loads((scenarios / name).read_text())


def _draw(rng: random.Random, workload: str, key: str) -> float:
    lo, hi = RANGES[workload][key]
    return round(rng.uniform(lo, hi), 6)


def _round_sphere(R: float) -> dict:
    def curve(kind):
        fn = {"kind": kind, "amplitude": R, "frequency": 1.0 / R,
              "phase": 0.0}
        end = 0.5 * math.pi * R
        return {"domain": [0.0, end], "kinks": [],
                "pieces": [{"lo": 0.0, "hi": end, "fn": fn}]}

    return {"command": "curvature", "m": 3, "n": 3,
            "start_kind": "closed_h", "end_kind": "closed_k",
            "k": curve("cos"), "h": curve("sin"),
            "grid": {"count": 1000, "depth": 0},
            "expect_constant": 1.0 / (R * R)}


def _spline(base: dict, eps: float, delta: float, left: float,
            right: float) -> dict:
    scenario = copy.deepcopy(base)
    scenario["eps"], scenario["delta"] = eps, delta
    pieces = scenario["curve"]["pieces"]
    pieces[0]["fn"]["coeffs"] = [0.0, -left]
    pieces[1]["fn"]["coeffs"] = [0.0, right]
    return scenario


def generate(workload: str, seed: int, scenarios: Path) -> list:
    """Instances of one pass, as ``[(label, scenario dict), ...]``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    shipped = [_load(scenarios, name) for name in SHIPPED[workload]]
    if workload == "small-batch":
        return _small_batch(seed, *shipped)
    scenario = shipped[0]
    if seed != 0:
        rng = random.Random(f"{workload}/{seed}")
        for key in RANGES[workload]:
            cursor = scenario
            *parents, leaf = key.split(".")
            for part in parents:
                cursor = cursor.setdefault(part, {})
            cursor[leaf] = _draw(rng, workload, key)
    return [(workload.split("-")[0], scenario)]


def _small_batch(seed: int, curvature: dict, spline: dict,
                 triangle: dict) -> list:
    if seed == 0:
        return [(f"{kind}-{i}", copy.deepcopy(s))
                for i in range(BATCH_PER_KIND)
                for kind, s in (("curvature", curvature), ("spline", spline),
                                ("triangle", triangle))]
    rng = random.Random(f"small-batch/{seed}")

    def draw(key):
        return _draw(rng, "small-batch", key)

    out = []
    for i in range(BATCH_PER_KIND):
        out.append((f"curvature-{i}", _round_sphere(draw("curvature.R"))))
        out.append((f"spline-{i}", _spline(
            spline, draw("spline.eps"), draw("spline.delta"),
            draw("spline.slope"), draw("spline.slope"))))
        out.append((f"triangle-{i}", {
            "command": "triangle",
            "r_values": sorted(draw("triangle.r") for _ in range(3))}))
    return out
