"""Seeded input generator for the four benchmark workloads.

Each workload is a list of CLI jobs built in rounds. A round holds one job
per stratum (a fixed family and size), in an order shuffled by the seed; the
seed also draws the weights, the random matrices and the query points inside
each stratum. Fixed strata keep the job-time mix the same from seed to seed,
so a run's percentiles move with the program and not with the draw. Each
round has a random stream of its own, drawn from the workload, the seed and
the round number, so round r is the same whether it is written before a run
or made during one. A run never repeats a job: it writes the first
INITIAL_JOBS jobs' rounds up front and makes further rounds as it needs them.

The generator writes instance JSON files and a manifest of argument lists
only: the program under test sees nothing but those files and strings.
Nothing here imports circover.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

DEFAULT_SEED = 1

# rounds written before a run, enough for about this many jobs
INITIAL_JOBS = 360
# The traced run takes exactly this many rounds, so its counts are exact.
TRACE_ROUNDS = 3

WHY = {
    "solve-ladder": "solve on weighted circulants, demand ladders and random circular "
                    "matrices, n 4-6: exact slice LPs dominate; separation and the "
                    "oracle stay idle",
    "separate-stream": "separate at n 50-120: violated points run full Bellman-Ford "
                       "rounds, members exit early or take the shortcut; no LP runs",
    "cut-loop": "cut-loop on circulants with k not dividing n and random matrices: a "
                "general non-TU LP grows one cut per round",
    "polyhedra": "facets, verify and minors on circulants n 8-15: circuit enumeration, "
                 "candidates, brute-force oracle and exact rank; no LP",
}

_WEIGHTS = ("1", "1/2", "3/4", "2", "5/3", "7/5", "3")
_WEIGHTS_WITH_ZERO = _WEIGHTS + ("0", "0")


def support(n: int, start: int, length: int) -> list[int]:
    """1-based columns of the circular row (start, length)."""
    return [(start - 1 + t) % n + 1 for t in range(length)]


def circulant(n: int, k: int, rng: random.Random, b: int = 1, weights=None) -> dict:
    """Circulant (n, k) with rows listed in a seeded order."""
    rows = [[i, k] for i in range(1, n + 1)]
    rng.shuffle(rows)
    doc = {"n": n, "rows": rows, "b": [b] * n}
    if weights is not None:
        doc["w"] = weights
    return doc


def random_circular(n: int, m: int, lengths: tuple[int, int], rng: random.Random) -> dict:
    """m distinct circular rows with lengths drawn from the closed range."""
    lo, hi = lengths
    if m > n * (hi - lo + 1):
        raise ValueError(f"only {n * (hi - lo + 1)} distinct rows, {m} asked for")
    seen = set()
    rows = []
    while len(rows) < m:
        row = (rng.randint(1, n), rng.randint(lo, hi))
        if row not in seen:
            seen.add(row)
            rows.append(list(row))
    return {"n": n, "rows": rows}


def _fmt(v) -> str:
    return str(Fraction(v))


def progression_cover(n: int, step: int, first: int) -> list[int]:
    """0/1 cover hitting every circular window of `step` columns.

    Columns first, first+step, ...: consecutive chosen columns are at most
    `step` apart around the circle, so each window of that length holds one.
    Every rotation has ceil(n/step) columns.
    """
    x = [0] * n
    for t in range(-(-n // step)):
        x[(first - 1 + t * step) % n] = 1
    return x


def member_point(doc: dict, rng: random.Random, fractional_sum: bool) -> list[str]:
    """A point in the integer hull by construction.

    A convex combination of rotated integer covers (scaled to the largest
    demand), plus a non-negative bump; the hull is closed upwards. Every
    cover has the same coordinate sum, so the bump alone decides whether
    the total is fractional.
    """
    n = doc["n"]
    step = min(length for _, length in doc["rows"])
    top = max(doc.get("b", [1]))
    lam = Fraction(rng.randint(1, 6), 7)
    c1 = progression_cover(n, step, rng.randint(1, n))
    c2 = progression_cover(n, step, rng.randint(1, n))
    x = [top * (lam * a + (1 - lam) * b) for a, b in zip(c1, c2)]
    if fractional_sum:
        x[rng.randrange(n)] += Fraction(rng.randint(1, 4), 5)
    else:
        i, j = rng.sample(range(n), 2)
        x[i] += Fraction(1, 2)
        x[j] += Fraction(1, 2)
    return [_fmt(v) for v in x]


# ---------------------------------------------------------------------------
# strata: (tag, maker) where maker(rng) -> (instance doc, extra args, check hints)


def _solve_strata():
    def weighted(n, k):
        def make(rng):
            w = [rng.choice(_WEIGHTS) for _ in range(n)]
            return circulant(n, k, rng, 1, w), [], {}
        return (f"wcirc-{n}-{k}", make)

    def ladder(n, k, b):
        def make(rng):
            return circulant(n, k, rng, b), [], {}
        return (f"ladder-{n}-{k}-b{b}", make)

    def rand(n, top):
        def make(rng):
            doc = random_circular(n, rng.randint(n - 1, n + 1), (2, n - 2), rng)
            doc["b"] = [rng.randint(1, top) for _ in doc["rows"]]
            doc["w"] = [rng.choice(_WEIGHTS_WITH_ZERO) for _ in range(n)]
            return doc, [], {}
        return (f"rand-{n}-b{top}", make)

    return [
        weighted(4, 2), weighted(4, 3), weighted(5, 2), weighted(5, 3),
        weighted(5, 4), weighted(6, 3),
        ladder(4, 2, 1), ladder(4, 2, 2), ladder(4, 2, 3),
        ladder(5, 2, 1), ladder(5, 2, 2),
        rand(5, 1), rand(5, 2), rand(5, 1), rand(5, 2),
    ]


def _separate_strata():
    def violated(n, k):
        # k does not divide n, so 1/k everywhere violates the rank inequality
        # sum(x) >= ceil(n/k); seeded bumps worth at most half the gap keep it
        # violated and make every query distinct
        def make(rng):
            doc = circulant(n, k, rng)
            gap = -(-n // k) - Fraction(n, k)
            point = [Fraction(1, k)] * n
            for j in rng.sample(range(n), 3):
                point[j] += gap * Fraction(rng.randint(1, 5), 30)
            point = [_fmt(v) for v in point]
            return doc, ["--point", json.dumps(point)], {"expect": "violated"}
        return (f"viol-circ-{n}-{k}", make)

    def rand_doc(n, rng):
        doc = random_circular(n, n, (3, 8), rng)
        doc["b"] = [rng.randint(1, 2) for _ in doc["rows"]]
        return doc

    def uniform(n):
        # top/g on every column meets each row of length >= g; the sum is
        # kept fractional so the query cannot shortcut
        def make(rng):
            for _ in range(100):
                doc = rand_doc(n, rng)
                g = min(length for _, length in doc["rows"])
                top = max(doc["b"])
                if (n * top) % g:
                    break
            else:
                raise ValueError(f"no fractional uniform point for n={n}")
            point = [_fmt(Fraction(top, g))] * n
            return doc, ["--point", json.dumps(point)], {"expect": "any"}
        return (f"uniform-rand-{n}", make)

    def member(n, k, fractional):
        def make(rng):
            doc = circulant(n, k, rng) if k else rand_doc(n, rng)
            point = member_point(doc, rng, fractional)
            return doc, ["--point", json.dumps(point)], {"expect": "member"}
        kind = "frac" if fractional else "int"
        return (f"member-{kind}-{'circ' if k else 'rand'}-{n}", make)

    return [
        violated(50, 7), violated(70, 8), violated(90, 7), violated(110, 9),
        uniform(61), uniform(91),
        member(60, 7, True), member(100, 9, True), member(120, 11, True),
        member(50, 0, True), member(80, 0, True), member(110, 0, True),
        member(80, 7, False), member(100, 0, False),
    ]


def _cut_loop_strata():
    def circ(n, k, weighted):
        def make(rng):
            w = [rng.choice(_WEIGHTS) for _ in range(n)] if weighted else None
            return circulant(n, k, rng, 1, w), [], {}
        return (f"circ-{n}-{k}-{'w' if weighted else 'u'}", make)

    def rand(n, top):
        def make(rng):
            doc = random_circular(n, n, (3, min(6, n - 2)), rng)
            doc["b"] = [rng.randint(1, top) for _ in doc["rows"]]
            doc["w"] = [rng.choice(_WEIGHTS) for _ in range(n)]
            return doc, [], {}
        return (f"rand-{n}", make)

    # The check also runs optimize on the n <= 8 strata. The slowest strata
    # have unit weights and stay within about 2x over row orders; the 90th
    # percentile falls inside them. Row order alone moves (16,5), (16,7) and
    # (17,5) from 0.1 s to 2-10 s, so those are left out.
    return [
        circ(8, 3, False), circ(5, 2, True),
        rand(10, 2), rand(12, 2), rand(16, 2), rand(20, 2),
        circ(11, 4, True), circ(14, 4, True), circ(15, 4, True),
        circ(17, 6, True), circ(18, 5, True),
        circ(17, 6, False), circ(19, 7, False), circ(20, 7, False),
    ]


def _polyhedra_strata():
    def pair(n, k):
        # facets and verify share one instance file: the facets check
        # compares against verify's matched count
        def make(rng):
            return circulant(n, k, rng), [], {}
        return (f"fv-{n}-{k}", make)

    def minors(n, k):
        def make(rng):
            return circulant(n, k, rng), [], {}
        return (f"minors-{n}-{k}", make)

    return [
        pair(8, 3), pair(9, 3), pair(9, 4), pair(10, 3), pair(10, 4), pair(11, 4),
        minors(12, 5), minors(13, 5), minors(14, 5), minors(15, 6),
    ]


_STRATA = {
    "solve-ladder": ("solve", _solve_strata),
    "separate-stream": ("separate", _separate_strata),
    "cut-loop": ("cut-loop", _cut_loop_strata),
    "polyhedra": (None, _polyhedra_strata),
}

WORKLOADS = tuple(_STRATA)


def make_round(workload: str, seed: int, r: int):
    """Instances and jobs of round r of one workload and seed.

    Returns (instances, jobs): instances maps a file stem to its JSON
    document; each job is a dict with its id, verb, instance stem, extra
    arguments and the metadata the answer checks need.
    """
    if workload not in _STRATA:
        raise ValueError(f"unknown workload {workload!r}")
    verb, strata_fn = _STRATA[workload]
    strata = strata_fn()
    rng = random.Random(f"{workload}:{seed}:{r}")
    instances: dict[str, dict] = {}
    jobs: list[dict] = []
    order = list(range(len(strata)))
    rng.shuffle(order)
    for s in order:
        tag, make = strata[s]
        doc, extra, meta = make(rng)
        stem = f"r{r:04d}-{s:02d}-{tag}"
        instances[stem] = doc
        verbs = [verb]
        if verb is None:
            verbs = ["minors"] if tag.startswith("minors") else ["facets", "verify"]
            rng.shuffle(verbs)
        for v in verbs:
            jobs.append({
                "id": f"{stem}-{v}",
                "verb": v,
                "instance": stem,
                "args": extra,
                "round": r,
                **meta,
            })
    return instances, jobs


def write_round(instance_dir: Path, workload: str, seed: int, r: int) -> list[dict]:
    """Write the instance files of round r; return its jobs."""
    instances, jobs = make_round(workload, seed, r)
    instance_dir.mkdir(parents=True, exist_ok=True)
    for stem, doc in instances.items():
        (instance_dir / f"{stem}.json").write_text(json.dumps(doc))
    return jobs


def write_inputs(directory: Path, workload: str, seed: int) -> Path:
    """Write the first rounds and the job manifest; return the manifest path."""
    jobs: list[dict] = []
    r = 0
    while len(jobs) < INITIAL_JOBS or r < TRACE_ROUNDS:
        jobs += write_round(directory / "instances", workload, seed, r)
        r += 1
    manifest = directory / "manifest.json"
    manifest.write_text(json.dumps({
        "workload": workload,
        "seed": seed,
        "rounds": r,
        "trace_jobs": sum(1 for j in jobs if j["round"] < TRACE_ROUNDS),
        "jobs": jobs,
    }))
    return manifest
