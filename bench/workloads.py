"""The four seeded workloads of the lindeg benchmark.

A workload turns a seed into an endless sequence of rounds.  A round is a
list of jobs with the same mix in every round, so every run weighs the kinds
of job alike and the latency percentiles do not move with the seed.  A job is
timed around ``run`` alone; ``check`` compares its output with the answers
that ``record.py`` wrote to ``golden/``.

Only public names of ``lindeg`` are called, in process, except by ``Cli``,
which starts one ``python -m lindeg.cli`` subprocess per job.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import subprocess
import sys
from pathlib import Path

from lindeg import (
    GF,
    DimVector,
    Matrix,
    RepMatrices,
    classify,
    degenerates_to,
    dimension,
    enumerate_orbits,
    flat_flags,
    gaussian_binomial,
    hasse_dot,
    is_irreducible,
    is_smooth,
    representative,
    singular_point_census,
    verification,
)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
GOLDEN = BENCH / "golden"


def load_golden(name: str):
    return json.loads((GOLDEN / f"{name}.json").read_text())


def digest(data: str | bytes) -> str:
    """Short content hash used for the recorded answers."""
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()[:16]


def dim_vectors(m: int, n: int):
    for d in itertools.combinations(range(1, m), n):
        yield DimVector(m, d)


def table_text(rs) -> str:
    return ";".join(",".join(str(x) for x in row) for row in rs.table.rows)


class Stream:
    """Items of a list in seeded shuffled order, reshuffled when used up.

    Drawing from a stream rather than with replacement keeps the inputs of
    the jobs in a run distinct while the list lasts.
    """

    def __init__(self, items, rng: random.Random):
        self.items = list(items)
        self.rng = rng
        self.queue: list = []

    def next(self):
        if not self.queue:
            self.queue = self.items[:]
            self.rng.shuffle(self.queue)
        return self.queue.pop()


class Workload:
    name = ""
    tracer = None  # set on a traced run; only Cli needs it, for its child processes
    # a job runs in this process, so the in-process kernel scales its time
    # (see hostspeed.py); a job that starts a fresh process is scaled by run.py
    in_process = True

    def __init__(self, seed: int):
        self.rng = random.Random(f"{self.name}:{seed}")

    def warmup_job(self):
        """One job for the warm-up before timing; drawn like the others."""
        raise NotImplementedError

    def round(self) -> list:
        raise NotImplementedError

    def run(self, job):
        raise NotImplementedError

    def check(self, job, out) -> bool:
        raise NotImplementedError

    def items(self, job, out) -> int:
        """Work items the job did: census points, poset orbits, checks, calls."""
        raise NotImplementedError

    def key(self, job):
        """The job's inputs in comparable form (for the determinism tests)."""
        raise NotImplementedError

    def output(self, out) -> str:
        """A digest of the job's output (for the traced-vs-untraced test)."""
        raise NotImplementedError


# ------------------------------------------------------------------ census

CENSUS_PRIMES = (2, 3)
CENSUS_MAX_M = 5
CENSUS_MAX_N = 3
CENSUS_SEARCH_BOUND = 3000
CENSUS_BAND = (50, 1000)


def census_key(p: int, rs, dv) -> str:
    return f"{p}|{dv.m}|{','.join(map(str, dv.d))}|{table_text(rs)}"


def census_candidates():
    """Flat-irreducible varieties with m <= 5, n <= 3 and a small search space.

    Yields (key, field, rank sequence, dimension vector); the search space is
    the product of the per-vertex Grassmannian sizes that enumeration walks.
    """
    for m in range(2, CENSUS_MAX_M + 1):
        for n in range(2, CENSUS_MAX_N + 1):
            orbits = enumerate_orbits(m, n)
            for dv in dim_vectors(m, n):
                for p in CENSUS_PRIMES:
                    bound = 1
                    for x in dv.d:
                        bound *= gaussian_binomial(m, x, p)
                    if bound > CENSUS_SEARCH_BOUND:
                        continue
                    for rs in orbits:
                        if is_irreducible(rs, dv) and flat_flags(rs, dv).flat_irreducible:
                            yield census_key(p, rs, dv), GF(p), rs, dv


def _invertible_pair(rng: random.Random, p: int, m: int) -> tuple[list, list]:
    """A random invertible m x m matrix over F_p and its inverse (Gauss-Jordan)."""
    while True:
        g = [[rng.randrange(p) for _ in range(m)] for _ in range(m)]
        aug = [row[:] + [int(i == j) for j in range(m)] for i, row in enumerate(g)]
        for c in range(m):
            piv = next((r for r in range(c, m) if aug[r][c]), None)
            if piv is None:
                break
            aug[c], aug[piv] = aug[piv], aug[c]
            inv = pow(aug[c][c], -1, p)
            aug[c] = [x * inv % p for x in aug[c]]
            for r in range(m):
                if r != c and aug[r][c]:
                    f = aug[r][c]
                    aug[r] = [(x - f * y) % p for x, y in zip(aug[r], aug[c])]
        else:
            return g, [row[m:] for row in aug]


def _mul(a: list, b: list, p: int) -> list:
    return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in a]


class Census(Workload):
    """singular_point_census of one variety per job, under a random base change.

    A round holds every variety of the pool once, so the per-job latency
    distribution is the same in every run; percentiles are order statistics
    of whole rounds.
    """

    name = "census"

    def __init__(self, seed: int, answers: dict | None = None):
        super().__init__(seed)
        self.answers = load_golden("census") if answers is None else answers
        self.pool = []
        for key, field, rs, dv in census_candidates():
            total = self.answers[key][0]
            # a base change fixes a zero map, so such a job would repeat its input
            if CENSUS_BAND[0] <= total <= CENSUS_BAND[1] and 0 not in rs.edge_ranks():
                base = representative(rs).matrices(field)
                self.pool.append((key, rs, dv, base))
        self.smallest = min(self.pool, key=lambda e: self.answers[e[0]][0])

    def _job(self, entry):
        key, rs, dv, base = entry
        p = base.field.characteristic
        gs = [_invertible_pair(self.rng, p, dv.m) for _ in range(dv.n)]
        maps = []
        for i, f in enumerate(base.maps):
            rows = _mul(_mul(gs[i + 1][0], [list(r) for r in f.entries], p), gs[i][1], p)
            maps.append(Matrix.from_rows(base.field, rows, ncols=dv.m))
        return entry, RepMatrices(base.field, base.dims, tuple(maps))

    def warmup_job(self):
        return self._job(self.smallest)

    def round(self):
        entries = self.pool[:]
        self.rng.shuffle(entries)
        return [self._job(e) for e in entries]

    def run(self, job):
        (_, _, dv, _), rep = job
        return singular_point_census(rep, dv)

    def check(self, job, out) -> bool:
        (key, rs, dv, _), _ = job
        if [out.total, out.singular] != self.answers[key]:
            return False
        return (out.singular == 0) == classify(rs, dv).smooth

    def items(self, job, out) -> int:
        return out.total

    def key(self, job):
        (key, _, _, _), rep = job
        return key, tuple(f.entries for f in rep.maps)

    def output(self, out) -> str:
        return f"{out.total},{out.singular}"


# ------------------------------------------------------------------- poset

POSET_MS = (5, 6)
POSET_N = 4
POSET_BAND = (120, 240)
POSET_STRATA = 16


def poset_label(rs, dv) -> str:
    flags = flat_flags(rs, dv)
    parts = []
    if is_smooth(rs, dv):
        parts.append("smooth")
    if flags.flat:
        parts.append("flat-irr" if flags.flat_irreducible else "flat")
        parts.append(f"dim={dimension(rs, dv)}")
    return ",".join(parts)


def poset_dot(orbits, top, dv) -> tuple[str, int]:
    """The annotated Hasse diagram of the closure of ``top`` and its size."""
    below = [s for s in orbits if degenerates_to(top, s)]
    return hasse_dot(below, annotate=lambda s: poset_label(s, dv)), len(below)


class Poset(Workload):
    """The degeneration poset below one orbit per job, annotated for a drawn d.

    The pool is every (orbit, d) whose closure size lies in POSET_BAND; it is
    cut into POSET_STRATA strata of equal count by closure size and a round
    draws one job from each, because the cost grows as the cube of the size.
    """

    name = "poset"

    def __init__(self, seed: int, answers: list | None = None):
        super().__init__(seed)
        answers = load_golden("poset") if answers is None else answers
        self.orbits = {m: enumerate_orbits(m, POSET_N) for m in POSET_MS}
        self.nodes = {m: {rs.node_id(): rs for rs in self.orbits[m]} for m in POSET_MS}
        self.answers = {}
        pool = []
        for entry in answers:
            m = entry["m"]
            top = self.nodes[m][entry["node"]]
            for d, dot in entry["dots"].items():
                dv = DimVector(m, tuple(int(x) for x in d.split(",")))
                self.answers[(m, entry["node"], dv.d)] = dot
                pool.append((entry["closure"], m, top, dv))
        pool.sort(key=lambda e: (e[0], e[1], e[2].node_id(), e[3].d))
        size = len(pool) / POSET_STRATA
        self.strata = [
            Stream(pool[round(i * size) : round((i + 1) * size)], self.rng)
            for i in range(POSET_STRATA)
        ]

    def warmup_job(self):
        return self.strata[0].next()[1:]

    def round(self):
        jobs = [s.next()[1:] for s in self.strata]
        self.rng.shuffle(jobs)
        return jobs

    def run(self, job):
        m, top, dv = job
        return poset_dot(self.orbits[m], top, dv)

    def check(self, job, out) -> bool:
        m, top, dv = job
        dot, _ = out
        if digest(dot) != self.answers[(m, top.node_id(), dv.d)]:
            return False
        nodes = self.nodes[m]
        for line in dot.splitlines():
            if " -> " in line:
                src, dst = (part.strip(' ";') for part in line.split(" -> "))
                if src == dst or not degenerates_to(nodes[src], nodes[dst]):
                    return False
        return True

    def items(self, job, out) -> int:
        return out[1]

    def key(self, job):
        m, top, dv = job
        return m, top.node_id(), dv.d

    def output(self, out) -> str:
        return digest(out[0])


# ------------------------------------------------------------------ verify

VERIFY_SUITES = (
    ("exthom", "suite_exthom", {"pairs": 80}),
    ("rank-composition", "suite_rank_composition", {"cases": 80}),
    ("roundtrips", "suite_roundtrips", {}),
)
VERIFY_SEEDS = 600


class Verify(Workload):
    """One verification suite call per job, rotating over three suites.

    The suite sizes are chosen so the three cost about the same, which keeps
    the latency distribution free of a gap near p90.
    """

    name = "verify"

    def __init__(self, seed: int, answers: dict | None = None):
        super().__init__(seed)
        self.answers = load_golden("verify") if answers is None else answers
        self.seeds = {name: Stream(range(VERIFY_SEEDS), self.rng) for name, _, _ in VERIFY_SUITES}

    def warmup_job(self):
        name, fn, kwargs = VERIFY_SUITES[0]
        return name, fn, kwargs, self.seeds[name].next()

    def round(self):
        jobs = [(name, fn, kw, self.seeds[name].next()) for name, fn, kw in VERIFY_SUITES]
        self.rng.shuffle(jobs)
        return jobs

    def run(self, job):
        _, fn, kwargs, seed = job
        # looked up at call time so a traced run sees the wrapped suite
        return getattr(verification, fn)(seed, **kwargs)

    def check(self, job, out) -> bool:
        name, _, _, seed = job
        return out.passed and out.checks == self.answers[name][seed]

    def items(self, job, out) -> int:
        return out.checks

    def key(self, job):
        return job[0], job[3]

    def output(self, out) -> str:
        return f"{out.name},{out.passed},{out.checks}"


# --------------------------------------------------------------------- cli

CLI_COMMANDS = ("classify", "orbits", "enumerate", "singular", "strata")


class Cli(Workload):
    """One fresh ``python -m lindeg.cli ... --format json`` process per job.

    A round runs each command once; every problem is small, so all five cost
    about the same and the time is start-up and import.  When ``tracer`` is
    set, each process runs the CLI under the tracer instead and hands back its
    per-layer records on stderr.
    """

    name = "cli-cold"
    in_process = False

    def __init__(self, seed: int, answers: dict | None = None):
        super().__init__(seed)
        self.answers = load_golden("cli") if answers is None else answers
        self.problems = {c: Stream(self.answers[c], self.rng) for c in CLI_COMMANDS}

    def warmup_job(self):
        return tuple(self.problems[CLI_COMMANDS[0]].next())

    def round(self):
        jobs = [tuple(self.problems[c].next()) for c in CLI_COMMANDS]
        self.rng.shuffle(jobs)
        return jobs

    def run(self, job):
        argv, _ = job
        if self.tracer is None:
            cmd = [sys.executable, "-m", "lindeg.cli", *argv]
        else:
            cmd = [sys.executable, "-c", self.tracer.cli_shim(), *argv]
        # the environment puts the checkout's src/ on PYTHONPATH (see run.py)
        proc = subprocess.run(cmd, capture_output=True, cwd=ROOT, timeout=120)
        if self.tracer is not None:
            self.tracer.merge_child(proc.stderr)
        return proc.returncode, proc.stdout

    def check(self, job, out) -> bool:
        code, stdout = out
        return code == 0 and digest(stdout) == job[1]

    def items(self, job, out) -> int:
        return 1

    def key(self, job):
        return tuple(job[0])

    def output(self, out) -> str:
        return f"{out[0]},{digest(out[1])}"


WORKLOADS = {w.name: w for w in (Census, Poset, Verify, Cli)}
