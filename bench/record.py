"""Record the answers the benchmark checks job outputs against.

    PYTHONPATH=src python3 bench/record.py [census] [poset] [verify] [cli]

Run it from the root of a checkout, at a commit whose outputs are trusted
(they are checked by the tier-1 tests), after changing a workload's pool.
It rewrites bench/golden/<part>.json for the parts named (all by default).
The poset part takes several minutes.
"""

from __future__ import annotations

import itertools
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from lindeg import (  # noqa: E402
    GF,
    DimVector,
    ProjectionTuple,
    classify,
    construct_singular_witness,
    degenerates_to,
    enumerate_orbits,
    flat_flags,
    representative,
    singular_point_census,
    verification,
)
from lindeg.errors import ValidationError  # noqa: E402
from workloads import (  # noqa: E402
    CLI_COMMANDS,
    GOLDEN,
    POSET_BAND,
    POSET_MS,
    POSET_N,
    ROOT,
    VERIFY_SEEDS,
    VERIFY_SUITES,
    census_candidates,
    digest,
    dim_vectors,
    poset_dot,
    table_text,
)

CLI_POOL = 40


def record_census() -> dict:
    """(total, singular) of every candidate, from its unconjugated representative."""
    out = {}
    for key, field, rs, dv in census_candidates():
        result = singular_point_census(representative(rs).matrices(field), dv)
        out[key] = [result.total, result.singular]
    return out


def record_poset() -> list:
    """Closure size and DOT digest per d of every orbit whose closure is in the band."""
    out = []
    for m in POSET_MS:
        orbits = enumerate_orbits(m, POSET_N)
        for top in orbits:
            below = [s for s in orbits if degenerates_to(top, s)]
            if not POSET_BAND[0] <= len(below) <= POSET_BAND[1]:
                continue
            dots = {
                ",".join(map(str, dv.d)): digest(poset_dot(orbits, top, dv)[0])
                for dv in dim_vectors(m, POSET_N)
            }
            out.append({"m": m, "node": top.node_id(), "closure": len(below), "dots": dots})
    return out


def record_verify() -> dict:
    """Check count of each suite at each job seed; every call must pass."""
    out = {}
    for name, fn, kwargs in VERIFY_SUITES:
        counts = []
        for seed in range(VERIFY_SEEDS):
            result = getattr(verification, fn)(seed, **kwargs)
            if not result.passed:
                raise SystemExit(f"{name} fails at seed {seed}: {result.failures[:3]}")
            counts.append(result.checks)
        out[name] = counts
    return out


def zero_sets_text(J) -> str:
    return ";".join(",".join(map(str, sorted(s))) or "-" for s in J.zero_sets)


def _spread(items: list, k: int) -> list:
    """k items evenly spaced through a list."""
    if len(items) <= k:
        return items
    return [items[i * len(items) // k] for i in range(k)]


def cli_problems() -> dict:
    """Small problems for each CLI command, so every invocation costs about the same."""
    pools = {c: [] for c in CLI_COMMANDS}
    for m in range(2, 7):
        for n in (1, 2, 3):
            if m <= 4:
                pools["orbits"].append(["orbits", f"--m={m}", f"--n={n}"])
            orbits = enumerate_orbits(m, n)
            for dv in dim_vectors(m, n):
                d = ",".join(map(str, dv.d))
                pools["strata"].append(["strata", f"--n={n}", f"--m={m}", f"--d={d}"])
                if m <= 4:
                    pools["orbits"].append(["orbits", f"--m={m}", f"--n={n}", f"--d={d}"])
                for rs in orbits:
                    pools["classify"].append(["classify", f"--m={m}", f"--d={d}", f"--ranks={table_text(rs)}"])
                    if n == 1 or not flat_flags(rs, dv).flat_irreducible:
                        continue
                    J = representative(rs)
                    problem = [f"--m={m}", f"--d={d}", f"--zero-sets={zero_sets_text(J)}"]
                    if not classify(rs, dv).smooth:
                        try:
                            construct_singular_witness(J, dv, field=GF(2))
                        except ValidationError:
                            continue
                        pools["singular"].append(["singular", *problem, "--witness"])
    # the census of every projection tuple of a flat-irreducible degeneration of
    # Fl(1,2; F_2^3), at most 49 points; sample points make the problems distinct
    dv = DimVector(3, (1, 2))
    for size in range(4):
        for killed in itertools.combinations(range(1, 4), size):
            J = ProjectionTuple(3, (frozenset(killed),))
            if flat_flags(J.rank_sequence(), dv).flat_irreducible:
                problem = ["--m=3", "--d=1,2", f"--zero-sets={zero_sets_text(J)}", "--prime=2"]
                pools["enumerate"] += [["enumerate", *problem, "--census", f"--limit={k}"] for k in range(5)]
    return {c: [argv + ["--format=json"] for argv in _spread(p, CLI_POOL)] for c, p in pools.items()}


def record_cli() -> dict:
    """The stdout digest of each problem, run as the benchmark runs it."""
    out = {}
    for command, problems in cli_problems().items():
        out[command] = []
        for argv in problems:
            proc = subprocess.run([sys.executable, "-m", "lindeg.cli", *argv], capture_output=True, cwd=ROOT)
            if proc.returncode != 0:
                raise SystemExit(f"{argv} exits {proc.returncode}: {proc.stderr.decode()}")
            out[command].append([argv, digest(proc.stdout)])
    return out


PARTS = {"census": record_census, "poset": record_poset, "verify": record_verify, "cli": record_cli}


def main() -> None:
    for part in sys.argv[1:] or PARTS:
        data = PARTS[part]()
        GOLDEN.mkdir(exist_ok=True)
        (GOLDEN / f"{part}.json").write_text(json.dumps(data, indent=0, sort_keys=True) + "\n")
        print(f"recorded {part}", file=sys.stderr)


if __name__ == "__main__":
    main()
