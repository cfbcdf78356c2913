"""Per-layer tracing of lindeg from outside the package.

``Tracer.install`` replaces each traced public function with a wrapper in
every module that binds it (on the class, for methods), and
``uninstall`` puts the originals back.  A timed wrapper records calls, total
time and self time, where self time is the total minus the time spent in
timed calls made from inside it.  Counted wrappers only count calls and
generator wrappers count the items yielded, which keeps the cost low on the
functions called millions of times.  Records stay in memory until the run
ends.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from types import ModuleType

TIMED, COUNTED, YIELDED = "timed", "counted", "yielded"

# (layer, module, attribute path, kind).  A counted or yielded layer is named
# after its one metric; a timed layer gives <layer>.calls, .total_ms, .self_ms.
TRACED = (
    ("linalg.rref", "lindeg.linalg", "rref", TIMED),
    ("linalg.compose", "lindeg.linalg", "compose", TIMED),
    ("linalg.map_subspace", "lindeg.linalg", "map_subspace", TIMED),
    ("linalg.span", "lindeg.linalg", "span", TIMED),
    ("linalg.Field.coerce.calls", "lindeg.linalg", "Field.coerce", COUNTED),
    ("linalg.intertwiner_space_dim", "lindeg.linalg", "intertwiner_space_dim", TIMED),
    ("representations.restrict_rep", "lindeg.representations", "restrict_rep", TIMED),
    ("representations.quotient_rep", "lindeg.representations", "quotient_rep", TIMED),
    ("representations.rank_profile", "lindeg.representations", "rank_profile", TIMED),
    ("representations.decompose_from_ranks", "lindeg.representations", "decompose_from_ranks", TIMED),
    ("enumeration.analyze_point", "lindeg.enumeration", "analyze_point", TIMED),
    ("enumeration.subspaces_iter.yielded", "lindeg.enumeration", "subspaces_iter", YIELDED),
    ("enumeration.enumerate_subreps.points", "lindeg.enumeration", "enumerate_subreps", YIELDED),
    ("orbits.hasse_dot", "lindeg.orbits", "hasse_dot", TIMED),
    ("orbits.RankSequence.leq.calls", "lindeg.orbits", "RankSequence.leq", COUNTED),
    ("orbits.enumerate_orbits", "lindeg.orbits", "enumerate_orbits", TIMED),
    ("orbits.representative", "lindeg.orbits", "representative", TIMED),
    ("classifier.flat_flags", "lindeg.classifier", "flat_flags", TIMED),
    ("classifier.is_smooth", "lindeg.classifier", "is_smooth", TIMED),
    ("classifier.dimension", "lindeg.classifier", "dimension", TIMED),
    ("verification.exthom", "lindeg.verification", "suite_exthom", TIMED),
    ("verification.rank_composition", "lindeg.verification", "suite_rank_composition", TIMED),
    ("verification.roundtrips", "lindeg.verification", "suite_roundtrips", TIMED),
)
SUITES = ("verification.exthom", "verification.rank_composition", "verification.roundtrips")

# a count read off the result of a timed layer: covers from the DOT edges,
# checks from the SuiteResult
EXTRA = {
    "orbits.hasse_dot": lambda dot: dot.count('" -> "'),
    **{suite: (lambda result: result.checks) for suite in SUITES},
}


class Tracer:
    def __init__(self) -> None:
        self.records = {
            name: {"calls": 0, "total": 0.0, "self": 0.0, "extra": 0} for name, *_ in TRACED
        }
        self.active = True
        self._stack: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ wrappers

    def _timed(self, name, orig):
        rec = self.records[name]
        stack = self._stack
        perf = time.perf_counter
        extra = EXTRA.get(name)

        def wrapper(*args, **kwargs):
            if not self.active:
                return orig(*args, **kwargs)
            stack.append(0.0)
            t0 = perf()
            try:
                out = orig(*args, **kwargs)
            finally:
                dt = perf() - t0
                inner = stack.pop()
                rec["calls"] += 1
                rec["total"] += dt
                rec["self"] += dt - inner
                if stack:
                    stack[-1] += dt
            if extra is not None:
                rec["extra"] += extra(out)
            return out

        return wrapper

    def _counted(self, name, orig):
        rec = self.records[name]

        def wrapper(*args, **kwargs):
            if self.active:
                rec["calls"] += 1
            return orig(*args, **kwargs)

        return wrapper

    def _yielded(self, name, orig):
        rec = self.records[name]

        def counting(gen):
            for item in gen:
                rec["calls"] += 1
                yield item

        def wrapper(*args, **kwargs):
            gen = orig(*args, **kwargs)
            return counting(gen) if self.active else gen

        return wrapper

    # ------------------------------------------------------ install/remove

    def install(self) -> "Tracer":
        # every module that imported a traced function, the benchmark's own too
        modules = [mod for _, mod in sorted(sys.modules.items()) if isinstance(mod, ModuleType)]
        make = {TIMED: self._timed, COUNTED: self._counted, YIELDED: self._yielded}
        for name, module, path, kind in TRACED:
            owner = sys.modules[module]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            orig = getattr(owner, attr)
            wrapper = make[kind](name, orig)
            if outer:  # a method: calls reach it through the class
                self._replace(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._replace(mod, key, wrapper)
        return self

    def _replace(self, owner, attr, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    @contextmanager
    def paused(self):
        """Leave the benchmark's own work (making and checking jobs) out of the records."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    # ------------------------------------------------------- child processes

    @staticmethod
    def cli_shim() -> str:
        """Code for ``python -c`` that runs the lindeg CLI on its argv under a tracer.

        The child prints its records as the last line of stderr.
        """
        return (
            "import sys, json; sys.path.insert(0, %r)\n"
            "import lindeg.cli, tracing\n"
            "t = tracing.Tracer().install()\n"
            "code = lindeg.cli.main(sys.argv[1:])\n"
            "t.uninstall(); sys.stdout.flush()\n"
            "sys.stderr.write('\\n' + json.dumps(t.records) + '\\n')\n"
            "sys.exit(code)\n"
        ) % str(Path(__file__).resolve().parent)

    def merge_child(self, stderr: bytes) -> None:
        records = json.loads(stderr.decode().rstrip("\n").rsplit("\n", 1)[-1])
        for name, rec in records.items():
            for field, value in rec.items():
                self.records[name][field] += value

    # ------------------------------------------------------------- results

    def counts(self) -> dict:
        """The exact counts of a run, which must repeat on the same seed."""
        return {
            f"{name}.{field}": rec[field]
            for name, rec in self.records.items()
            for field in ("calls", "extra")
        }

    def metrics(self) -> dict:
        """Per-layer metrics: name -> (value, unit)."""
        out = {}
        for name, _, _, kind in TRACED:
            rec = self.records[name]
            if kind != TIMED:
                out[name] = (rec["calls"], "count")
            elif name in SUITES:
                out[f"{name}.self_ms"] = (rec["self"] * 1e3, "ms")
            else:
                out[f"{name}.calls"] = (rec["calls"], "count")
                out[f"{name}.total_ms"] = (rec["total"] * 1e3, "ms")
                out[f"{name}.self_ms"] = (rec["self"] * 1e3, "ms")
        out["orbits.hasse_dot.covers"] = (self.records["orbits.hasse_dot"]["extra"], "count")
        points = self.records["enumeration.enumerate_subreps.points"]["calls"]
        candidates = self.records["enumeration.subspaces_iter.yielded"]["calls"]
        out["enumeration.accept_ratio"] = (points / candidates if candidates else 0.0, "ratio")
        out["verification.checks"] = (sum(self.records[s]["extra"] for s in SUITES), "count")
        return out
