"""Command-line frontend.

Parses problem files (or inline flags), dispatches to the library, and emits
deterministic reports: stable key order, no timestamps, the input hash and
library version echoed in every payload.  Exit codes: 0 ok, 1 property
failure, 2 validation error, 3 guard breach.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import sys
from functools import cache
from typing import Any, NoReturn, Sequence

from . import __version__
from .classifier import (
    SingularInfo,
    _witness_chain,
    classify,
    flat_flags,
    is_smooth,
    singular_summary,
)
from .enumeration import (
    POINT_GUARD,
    _census,
    check_search_space,
    enumerate_subreps,
    fixed_point_analysis,
    fixed_points,
)
from .errors import GuardExceededError, LindegError, ValidationError
from .linalg import QQ, Field, Matrix, _Record
from .orbits import (
    ORBIT_GUARD,
    STRATA_GUARD,
    ProjectionTuple,
    RankSequence,
    decomposition_of,
    enumerate_orbits,
    hasse_dot,
    strata_dot,
    strata_subsets,
    stratum_rank_targets,
)
from .representations import (
    Decomposition,
    DimVector,
    RankTable,
    RepMatrices,
    SubrepPoint,
)
from .verification import SUITES, run_suites

TOOL = "lindeg"


# ---------------------------------------------------------------- problem I/O


class Problem(_Record):
    """A problem: the flag dimensions, the field, and the one description of
    the tuple of maps that the input gives, built and checked at load."""

    __slots__ = ("dv", "field", "maps", "sha256")

    def projection_tuple(self, what: str) -> ProjectionTuple:
        if not isinstance(self.maps, ProjectionTuple):
            raise ValidationError(f"{what} needs projection maps (zero sets)")
        return self.maps

    def matrices(self, guard: int) -> RepMatrices:
        """The maps, which are not a rank table, as matrices for a point walk:
        a projection tuple's m x m matrices wait until the walk's search
        space has passed ``guard``."""
        if isinstance(self.maps, ProjectionTuple):
            check_search_space(self.field, (self.dv.m,) * self.dv.n, self.dv.d, guard)
            return self.maps.matrices(self.field)
        assert isinstance(self.maps, RepMatrices)
        return self.maps

    def rank_sequence(self) -> RankSequence:
        if isinstance(self.maps, RepMatrices):
            return RankSequence.from_rep(self.maps)
        if isinstance(self.maps, ProjectionTuple):
            return self.maps.rank_sequence()
        return self.maps


def _parse_field(spec: Any) -> Field:
    if isinstance(spec, dict):
        return _parse_field(spec.get("prime", 0))
    if spec is None:
        return QQ
    if not (_is_int(spec) or isinstance(spec, str)):  # JSON false and 0.0 are not 0
        raise ValidationError(f"bad field spec {spec!r}")
    if spec in (0, "0", "Q", "QQ", "rationals"):
        return QQ
    try:
        return Field(int(spec))
    except ValueError as exc:
        raise ValidationError(f"bad field spec {spec!r}: {exc}") from exc


def _is_int(x: Any) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _int_list(value: Any, what: str) -> list[int]:
    if not isinstance(value, list) or not all(_is_int(x) for x in value):
        raise ValidationError(f"{what} must be a list of integers, got {value!r}")
    return value


def _int_rows(value: Any, what: str) -> list[list[int]]:
    if not isinstance(value, list):
        raise ValidationError(f"{what} must be a list of integer lists, got {value!r}")
    return [_int_list(row, f"each entry of {what}") for row in value]


def _sha256_of(canonical: dict) -> str:
    """Input hash of a problem given by flags: SHA-256 of its canonical JSON."""
    text = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _read_map(field: Field, m: int, spec: Any, index: int) -> frozenset[int] | Matrix:
    """One map spec as the 1-based coordinates it kills (identity, zero and
    projection maps) or as its matrix."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValidationError(f"map {index + 1}: spec must be an object with a 'kind'")
    kind = spec["kind"]
    if kind == "identity":
        return frozenset()
    if kind == "zero":
        return frozenset(range(1, m + 1))
    if kind == "projection":
        killed = frozenset(
            _int_list(spec.get("zero_indices", []), f"map {index + 1}: zero_indices")
        )
        if not all(1 <= j <= m for j in killed):
            raise ValidationError(
                f"map {index + 1}: zero_indices {sorted(killed)} not within 1..{m}"
            )
        return killed
    if kind == "matrix":
        entries = spec.get("entries")
        if (
            not isinstance(entries, list)
            or len(entries) != m
            or any(not isinstance(row, list) or len(row) != m for row in entries)
        ):
            raise ValidationError(f"map {index + 1}: entries must be an {m} x {m} array")
        if any(isinstance(x, bool) for row in entries for x in row):  # else read as 1 and 0
            raise ValidationError(f"map {index + 1}: bad entry: booleans are not scalars")
        try:
            return Matrix.from_rows(field, entries, ncols=m)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"map {index + 1}: bad entry: {exc}") from exc
    raise ValidationError(f"map {index + 1}: unknown kind {kind!r}")


def _read_maps(field: Field, m: int, specs: Any) -> ProjectionTuple | RepMatrices:
    """Map specs that only kill coordinates as a projection tuple, so that no
    m x m matrix exists before a guard is checked; any other list as matrices
    (its input already spells out an m x m matrix)."""
    if not isinstance(specs, list):
        raise ValidationError("maps must be a list of map objects")
    read = [_read_map(field, m, spec, index) for index, spec in enumerate(specs)]
    if all(isinstance(r, frozenset) for r in read):
        return ProjectionTuple(m, tuple(read))
    maps = tuple(
        r if isinstance(r, Matrix) else Matrix.projection(field, m, {j - 1 for j in r})
        for r in read
    )
    return RepMatrices(field, (m,) * (len(maps) + 1), maps)


def _parse_csv_ints(text: str, what: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise ValidationError(f"bad {what} {text!r}: {exc}") from exc


def _zero_set(text: str) -> list[int]:
    return [] if text.strip() == "-" else sorted(set(_parse_csv_ints(text, "--zero-sets")))


def _flag_problem(args: argparse.Namespace) -> dict:
    """Inline flags as the canonical problem dict: they are hashed in this
    form and then checked like a problem file."""
    return {
        "m": args.m,
        "n": args.n,
        "d": (_parse_csv_ints(args.d, "--d") or None) if args.d else None,
        "ranks": [_parse_csv_ints(r, "--ranks") for r in args.ranks.split(";")] if args.ranks else None,
        "zero_sets": [_zero_set(z) for z in args.zero_sets.split(";")] if args.zero_sets else None,
    }


def load_problem(args: argparse.Namespace) -> Problem:
    """Build a Problem from --input FILE or inline flags, hashing the input."""
    if args.input:
        try:
            with open(args.input, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            raise ValidationError(f"cannot read input file: {exc}") from exc
        digest = hashlib.sha256(raw).hexdigest()
        try:
            data = json.loads(raw)
        except (ValueError, RecursionError) as exc:  # bad syntax or UTF-8, deep nesting
            raise ValidationError(f"input file is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ValidationError("input file must hold a JSON object")
    else:
        data = _flag_problem(args)
        digest = _sha256_of(data)
    m = data.get("m")
    d = tuple(_int_list(data["d"], "d")) if data.get("d") is not None else None
    n_given = data.get("n")
    if n_given is not None and not _is_int(n_given):
        raise ValidationError(f"n must be an integer, got {n_given!r}")
    field = _parse_field(data.get("field"))
    if args.prime:
        field = Field(args.prime)
    given = [key for key in ("maps", "ranks", "zero_sets") if data.get(key) is not None]
    if len(given) != 1:
        raise ValidationError(
            "a problem gives exactly one of maps, ranks and zero_sets, got "
            + (", ".join(given) or "none")
        )
    if not _is_int(m) or m < 1:
        raise ValidationError("m must be a positive integer (use --m or the 'm' field)")
    if given == ["maps"]:
        maps = _read_maps(field, m, data["maps"])
    elif given == ["ranks"]:
        rows = _int_rows(data["ranks"], "ranks")
        maps = RankSequence(m, RankTable(len(rows), tuple(tuple(r) for r in rows)))
    else:
        zero_sets = _int_rows(data["zero_sets"], "zero_sets")
        maps = ProjectionTuple(m, tuple(frozenset(s) for s in zero_sets))
    lengths = {maps.n, maps.n if d is None else len(d), maps.n if n_given is None else n_given}
    if len(lengths) > 1:
        raise ValidationError(f"inconsistent quiver lengths {sorted(lengths)}")
    if maps.n < 1:
        raise ValidationError("need at least one vertex")
    if d is None:
        raise ValidationError("this command needs the flag dimension vector d")
    return Problem(DimVector(m, d), field, maps, digest)


# ------------------------------------------------------------- serialization


def _decomposition_json(dec: Decomposition) -> list[dict]:
    return [
        {"start": iv.start, "end": iv.end, "mult": k} for iv, k in dec.items
    ]


def _table_json(table: RankTable) -> list[list[int]]:
    return [list(row) for row in table.rows]


def _singular_json(info: SingularInfo | None) -> dict | None:
    """The report's fields, with the model's module as interval objects."""
    if info is None:
        return None
    payload = info._asdict()
    if info.model is not None:
        payload["model"]["module"] = _decomposition_json(info.model.module)
    return payload


def _point_json(point: SubrepPoint) -> dict:
    coordinates = point.coordinates
    if coordinates is not None:
        return {"coordinates": [list(s) for s in coordinates]}
    return {
        "bases": [
            [list(row) for row in space.basis]
            for space in point.spaces
        ]
    }


def _envelope(command: str, problem_hash: str | None) -> dict:
    return {
        "tool": TOOL,
        "version": __version__,
        "command": command,
        "input_sha256": problem_hash,
    }


def _problem_envelope(command: str, problem: Problem) -> dict:
    """The envelope of a report on a problem, then the problem's m, n and d."""
    dv = problem.dv
    return {**_envelope(command, problem.sha256), "m": dv.m, "n": dv.n, "d": list(dv.d)}


def _as_text(payload: dict) -> str:
    lines: list[str] = []

    def walk(obj: dict, indent: int) -> None:
        pad = "  " * indent
        for k, v in obj.items():
            if isinstance(v, dict):
                lines.append(f"{pad}{k}:")
                walk(v, indent + 1)
            elif isinstance(v, (list, tuple)):
                lines.append(f"{pad}{k}: {json.dumps(v)}")
            else:
                lines.append(f"{pad}{k}: {v}")

    walk(payload, 0)
    return "\n".join(lines) + "\n"


def _emit(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload, indent=2) + "\n"
    return _as_text(payload)


def _table(digest: str | None, title: str, lines: list[str]) -> str:
    """A table report: the envelope lines, a title, then one line per item."""
    head = [f"tool: {TOOL}", f"version: {__version__}", f"input_sha256: {digest}", title]
    return "\n".join(head + lines) + "\n"


# ------------------------------------------------------------------ commands


def cmd_classify(args: argparse.Namespace) -> tuple[str, int]:
    problem = load_problem(args)
    rs = problem.rank_sequence()
    report = classify(rs, problem.dv)
    payload = {
        **_problem_envelope("classify", problem),
        "edge_ranks": list(report.edge_ranks),
        "rank_table": _table_json(rs.table),
        "decomposition": _decomposition_json(report.decomposition),
        "stratum": list(report.stratum),
        "smooth": report.smooth,
        "irreducible": report.irreducible,
        "flat": report.flat,
        "flat_irreducible": report.flat_irreducible,
        "in_irreducible_locus": report.flat_irreducible,
        "well_behaved": report.well_behaved,
        "dimension": report.dimension,
        "normal": (
            {"value": True, "by": "theorem: irreducible implies normal"}
            if report.normal
            else None
        ),
        "regular_in_codim_2": (
            {"value": True, "by": "theorem: irreducible implies regular in codimension 2"}
            if report.regular_in_codim_2
            else None
        ),
        "singular": _singular_json(report.singular),
    }
    return _emit(payload, args.format), 0


def _orbit_flags(rs: RankSequence, dv: DimVector | None) -> dict:
    if dv is None:
        return {}
    flags = flat_flags(rs, dv)
    return {
        "smooth": is_smooth(rs, dv),
        "flat": flags.flat,
        "flat_irreducible": flags.flat_irreducible,
    }


def _annotation_dim_vector(args: argparse.Namespace) -> DimVector | None:
    """The optional --d of orbits and strata, checked against --m and --n."""
    if not args.d:
        return None
    if args.m is None:
        raise ValidationError(f"{args.command} with --d also needs --m")
    dv = DimVector(args.m, _parse_csv_ints(args.d, "--d"))
    if dv.n != args.n:
        raise ValidationError(f"--d has length {dv.n}, expected n = {args.n}")
    return dv


def cmd_orbits(args: argparse.Namespace) -> tuple[str, int]:
    if args.m is None or args.n is None:
        raise ValidationError("orbits needs --m and --n")
    dv = _annotation_dim_vector(args)
    orbits = enumerate_orbits(args.m, args.n, guard=args.guard)
    ordered = sorted(orbits, key=lambda rs: rs.table.entries_flat(), reverse=True)
    head = {"m": args.m, "n": args.n, "d": list(dv.d) if dv else None}
    digest = _sha256_of(head)

    if args.format == "dot":
        def annotate(rs: RankSequence) -> str:
            flags = _orbit_flags(rs, dv)
            if flags["smooth"]:
                return "smooth"
            if flags["flat_irreducible"]:
                return "flat-irr"
            if flags["flat"]:
                return "flat"
            return ""

        return hasse_dot(ordered, annotate=annotate if dv else None), 0

    rows = []
    for rs in ordered:
        row = {
            "edge_ranks": list(rs.edge_ranks()),
            "rank_table": _table_json(rs.table),
            "decomposition": _decomposition_json(decomposition_of(rs)),
        }
        row.update(_orbit_flags(rs, dv))
        rows.append(row)
    payload = {
        **_envelope("orbits", digest),
        **head,
        "count": len(rows),
        "orbits": rows,
    }
    if args.format == "json":
        return _emit(payload, "json"), 0
    lines = []
    for rs, row in zip(ordered, rows):
        text = f"  r={rs.edge_ranks()} table={row['rank_table']} dec={decomposition_of(rs)}"
        flags = [k for k in ("smooth", "flat", "flat_irreducible") if row.get(k)]
        if flags:
            text += "  [" + ",".join(flags) + "]"
        lines.append(text)
    return _table(digest, f"orbits for m={args.m}, n={args.n}: {len(rows)}", lines), 0


def cmd_strata(args: argparse.Namespace) -> tuple[str, int]:
    if args.n is None:
        raise ValidationError("strata needs --n")
    dv = _annotation_dim_vector(args)
    if args.format == "dot":
        return strata_dot(args.n, guard=args.guard), 0
    head = {"n": args.n, "m": args.m, "d": list(dv.d) if dv else None}
    digest = _sha256_of(head)
    rows = []
    for I in strata_subsets(args.n, guard=args.guard):
        row: dict[str, Any] = {"edges": list(I)}
        if dv is not None:
            r1, r2 = stratum_rank_targets(I, dv)
            row["r1"] = _table_json(r1.table)
            row["r2"] = _table_json(r2.table)
        rows.append(row)
    payload = {
        **_envelope("strata", digest),
        **head,
        "count": len(rows),
        "strata": rows,
    }
    if args.format == "json":
        return _emit(payload, "json"), 0
    lines = []
    for row in rows:
        text = "  I={" + ",".join(str(i) for i in row["edges"]) + "}"
        if "r1" in row:
            text += f" r1={row['r1']} r2={row['r2']}"
        lines.append(text)
    return _table(digest, f"strata for n={args.n}: {len(rows)}", lines), 0


def cmd_enumerate(args: argparse.Namespace) -> tuple[str, int]:
    problem = load_problem(args)
    dv = problem.dv
    field = problem.field
    if not field.is_modular:
        raise ValidationError("enumeration needs a finite field: pass --prime or a prime field spec")
    J = problem.maps if isinstance(problem.maps, ProjectionTuple) else None
    # the census counts by torus cells, so points are walked only for a sample
    # or, without a census, for the count, and a rank table has none to walk
    walk = not args.census or args.limit > 0
    if walk and isinstance(problem.maps, RankSequence):
        raise ValidationError("this command needs explicit maps, not just a rank table")
    census = _census(problem.rank_sequence(), field, dv, args.guard) if args.census else None
    points = enumerate_subreps(problem.matrices(args.guard), dv, args.guard) if walk else iter(())
    sample = [_point_json(p) for p in itertools.islice(points, args.limit)]
    total = census.total if census else len(sample) + sum(1 for _ in points)
    payload: dict[str, Any] = {
        **_problem_envelope("enumerate", problem),
        "prime": field.characteristic,
        "points": total,
        "census": census._asdict() if census else None,
        "fixed_points": len(fixed_points(J, dv, args.guard)) if J is not None else None,
    }
    if args.limit:
        payload["sample_points"] = sample
    return _emit(payload, args.format), 0


def cmd_fixed_points(args: argparse.Namespace) -> tuple[str, int]:
    problem = load_problem(args)
    J = problem.projection_tuple("fixed-points")
    pts = fixed_points(J, problem.dv)
    payload = {
        **_problem_envelope("fixed-points", problem),
        "zero_sets": [sorted(s) for s in J.zero_sets],
        "count": len(pts),
        "points": [[list(S) for S in chain] for chain in pts],
    }
    if args.format == "json":
        return _emit(payload, "json"), 0
    lines = [
        "  " + " <= ".join("{" + ",".join(str(x) for x in S) + "}" for S in chain)
        for chain in pts
    ]
    return _table(problem.sha256, f"fixed points: {len(pts)}", lines), 0


def cmd_singular(args: argparse.Namespace) -> tuple[str, int]:
    problem = load_problem(args)
    dv = problem.dv
    rs = problem.rank_sequence()
    info = singular_summary(rs, dv)
    payload = {
        **_problem_envelope("singular", problem),
        "edge_ranks": list(rs.edge_ranks()),
        "singular": _singular_json(info),
    }
    if args.witness:
        J = problem.projection_tuple("--witness")
        chain = _witness_chain(J, dv)
        analysis = fixed_point_analysis(J, chain)
        payload["witness"] = {
            "coordinates": [list(S) for S in chain],
            "tangent_dim": analysis.tangent_dim,
            "ext": analysis.ext,
            "singular": analysis.tangent_dim > info.ambient_dim,
        }
    return _emit(payload, args.format), 0


def cmd_verify(args: argparse.Namespace) -> tuple[str, int]:
    results = run_suites(args.suite, seed=args.seed)
    ok = all(r.passed for r in results)
    if args.format == "json":
        payload = {
            **_envelope("verify", None),
            "seed": args.seed,
            "passed": ok,
            "suites": [r._asdict() for r in results],
        }
        return _emit(payload, "json"), 0 if ok else 1
    lines = [r.summary_line() for r in results]
    lines.append("all suites passed" if ok else "SUITE FAILURES")
    return "\n".join(lines) + "\n", 0 if ok else 1


# ---------------------------------------------------------------- entrypoint


def _add_problem_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--input", metavar="FILE", help="JSON problem file")
    sp.add_argument("--m", type=int, help="ambient dimension")
    sp.add_argument("--n", type=int, help="number of vertices")
    sp.add_argument("--d", help="comma-separated flag dimensions, e.g. 1,3,4")
    sp.add_argument("--prime", type=int, help="work over F_p instead of the rationals")
    sp.add_argument(
        "--ranks",
        help="rank table rows, semicolon-separated: 'R11,R12,...;R22,...;...'",
    )
    sp.add_argument(
        "--zero-sets",
        dest="zero_sets",
        help="killed 1-based coordinates per map, semicolon-separated ('-' for none)",
    )


def _count(text: str) -> int:
    """A flag value that counts something: an integer, at least 0."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    """A parser whose rejections leave through the JSON error path; its
    subparsers are of the same class."""

    def error(self, message: str) -> NoReturn:
        raise ValidationError(f"{self.prog}: {message}")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every call,
    so it must not be modified; each command's handler is its ``handler``
    default."""
    parser = _Parser(
        prog=TOOL,
        description="classify linear degenerations of partial flag varieties",
    )
    parser.add_argument("--version", action="version", version=f"{TOOL} {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("classify", help="full geometric classification of one orbit")
    sp.set_defaults(handler=cmd_classify)
    _add_problem_flags(sp)
    sp.add_argument("--format", choices=["table", "json"], default="table")

    sp = sub.add_parser("orbits", help="enumerate all orbits for (m, n)")
    sp.set_defaults(handler=cmd_orbits)
    sp.add_argument("--m", type=int)
    sp.add_argument("--n", type=int)
    sp.add_argument("--d", help="optional flag dimensions for annotations")
    sp.add_argument("--guard", type=int, default=ORBIT_GUARD)
    sp.add_argument("--format", choices=["table", "dot", "json"], default="table")

    sp = sub.add_parser("strata", help="the poset of strata (sets of zero maps)")
    sp.set_defaults(handler=cmd_strata)
    sp.add_argument("--n", type=int)
    sp.add_argument("--m", type=int)
    sp.add_argument("--d", help="optional flag dimensions for rank targets")
    sp.add_argument("--guard", type=int, default=STRATA_GUARD)
    sp.add_argument("--format", choices=["table", "dot", "json"], default="table")

    sp = sub.add_parser("enumerate", help="count points over F_p, optionally with census")
    sp.set_defaults(handler=cmd_enumerate)
    _add_problem_flags(sp)
    sp.add_argument("--census", action="store_true", help="count singular points too")
    sp.add_argument("--limit", type=_count, default=0, help="include up to LIMIT sample points")
    sp.add_argument("--guard", type=int, default=POINT_GUARD)
    sp.add_argument("--format", choices=["table", "json"], default="table")

    sp = sub.add_parser("fixed-points", help="coordinate points of a projection tuple")
    sp.set_defaults(handler=cmd_fixed_points)
    _add_problem_flags(sp)
    sp.add_argument("--format", choices=["table", "json"], default="table")

    sp = sub.add_parser("singular", help="singular locus summary for one orbit")
    sp.set_defaults(handler=cmd_singular)
    _add_problem_flags(sp)
    sp.add_argument("--witness", action="store_true", help="construct a singular point")
    sp.add_argument("--format", choices=["table", "json"], default="table")

    sp = sub.add_parser("verify", help="run the self-verification suites")
    sp.set_defaults(handler=cmd_verify)
    sp.add_argument(
        "--suite",
        action="append",
        choices=sorted(SUITES),
        help="suite to run (repeatable; default: all)",
    )
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--format", choices=["table", "json"], default="table")

    return parser


def _error_object(exc: Exception) -> str:
    obj = {
        "tool": TOOL,
        "version": __version__,
        "error": {"type": type(exc).__name__, "message": str(exc)},
    }
    return json.dumps(obj, indent=2) + "\n"


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        out, code = args.handler(args)
    except LindegError as exc:
        sys.stderr.write(_error_object(exc))
        return 3 if isinstance(exc, GuardExceededError) else 2
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
