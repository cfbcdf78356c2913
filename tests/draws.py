"""SHA-256 digests of what the verification suites draw at random.

The check counts of ``suite_exthom`` do not follow its draws (it makes two
checks per pair whatever it draws), so a drift in its decompositions or its
base changes would pass every count.  ``draw_digest`` runs a suite at the
benchmark's size and digests the values that its checks read, as the suite
hands them on: for ``exthom`` each pair's conjugated maps and its two
decompositions, for ``rank-composition`` each case's maps.  It imports no
pytest, so a check of an installed package can run it too::

    python -c 'import sys; sys.path.insert(0, "tests"); from draws import draw_digest; print(draw_digest("exthom", 0))'
"""

from __future__ import annotations

import hashlib

from lindeg import verification

# suite name -> (suite, its benchmark size, the names it calls with its draws)
SUITES = {
    "exthom": (verification.suite_exthom, {"pairs": 80}, ("intertwiner_space_dim", "hom_dim")),
    "rank-composition": (
        verification.suite_rank_composition,
        {"cases": 80},
        ("rank_profile",),
    ),
}


def _text(name: str, args: tuple) -> str:
    if name == "intertwiner_space_dim":
        field, dims_src, maps_src, dims_tgt, maps_tgt = args
        maps = [f.entries for f in (*maps_src, *maps_tgt)]
        return f"{field} {dims_src} {dims_tgt} {maps!r}"
    if name == "hom_dim":
        A, B = args
        return f"{A} -> {B}"
    (rep,) = args
    return f"{rep.field} {rep.dims} {[f.entries for f in rep.maps]!r}"


def draw_digest(suite: str, seed: int) -> str:
    """SHA-256 hex digest of the values that ``suite`` draws at ``seed``, one
    line per call that reads them, in call order.  The suite must pass."""
    run, size, names = SUITES[suite]
    digest = hashlib.sha256()
    originals = {name: getattr(verification, name) for name in names}

    def recording(name):
        def call(*args):
            digest.update(_text(name, args).encode() + b"\n")
            return originals[name](*args)

        return call

    try:
        for name in names:
            setattr(verification, name, recording(name))
        result = run(seed, **size)
    finally:
        for name, original in originals.items():
            setattr(verification, name, original)
    assert result.passed, result.failures[:3]
    return digest.hexdigest()
