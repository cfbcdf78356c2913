"""The one guard rule of the exhaustive routines: a size, or a lower bound of
2^k on it, against the guard; one error template; a negative guard is
malformed input."""

import re

import pytest

from lindeg import (
    GF,
    DimVector,
    GuardExceededError,
    ProjectionTuple,
    RepMatrices,
    ValidationError,
    check_search_space,
    count_points,
    enumerate_orbits,
    enumerate_subreps,
    fixed_points,
    singular_point_census,
    strata_dot,
    strata_subsets,
)

FLAG3 = DimVector(3, (1, 2))
KILL1 = ProjectionTuple(3, ({1},))
IDENTITY32 = RepMatrices.identity_tuple(GF(2), 3, 2)

# the five in-advance checks, each once with a size printed exactly and once
# with a size past 64 bits, printed as "at least 2^k"
IN_ADVANCE = [
    (lambda: check_search_space(GF(2), (3, 3), (1, 2), guard=1),
     "search space of size 49 exceeds the guard 1"),
    (lambda: check_search_space(GF(3), (50,), (1,), guard=10),
     "search space of size at least 2^78 exceeds the guard 10"),
    (lambda: fixed_points(KILL1, FLAG3, guard=8),
     "fixed-point search space of size 9 exceeds the guard 8"),
    (lambda: fixed_points(ProjectionTuple(300000, (frozenset(),)), DimVector(300000, (1, 150000))),
     "fixed-point search space of size at least 2^150018 exceeds the guard 10000000"),
    (lambda: enumerate_orbits(1, 5, guard=15),
     "orbit enumeration for m=1, n=5 of size 16 exceeds the guard 15"),
    (lambda: enumerate_orbits(3, 10**9),
     "orbit enumeration for m=3, n=1000000000 of size at least 2^1999999998"
     " exceeds the guard 1000000"),
    (lambda: enumerate_orbits(0, 100, guard=5049),
     "interval list for n=100 of size 5050 exceeds the guard 5049"),
    (lambda: enumerate_orbits(0, 2**40),
     "interval list for n=1099511627776 of size at least 2^79 exceeds the guard 1000000"),
    (lambda: strata_subsets(4, guard=7),
     "strata for n=4 of size 8 exceeds the guard 7"),
    (lambda: strata_subsets(10**9),
     "strata for n=1000000000 of size at least 2^999999999 exceeds the guard 1000000"),
]


@pytest.mark.parametrize(
    "call,message",
    IN_ADVANCE,
    ids=[
        "search-space", "search-space-2^k", "fixed-points", "fixed-points-2^k",
        "orbits", "orbits-2^k", "intervals", "intervals-2^k", "strata", "strata-2^k",
    ],
)
def test_in_advance_checks_share_one_template(call, message):
    with pytest.raises(GuardExceededError, match=f"^{re.escape(message)}$"):
        call()


def test_running_orbit_count_uses_the_template():
    # 4^2 = 16 orbits are known in advance; the seventeenth trips the count
    with pytest.raises(
        GuardExceededError,
        match="^orbit enumeration for m=3, n=3 of size at least 17 exceeds the guard 16$",
    ):
        enumerate_orbits(3, 3, guard=16)


GUARDED = {
    "check_search_space": lambda g: check_search_space(GF(2), (3, 3), (1, 2), g),
    "enumerate_subreps": lambda g: enumerate_subreps(KILL1.matrices(GF(2)), FLAG3, guard=g),
    "fixed_points": lambda g: fixed_points(KILL1, FLAG3, g),
    "singular_point_census": lambda g: singular_point_census(KILL1.matrices(GF(2)), FLAG3, g),
    "count_points": lambda g: count_points(IDENTITY32, (1, 2), guard=g),
    "enumerate_orbits": lambda g: enumerate_orbits(3, 2, guard=g),
    "strata_subsets": lambda g: strata_subsets(1, guard=g),
    "strata_dot": lambda g: strata_dot(3, guard=g),
}


@pytest.mark.parametrize("name", GUARDED)
def test_negative_guard_is_malformed_input(name):
    with pytest.raises(ValidationError, match="^guard must be an integer >= 0, got -1$"):
        GUARDED[name](-1)
    # a guard of 0 is well formed, and every one of these enumerations exceeds it
    with pytest.raises(GuardExceededError):
        GUARDED[name](0)


@pytest.mark.parametrize("guard", [2.5, True, False, "3", None])
@pytest.mark.parametrize("name", GUARDED)
def test_non_int_guard_is_malformed_input(name, guard):
    # a bool is not read as 0 or 1, and a float or a string fails as input,
    # not on an attribute of int
    message = f"guard must be an integer >= 0, got {guard!r}"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        GUARDED[name](guard)
