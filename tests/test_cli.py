"""Command-line interface: parsing, report stability, exit codes."""

import argparse
import hashlib
import io
import itertools
import json
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lindeg.cli as cli
import lindeg.enumeration as enumeration
import lindeg.orbits as orbits
from lindeg import (
    GF,
    DimVector,
    ProjectionTuple,
    SubrepPoint,
    Subspace,
    SuiteResult,
    __version__,
)
from lindeg.verification import _conjugate

from oracles import census_oracle

GOLDEN_CLI = Path(__file__).resolve().parents[1] / "bench" / "golden" / "cli.json"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_problem(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


RANK5_PROBLEM = {
    "m": 6,
    "d": [1, 4],
    "maps": [{"kind": "projection", "zero_indices": [1]}],
}


class TestClassify:
    def test_rank5_projection_json(self, tmp_path, capsys):
        path = write_problem(tmp_path, "p.json", RANK5_PROBLEM)
        code, out, err = run_cli(capsys, "classify", "--input", str(path), "--format", "json")
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["tool"] == "lindeg"
        assert payload["version"] == __version__
        assert payload["input_sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
        assert payload["edge_ranks"] == [5]
        assert payload["irreducible"] is True
        assert payload["smooth"] is False
        assert payload["flat_irreducible"] is True
        assert payload["dimension"] == 11
        assert payload["singular"]["kind"] == "exact"
        assert payload["singular"]["singular_dim"] == 4
        assert payload["singular"]["codim_lower"] == 7
        assert payload["singular"]["codim_upper"] == 7
        assert payload["singular"]["model"]["h"] == 1
        assert payload["normal"]["value"] is True

    def test_identity_inline(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", "--m", "3", "--d", "1,2", "--zero-sets", "-",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["edge_ranks"] == [3]
        assert payload["smooth"] and payload["irreducible"]
        assert payload["flat"] and payload["flat_irreducible"]
        assert payload["well_behaved"] is False
        assert payload["dimension"] == 3
        assert payload["singular"]["kind"] == "empty"

    def test_rank_table_input(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", "--m", "6", "--d", "1,4", "--ranks", "6,2;6",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["irreducible"] is False
        assert payload["dimension"] == 11
        assert payload["normal"] is None
        assert payload["regular_in_codim_2"] is None
        assert payload["singular"] is None

    def test_zero_map_kind_matches_rank_table(self, tmp_path, capsys):
        problem = {"m": 3, "d": [1, 2], "maps": [{"kind": "zero"}]}
        path = write_problem(tmp_path, "zero.json", problem)
        reports = []
        for source in (["--input", str(path)], ["--m", "3", "--d", "1,2", "--ranks", "3,0;3"]):
            code, out, err = run_cli(capsys, "classify", *source, "--format", "json")
            assert code == 0 and err == ""
            payload = json.loads(out)
            del payload["input_sha256"]
            reports.append(payload)
        assert reports[0] == reports[1]
        assert reports[0]["edge_ranks"] == [0] and reports[0]["smooth"] is True

    def test_matrix_entries_exact(self, tmp_path, capsys):
        problem = {
            "m": 3,
            "d": [1, 2],
            "n": 2,
            "maps": [
                {
                    "kind": "matrix",
                    "entries": [["1/2", "0", "0"], ["0", "1", "0"], ["0", "0", "-2/3"]],
                }
            ],
        }
        path = write_problem(tmp_path, "m.json", problem)
        code, out, _ = run_cli(capsys, "classify", "--input", str(path), "--format", "json")
        assert code == 0
        assert json.loads(out)["edge_ranks"] == [3]

    def test_matrix_entries_bad_denominator_mod_p(self, tmp_path, capsys):
        problem = {
            "m": 3,
            "d": [1, 2],
            "n": 2,
            "maps": [
                {
                    "kind": "matrix",
                    "entries": [["1/2", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
                }
            ],
        }
        path = write_problem(tmp_path, "m.json", problem)
        code, out, err = run_cli(
            capsys, "classify", "--input", str(path), "--prime", "2", "--format", "json"
        )
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"]["type"] == "ValidationError"

    def test_matrix_entry_huge_exponent(self, tmp_path, capsys):
        problem = {
            "m": 3,
            "d": [1, 2],
            "maps": [
                {
                    "kind": "matrix",
                    "entries": [["1e30000000", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
                }
            ],
        }
        path = write_problem(tmp_path, "m.json", problem)
        code, out, err = run_cli(capsys, "classify", "--input", str(path), "--format", "json")
        assert code == 2
        assert out == ""
        assert "exponent" in json.loads(err)["error"]["message"]

    def test_byte_identical_runs(self, tmp_path, capsys):
        path = write_problem(tmp_path, "p.json", RANK5_PROBLEM)
        _, first, _ = run_cli(capsys, "classify", "--input", str(path), "--format", "json")
        _, second, _ = run_cli(capsys, "classify", "--input", str(path), "--format", "json")
        assert first == second

    def test_table_format_mentions_flags(self, tmp_path, capsys):
        path = write_problem(tmp_path, "p.json", RANK5_PROBLEM)
        code, out, _ = run_cli(capsys, "classify", "--input", str(path))
        assert code == 0
        assert "input_sha256" in out
        assert "irreducible" in out

    @pytest.mark.parametrize(
        "problem",
        [
            {"m": 3, "d": [1, 2], "ranks": 5},
            {"m": 3, "d": [1, 2], "maps": [5]},
            {"m": 3, "d": [1, 2], "zero_sets": ["a"]},
            {"m": 3, "d": "12"},
            {"m": 3, "n": "x"},
            {"m": 3, "d": [1, 2], "maps": [{"kind": "projection", "zero_indices": ["a"]}]},
            # JSON booleans are not numbers, nor is 0.0 the field spec 0
            {
                "m": 3,
                "d": [1, 2],
                "maps": [{"kind": "matrix", "entries": [[True, 0, 0], [0, False, 0], [0, 0, True]]}],
            },
            {"m": 3, "d": [1, 2], "field": False, "ranks": [[3, 2], [3]]},
            {"m": 3, "d": [1, 2], "field": 0.0, "ranks": [[3, 2], [3]]},
            {"m": 3, "d": [1, 2], "field": {"prime": False}, "ranks": [[3, 2], [3]]},
            {"m": 3, "d": [1, 2], "maps": [{"kind": "projection", "zero_indices": [1, 4]}]},
            {"m": 3, "d": [1, 2], "maps": {"kind": "identity"}},
            {"m": 2, "d": [1], "maps": [{"kind": "matrix", "entries": [[1, 0]]}]},
            {"m": 3, "ranks": []},
        ],
    )
    def test_malformed_input_is_validation_error(self, tmp_path, capsys, problem):
        path = write_problem(tmp_path, "bad.json", problem)
        code, out, err = run_cli(capsys, "classify", "--input", str(path))
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "ValidationError"

    @pytest.mark.parametrize(
        "raw",
        [b'{"m": 3, "d": [1, 2] \xff}', b"[" * 100_000 + b"]" * 100_000],
        ids=["bad-utf8", "deep-nesting"],
    )
    def test_undecodable_input_is_validation_error(self, tmp_path, capsys, raw):
        path = tmp_path / "bad.json"
        path.write_bytes(raw)
        code, out, err = run_cli(capsys, "classify", "--input", str(path))
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "ValidationError"

    @pytest.mark.parametrize("name", ["missing.json", "."], ids=["missing", "directory"])
    def test_unreadable_input_is_validation_error(self, tmp_path, capsys, name):
        code, out, err = run_cli(capsys, "classify", "--input", str(tmp_path / name))
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "ValidationError"
        assert error["message"].startswith("cannot read input file")

    @pytest.mark.parametrize("flags", [("--ranks", "3,a;3"), ("--zero-sets", "a")])
    def test_malformed_flags_are_validation_errors(self, capsys, flags):
        code, out, err = run_cli(capsys, "classify", "--m", "3", "--d", "1,2", *flags)
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "ValidationError"

    def test_missing_d_is_validation_error(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--m", "3", "--zero-sets", "-")
        assert code == 2
        assert "d" in json.loads(err)["error"]["message"]

    def test_invalid_d_is_validation_error(self, capsys):
        code, _, _ = run_cli(capsys, "classify", "--m", "2", "--d", "1,2", "--zero-sets", "-")
        assert code == 2


class TestOrbits:
    def test_table_lists_all_orbits(self, capsys):
        code, out, _ = run_cli(capsys, "orbits", "--m", "3", "--n", "2", "--d", "1,2")
        assert code == 0
        assert "orbits for m=3, n=2: 4" in out
        assert "[smooth,flat,flat_irreducible]" in out
        assert "r=(1,)" in out and "r=(2,)" in out

    def test_flag_annotations_match_rank(self, capsys):
        _, out, _ = run_cli(
            capsys, "orbits", "--m", "3", "--n", "2", "--d", "1,2", "--format", "json"
        )
        rows = {tuple(r["edge_ranks"]): r for r in json.loads(out)["orbits"]}
        assert rows[(3,)]["smooth"] and rows[(0,)]["smooth"]
        assert not rows[(2,)]["smooth"] and rows[(2,)]["flat_irreducible"]
        assert rows[(1,)]["flat"] and not rows[(1,)]["flat_irreducible"]

    def test_dot_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "orbits", "--m", "3", "--n", "2", "--d", "1,2", "--format", "dot"
        )
        assert code == 0
        assert out.startswith("digraph orbits {")
        assert '"r_3_3_3" [label="r=3\\nsmooth"];' in out
        assert '"r_3_2_3" [label="r=2\\nflat-irr"];' in out
        assert '"r_3_1_3" [label="r=1\\nflat"];' in out
        assert '"r_3_3_3" -> "r_3_2_3";' in out

    def test_dot_label_of_an_orbit_with_no_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "orbits", "--m", "4", "--n", "2", "--d", "1,2", "--format", "dot"
        )
        assert code == 0
        # rank 1 on F^4 with d = (1, 2) is neither smooth nor flat
        assert '  "r_4_1_4" [label="r=1"];' in out.splitlines()

    def test_dot_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, "orbits", "--m", "3", "--n", "3", "--format", "dot")
        _, second, _ = run_cli(capsys, "orbits", "--m", "3", "--n", "3", "--format", "dot")
        assert first == second

    def test_length_mismatch(self, capsys):
        code, _, err = run_cli(capsys, "orbits", "--m", "2", "--n", "2", "--d", "1")
        assert code == 2
        assert json.loads(err)["error"]["type"] == "ValidationError"

    def test_no_valid_d_for_m2(self, capsys):
        code, _, _ = run_cli(capsys, "orbits", "--m", "2", "--n", "2", "--d", "1,2")
        assert code == 2

    def test_guard_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "orbits", "--m", "3", "--n", "3", "--guard", "2")
        assert code == 3
        assert json.loads(err)["error"]["type"] == "GuardExceededError"

    @pytest.mark.parametrize("m,n", [(100000000, 2), (3, 30), (1, 45)])
    def test_guard_trips_in_advance(self, capsys, m, n):
        code, _, err = run_cli(capsys, "orbits", "--m", str(m), "--n", str(n))
        assert code == 3
        assert json.loads(err)["error"]["type"] == "GuardExceededError"

    def test_long_quiver_on_zero_space(self, capsys):
        code, out, _ = run_cli(capsys, "orbits", "--m", "0", "--n", "45", "--format", "json")
        assert code == 0
        assert json.loads(out)["count"] == 1


class TestStrata:
    def test_table(self, capsys):
        code, out, _ = run_cli(capsys, "strata", "--n", "3")
        assert code == 0
        assert "{}" in out and "{1,2}" in out

    def test_with_targets(self, capsys):
        code, out, _ = run_cli(
            capsys, "strata", "--n", "2", "--m", "6", "--d", "1,4", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        by_stratum = {tuple(s["edges"]): s for s in payload["strata"]}
        assert by_stratum[()]["r1"] == [[6, 3], [6]]
        assert by_stratum[()]["r2"] == [[6, 2], [6]]
        assert by_stratum[(1,)]["r1"] == [[6, 0], [6]]

    def test_table_with_targets(self, capsys):
        code, out, _ = run_cli(capsys, "strata", "--n", "2", "--m", "4", "--d", "1,2")
        assert code == 0
        assert "  I={} r1=[[4, 3], [4]] r2=[[4, 2], [4]]" in out.splitlines()
        assert "  I={1} r1=[[4, 0], [4]] r2=[[4, 0], [4]]" in out.splitlines()

    def test_dot(self, capsys):
        code, out, _ = run_cli(capsys, "strata", "--n", "3", "--format", "dot")
        assert code == 0
        assert '"S" ->' in out and '"S_1" -> "S_1_2";' in out

    @pytest.mark.parametrize("fmt", ["table", "dot", "json"])
    def test_guard_exit(self, capsys, fmt):
        # n = 4 has 2^3 = 8 strata
        code, _, _ = run_cli(capsys, "strata", "--n", "4", "--guard", "8", "--format", fmt)
        assert code == 0
        code, out, err = run_cli(capsys, "strata", "--n", "4", "--guard", "7", "--format", fmt)
        assert code == 3 and out == ""
        assert json.loads(err)["error"]["type"] == "GuardExceededError"
        # the default guard stops a huge n before anything is built
        code, out, err = run_cli(capsys, "strata", "--n", "100000000", "--format", fmt)
        assert code == 3 and out == ""
        assert json.loads(err)["error"]["type"] == "GuardExceededError"
        # n below 1 is malformed input, not a guard breach
        for n in ("0", "-3"):
            code, out, err = run_cli(capsys, "strata", f"--n={n}", "--format", fmt)
            assert code == 2 and out == ""
            assert json.loads(err)["error"]["type"] == "ValidationError"


class TestEnumerate:
    def test_identity_point_count(self, capsys):
        code, out, _ = run_cli(
            capsys, "enumerate", "--m", "3", "--d", "1,2", "--zero-sets", "-",
            "--prime", "2", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["points"] == 21
        assert payload["fixed_points"] == 6

    def test_single_kill_census(self, capsys):
        code, out, _ = run_cli(
            capsys, "enumerate", "--m", "3", "--d", "1,2", "--zero-sets", "1",
            "--prime", "2", "--census", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["points"] == 25
        assert payload["census"] == {"total": 25, "singular": 1, "smooth": 24}
        assert payload["fixed_points"] == 7

    def test_census_matches_sigma_count(self, capsys):
        code, out, _ = run_cli(
            capsys, "enumerate", "--m", "4", "--d", "1,2", "--zero-sets", "1",
            "--prime", "2", "--census", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["census"]["singular"] == 7

    def test_sample_points(self, capsys):
        code, out, _ = run_cli(
            capsys, "enumerate", "--m", "3", "--d", "1,2", "--zero-sets", "-",
            "--prime", "2", "--limit", "3", "--format", "json",
        )
        payload = json.loads(out)
        assert len(payload["sample_points"]) == 3
        assert payload["sample_points"][0].get("coordinates") is not None

    def test_needs_prime(self, capsys):
        code, _, err = run_cli(
            capsys, "enumerate", "--m", "3", "--d", "1,2", "--zero-sets", "-"
        )
        assert code == 2
        assert "prime" in json.loads(err)["error"]["message"]

    def test_guard_exit(self, capsys):
        code, _, _ = run_cli(
            capsys, "enumerate", "--m", "3", "--d", "1,2", "--zero-sets", "-",
            "--prime", "2", "--guard", "5",
        )
        assert code == 3

    def test_guard_trips_before_any_matrix_is_built(self, capsys, monkeypatch):
        def no_matrices(self, field):
            raise AssertionError("matrices built before the guard")

        monkeypatch.setattr(ProjectionTuple, "matrices", no_matrices)
        code, out, err = run_cli(
            capsys, "enumerate", "--m", "1600", "--d", "1,2", "--zero-sets", "1",
            "--prime", "2", "--guard", "10",
        )
        assert code == 3 and out == ""
        assert json.loads(err)["error"]["type"] == "GuardExceededError"

    def test_guard_trips_before_a_projection_maps_file_is_built(
        self, tmp_path, capsys, monkeypatch
    ):
        def no_matrices(self, field):
            raise AssertionError("matrices built before the guard")

        monkeypatch.setattr(ProjectionTuple, "matrices", no_matrices)
        path = write_problem(tmp_path, "big.json", {
            "m": 1600, "d": [1, 2], "maps": [{"kind": "projection", "zero_indices": [1]}],
        })
        code, out, err = run_cli(
            capsys, "enumerate", "--input", str(path), "--prime", "2", "--guard", "10"
        )
        assert code == 3 and out == ""
        assert json.loads(err)["error"]["type"] == "GuardExceededError"

    def test_irreducibility_is_checked_before_the_guard(self, capsys):
        code, out, err = run_cli(
            capsys, "enumerate", "--m", "6", "--d", "1,2", "--zero-sets", "1,2,3",
            "--prime", "2", "--census", "--guard", "10",
        )
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "NotIrreducibleError"

    def test_census_takes_the_cell_route(self, capsys, monkeypatch):
        def no_pointwise_census(*args, **kwargs):
            raise AssertionError("census walked every point")

        calls = []
        walk = enumeration.enumerate_subreps

        def counted(*args, **kwargs):
            calls.append(args)
            return walk(*args, **kwargs)

        monkeypatch.setattr(enumeration, "_points_with_singularity", no_pointwise_census)
        monkeypatch.setattr(enumeration, "enumerate_subreps", counted)
        monkeypatch.setattr(cli, "enumerate_subreps", counted)
        argv = [
            "enumerate", "--m", "3", "--d", "1,2", "--zero-sets", "1",
            "--prime", "2", "--census", "--format", "json",
        ]
        code, out, _ = run_cli(capsys, *argv, "--limit", "0")
        assert code == 0 and not calls
        assert json.loads(out)["census"] == {"total": 25, "singular": 1, "smooth": 24}
        code, out, _ = run_cli(capsys, *argv, "--limit", "3")
        assert code == 0 and len(calls) == 1
        payload = json.loads(out)
        assert payload["census"] == {"total": 25, "singular": 1, "smooth": 24}
        assert len(payload["sample_points"]) == 3

    def test_a_point_walk_needs_maps(self, tmp_path, capsys):
        # explicit maps are walked as given
        path = write_problem(tmp_path, "matrix.json", {"m": 3, "d": [1, 2], "maps": [
            {"kind": "matrix", "entries": [[1, 1, 0], [0, 0, 1], [0, 0, 0]]},
        ]})
        code, out, _ = run_cli(
            capsys, "enumerate", "--input", str(path), "--prime", "2", "--format", "json"
        )
        assert code == 0 and json.loads(out)["points"] == 25
        # a rank table has none, which is said before the guard is checked
        code, out, err = run_cli(
            capsys, "enumerate", "--m", "3", "--d", "1,2", "--ranks", "3,2;3",
            "--prime", "2", "--guard", "0",
        )
        assert code == 2 and out == ""
        assert "needs explicit maps" in json.loads(err)["error"]["message"]

    def test_a_rank_table_sample_is_refused_before_the_census(self, capsys, monkeypatch):
        def no_census(*args):
            raise AssertionError("the census ran")

        monkeypatch.setattr(cli, "_census", no_census)
        code, out, err = run_cli(
            capsys, "enumerate", "--m", "3", "--d", "1,2", "--ranks", "3,2;3",
            "--prime", "2", "--census", "--limit", "2",
        )
        assert code == 2 and out == ""
        assert "needs explicit maps" in json.loads(err)["error"]["message"]

    def test_census_reads_the_orbit_and_builds_no_matrix(self, capsys, monkeypatch):
        """A census without a sample reads the rank table alone, so zero
        sets and the same orbit given as ranks give one census."""
        def no_matrices(*args):
            raise AssertionError("the census built a matrix")

        monkeypatch.setattr(ProjectionTuple, "matrices", no_matrices)
        monkeypatch.setattr(orbits, "rank_profile", no_matrices)
        payloads = []
        for maps in (["--zero-sets", "1;2"], ["--ranks", "5,4,3;5,4;5"]):
            code, out, _ = run_cli(
                capsys, "enumerate", "--m", "5", "--d", "1,2,4", *maps,
                "--prime", "2", "--census", "--limit", "0", "--format", "json",
            )
            assert code == 0
            payloads.append(json.loads(out))
        census = {"total": 4819, "singular": 395, "smooth": 4424}
        assert [p["census"] for p in payloads] == [census, census]
        assert [p["fixed_points"] is None for p in payloads] == [False, True]

    @pytest.mark.parametrize(
        "prime, m, d, zero_sets, base_change",
        [
            (2, 3, [1, 2], [[1]], False),
            (3, 4, [1, 3], [[1]], False),
            (2, 3, [1, 2], [[1, 2, 3]], False),
            (2, 4, [1, 2, 3], [[1], [1, 2, 3, 4]], False),
            (3, 3, [1, 2], [[1]], True),
        ],
    )
    def test_census_matches_brute_force(
        self, tmp_path, capsys, prime, m, d, zero_sets, base_change
    ):
        rep = ProjectionTuple(m, tuple(map(frozenset, zero_sets))).matrices(GF(prime))
        problem = {"m": m, "d": d, "zero_sets": zero_sets}
        if base_change:
            rep = _conjugate(random.Random(0), rep)
            problem = {"m": m, "d": d, "maps": [
                {"kind": "matrix", "entries": [list(row) for row in A.entries]} for A in rep.maps
            ]}
        path = write_problem(tmp_path, "p.json", problem)
        code, out, _ = run_cli(
            capsys, "enumerate", "--input", str(path), "--prime", str(prime),
            "--census", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["census"] == asdict(census_oracle(rep, DimVector(m, d)))


class TestFixedPoints:
    def test_single_kill(self, capsys):
        code, out, _ = run_cli(
            capsys, "fixed-points", "--m", "3", "--d", "1,2", "--zero-sets", "1"
        )
        assert code == 0
        assert "fixed points: 7" in out
        assert "{1} <= {2,3}" in out

    def test_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "fixed-points", "--m", "3", "--d", "1,2", "--zero-sets", "1",
            "--format", "json",
        )
        payload = json.loads(out)
        assert payload["count"] == 7
        assert [[1], [2, 3]] in payload["points"]

    def test_needs_projections(self, capsys):
        code, _, _ = run_cli(
            capsys, "fixed-points", "--m", "3", "--d", "1,2", "--ranks", "3,2;3"
        )
        assert code == 2

    def test_huge_search_space_exits_3(self, capsys):
        code, _, err = run_cli(
            capsys, "fixed-points", "--m", "300000", "--d", "1,150000", "--zero-sets=-"
        )
        assert code == 3
        assert "at least 2^" in json.loads(err)["error"]["message"]


class TestSingular:
    def test_exact_model(self, capsys):
        code, out, _ = run_cli(
            capsys, "singular", "--m", "6", "--d", "1,4", "--ranks", "6,5;6",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["singular"]["kind"] == "exact"
        assert payload["singular"]["singular_dim"] == 4
        assert payload["singular"]["model"]["h"] == 1

    def test_witness(self, capsys):
        code, out, _ = run_cli(
            capsys, "singular", "--m", "6", "--d", "1,4", "--zero-sets", "1",
            "--witness", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        witness = payload["witness"]
        assert witness["ext"] >= 1
        assert witness["singular"] is True
        assert witness["coordinates"][0] == [1]

    def test_witness_is_analyzed_as_an_index_chain(self, capsys, monkeypatch):
        # the witness goes from its recipe to its analysis and its report as
        # index subsets: no subspace is built, so the cost is linear in m
        calls = {Subspace: 0, SubrepPoint: 0}
        for owner in calls:
            inner = owner.__post_init__

            def counted(self, owner=owner, inner=inner):
                calls[owner] += 1
                inner(self)

            monkeypatch.setattr(owner, "__post_init__", counted)
        code, out, _ = run_cli(
            capsys, "singular", "--m", "5", "--d", "1,2,4", "--zero-sets=-;1",
            "--witness", "--format", "json",
        )
        assert code == 0 and calls == {Subspace: 0, SubrepPoint: 0}
        model = {
            "h": 2,
            "module": [{"start": 1, "end": 1, "mult": 1}, {"start": 1, "end": 3, "mult": 4}],
            "module_dims": [5, 4, 4],
            "sub_dims": [1, 1, 4],
            "singular_dim": 4,
            "singular_codim": 5,
        }
        assert json.loads(out) == {
            "tool": "lindeg",
            "version": __version__,
            "command": "singular",
            "input_sha256": "961addac4fb48695a6b7ec6ca8f769d653ddcbd73857ffa61e5304d31617bf07",
            "m": 5,
            "n": 3,
            "d": [1, 2, 4],
            "edge_ranks": [5, 4],
            "singular": {
                "kind": "exact",
                "ambient_dim": 9,
                "codim_lower": 5,
                "codim_upper": 5,
                "singular_dim": 4,
                "model": model,
            },
            "witness": {
                "coordinates": [[1], [1, 2], [2, 3, 4, 5]],
                "tangent_dim": 10,
                "ext": 1,
                "singular": True,
            },
        }

    def test_witness_needs_projections(self, capsys):
        code, _, _ = run_cli(
            capsys, "singular", "--m", "6", "--d", "1,4", "--ranks", "6,5;6", "--witness"
        )
        assert code == 2

    def test_reducible_is_error(self, capsys):
        code, _, err = run_cli(
            capsys, "singular", "--m", "6", "--d", "1,4", "--ranks", "6,1;6"
        )
        assert code == 2
        assert json.loads(err)["error"]["type"] == "NotIrreducibleError"


class TestVerify:
    def test_single_fast_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "sigma", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["suites"][0]["name"] == "sigma"
        assert payload["suites"][0]["checks"] > 0

    def test_table_format(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "sigma")
        assert code == 0
        assert "all suites passed" in out
        assert "sigma" in out

    def test_unknown_suite(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--suite", "nope")
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "ValidationError"

    def test_failure_exit_code(self, capsys, monkeypatch):
        fake = SuiteResult("sigma", False, 1, ("boom",))
        monkeypatch.setattr(cli, "run_suites", lambda names, seed: [fake])
        code, out, _ = run_cli(capsys, "verify", "--suite", "sigma")
        assert code == 1
        assert "SUITE FAILURES" in out

    def test_table_stdout_does_not_read_the_clock(self, capsys, monkeypatch):
        # a clock whose steps grow gives every timed run a different duration
        ticks = itertools.count()
        monkeypatch.setattr(time, "monotonic", lambda: next(ticks) ** 2)
        runs = [run_cli(capsys, "verify", "--suite", "sigma") for _ in range(2)]
        assert runs[0][0] == 0
        assert runs[0][1] == runs[1][1]


class TestEntrypoint:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == f"lindeg {__version__}"

    def test_console_script(self):
        result = subprocess.run(
            [sys.executable, "-m", "lindeg.cli", "classify", "--m", "3", "--d", "1,2",
             "--zero-sets", "-", "--format", "json"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert json.loads(result.stdout)["dimension"] == 3

    def test_parser_is_built_once(self, capsys, monkeypatch):
        builds = []
        add_subparsers = argparse.ArgumentParser.add_subparsers

        def counted(self, **kwargs):
            builds.append(self.prog)
            return add_subparsers(self, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", counted)
        for _ in range(2):
            code, _, _ = run_cli(capsys, "strata", "--n", "2", "--format", "json")
            assert code == 0
        assert len(builds) <= 1

    def test_golden_invocations_replay(self):
        """Every invocation recorded in the benchmark's golden CLI answers
        gives the same stdout, by the first 16 hex digits of its SHA-256."""
        golden = json.loads(GOLDEN_CLI.read_text())
        assert golden and all(golden.values())
        mismatched = []
        for argv, expected in (item for items in golden.values() for item in items):
            out = io.StringIO()
            with redirect_stdout(out):
                code = cli.main(argv)
            got = hashlib.sha256(out.getvalue().encode()).hexdigest()[:16]
            if code != 0 or got != expected:
                mismatched.append((argv, code, got, expected))
        assert mismatched == []

    def test_imports_load_no_numpy(self):
        # the exact core is pure Python; the library has no third-party dependency
        result = subprocess.run(
            [sys.executable, "-c",
             "import sys, lindeg, lindeg.cli; print('numpy' in sys.modules)"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert result.stdout.strip() == "False"


NEGATIVE_LIMIT = [
    "enumerate", "--m", "3", "--d", "1,2", "--zero-sets", "1", "--prime", "2",
    "--limit", "-1", "--format", "json",
]


class TestContract:
    """Every rejection is exit 2 with a JSON error object on stderr."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--suite", "nope"],
            ["classify", "--m", "x"],
            ["singular", "--m", "5", "--d", "1,2,4", "--zero-sets", "-;1", "--witness"],
            [],
            NEGATIVE_LIMIT,
            [*NEGATIVE_LIMIT, "--census"],
            ["enumerate", "--m", "3", "--d", "1,2", "--zero-sets", "1", "--prime", "2",
             "--guard", "-5"],
            ["orbits", "--m", "3", "--n", "2", "--guard", "-5"],
            ["strata", "--n", "3", "--guard", "-5"],
        ],
        ids=[
            "unknown-suite", "non-integer", "value-like-an-option", "no-command",
            "negative-limit", "negative-limit-census", "negative-guard-enumerate",
            "negative-guard-orbits", "negative-guard-strata",
        ],
    )
    def test_parser_rejections_are_json_errors(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "ValidationError"

    @pytest.mark.parametrize(
        "sources",
        [
            {"maps": [{"kind": "projection", "zero_indices": [1]}], "ranks": [[3, 3], [3]]},
            {"zero_sets": [[1]], "ranks": [[3, 2], [3]]},
            {"zero_sets": [[1]], "maps": [{"kind": "identity"}]},
        ],
        ids=["maps+ranks", "zero_sets+ranks", "zero_sets+maps"],
    )
    def test_two_descriptions_are_rejected(self, tmp_path, capsys, sources):
        path = write_problem(tmp_path, "two.json", {"m": 3, "d": [1, 2], **sources})
        for command in (["classify"], ["enumerate", "--prime", "2"], ["fixed-points"],
                        ["singular"]):
            code, out, err = run_cli(capsys, *command, "--input", str(path))
            assert code == 2 and out == "", command
            assert json.loads(err)["error"]["type"] == "ValidationError", command

    @pytest.mark.parametrize(
        "m, d, ranks", [("4", "1,2,3", "4,3,4;4,3;4"), ("3", "1,2", "3,-1;3")]
    )
    def test_a_rank_table_must_be_an_orbit(self, capsys, m, d, ranks):
        # no tuple of maps has these tables: each has a negative multiplicity
        for command in (["classify"], ["singular"], ["enumerate", "--prime", "2", "--census"]):
            code, out, err = run_cli(
                capsys, *command, "--m", m, "--d", d, "--ranks", ranks, "--format", "json"
            )
            assert code == 2 and out == "", command
            assert json.loads(err)["error"]["type"] == "NotRealizableError", command

    def test_huge_search_space_is_a_guard_error(self, capsys):
        # the size has about 9,000 decimal digits, too many to print exactly
        code, out, err = run_cli(
            capsys, "enumerate", "--m", "5000", "--d", "1,2", "--zero-sets", "1",
            "--prime", "2", "--guard", "10",
        )
        assert code == 3 and out == ""
        assert json.loads(err)["error"]["type"] == "GuardExceededError"

    def test_huge_grassmannian_trips_the_guard_at_once(self, capsys):
        # the exact size is a product of Gaussian binomials of about 2.25
        # million bits; the guard is settled by a lower bound instead
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "enumerate", "--m", "3000", "--d", "1,1500", "--zero-sets", "1",
            "--prime", "2", "--guard", "10",
        )
        assert time.perf_counter() - start < 1
        assert code == 3 and out == ""
        assert "at least 2^" in json.loads(err)["error"]["message"]

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_any_flag_values_exit_cleanly(self, data):
        """Exit 0, or 2/3 with a JSON error object; argparse never exits."""
        command, flags = data.draw(st.sampled_from(sorted(COMMAND_FLAGS.items())))
        words = [command, *COMMAND_FIXED.get(command, ())]
        for flag in flags:
            value = data.draw(flag_values(flag))
            if value is not None:
                words += [f"{flag}={value}"] if data.draw(st.booleans()) else [flag, value]
        if command in ("enumerate", "singular") and data.draw(st.booleans()):
            words.append("--census" if command == "enumerate" else "--witness")
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = cli.main(words)
        assert code in (0, 2, 3), words
        if code:
            assert "error" in json.loads(err.getvalue()), words


PROBLEM_FLAGS = ["--m", "--d", "--prime", "--ranks", "--zero-sets", "--format"]
COMMAND_FLAGS = {
    "classify": PROBLEM_FLAGS,
    "enumerate": [*PROBLEM_FLAGS, "--limit", "--guard"],
    "fixed-points": PROBLEM_FLAGS,
    "singular": PROBLEM_FLAGS,
    "orbits": ["--m", "--n", "--d", "--guard", "--format"],
    "strata": ["--m", "--n", "--d", "--guard", "--format"],
    "verify": ["--seed", "--format"],
}
# a small enumeration guard keeps every run fast; verify gets a bare --suite
# whose value would be the next flag or nothing, so no suite ever runs
COMMAND_FIXED = {"enumerate": ("--guard", "300"), "verify": ("--suite",)}
# the first plausible values make a valid call; derandomized draws favour them
PLAUSIBLE = {
    "--m": ["4", "3"],
    "--n": ["2", "3"],
    "--d": ["1,2", "1,2,3"],
    "--prime": ["2", "3"],
    "--ranks": ["", "3,2;3", "4,3;4", "4,3,2;4,3;4"],
    "--zero-sets": ["1", "-", "1;-", "-;1", ""],
    "--format": ["table", "json", "dot"],
    "--limit": ["0", "2"],
    "--guard": ["300", "5"],
    "--seed": ["0"],
}
JUNK_VALUE = st.one_of(st.integers(-2, 6).map(str), st.text(alphabet="-,;0123x ", max_size=5))


def flag_values(flag):
    """Mostly a plausible value of ``flag``; junk or None (the flag is left
    out) one draw in ten each."""
    plausible = st.sampled_from(PLAUSIBLE[flag])
    return st.integers(0, 9).flatmap(
        lambda k: plausible if k < 8 else JUNK_VALUE if k == 8 else st.none()
    )


# Arbitrary small problem files.  Each field is mostly absent or plausible
# and sometimes junk of any JSON type, so that runs reach the commands as well
# as the input checks.  Integers stay small so that every command finishes fast.
SMALL_INT = st.integers(-1, 6)
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    SMALL_INT,
    st.floats(allow_nan=False, allow_infinity=False, width=16),
    st.text(max_size=3),
    st.lists(SMALL_INT, max_size=3),
    st.dictionaries(st.text(max_size=2), SMALL_INT, max_size=2),
)
SCALAR = st.one_of(st.integers(-2, 2), st.sampled_from(["1/2", "-2/3", "1/0", "x"]), JUNK)
FIELD = st.sampled_from([0, 2, 3, 4, 7, "Q", "5", {"prime": 3}])
KIND = st.sampled_from(["identity", "zero", "projection", "matrix", "other"])


def junk_or(good):
    """Mostly ``good``, junk one draw in ten."""
    return st.integers(0, 9).flatmap(lambda k: JUNK if k == 0 else good)


@st.composite
def problem_files(draw):
    if draw(st.integers(0, 19)) == 0:
        return draw(JUNK)
    size = draw(st.integers(2, 5))
    n = draw(st.integers(1, min(3, size - 1)))
    d = sorted(draw(st.sets(st.integers(1, size - 1), min_size=n, max_size=n)))
    if draw(st.integers(0, 9)) == 0:
        d = sorted({*d, draw(st.sampled_from([0, size]))})
    edges = len(d) - 1
    indices = st.one_of(
        st.sampled_from([[], [1]]),
        st.lists(st.integers(1, size), max_size=2),
        st.lists(st.integers(0, size + 1), max_size=3),
    )
    matrix = st.lists(
        st.lists(SCALAR, min_size=size, max_size=size), min_size=size, max_size=size
    )
    map_spec = st.fixed_dictionaries(
        {"kind": KIND},
        optional={"zero_indices": indices, "entries": matrix},
    )
    ranks = st.tuples(
        *(st.lists(st.integers(0, size), min_size=edges - a, max_size=edges - a)
          .map(lambda row: [size, *row])
          for a in range(len(d)))
    ).map(list)
    problem = {"m": draw(junk_or(st.just(size))), "d": draw(junk_or(st.just(d)))}
    if draw(st.integers(0, 4)) == 0:
        problem["n"] = draw(junk_or(st.sampled_from([len(d), len(d) + 1])))
    if draw(st.booleans()):
        problem["field"] = draw(junk_or(FIELD))
    source = draw(st.sampled_from(["maps", "ranks", "zero_sets", "none", "two"]))
    if source in ("maps", "two"):
        maps = st.lists(junk_or(map_spec), min_size=edges, max_size=edges)
        problem["maps"] = draw(junk_or(maps))
    if source in ("ranks", "two"):
        problem["ranks"] = draw(junk_or(ranks))
    if source == "zero_sets":
        zero_sets = st.lists(indices, min_size=edges, max_size=edges)
        problem["zero_sets"] = draw(junk_or(zero_sets))
    return problem


# the small guard keeps each enumeration to a few hundred subspace tuples
FUZZ_COMMANDS = (
    ("classify",),
    ("enumerate", "--guard", "300"),
    ("enumerate", "--census", "--prime", "2", "--guard", "300"),
    ("fixed-points",),
    ("singular",),
    ("singular", "--witness"),
)


@pytest.fixture(scope="module")
def problem_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "problem.json"


class TestFuzz:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(problem=problem_files())
    def test_any_problem_file_exits_cleanly(self, problem_path, problem):
        """Exit 0, or 2/3 with a JSON error object on stderr; never a traceback."""
        problem_path.write_text(json.dumps(problem))
        for command in FUZZ_COMMANDS:
            err = io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                code = cli.main([*command, "--input", str(problem_path)])
            assert code in (0, 2, 3), (command, problem)
            if code:
                assert "error" in json.loads(err.getvalue()), (command, problem)
