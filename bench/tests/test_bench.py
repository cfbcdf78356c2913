"""Self-tests of the benchmark.

    PYTHONPATH=src python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from worker import measure, summarize  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)


@pytest.fixture(autouse=True)
def checkout_on_path(monkeypatch):
    """CLI jobs are child processes; they must import the checkout's lindeg."""
    path = os.environ.get("PYTHONPATH")
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src") + (os.pathsep + path if path else ""))


def one_round(elapsed, jobs):
    return jobs > 0


def job_keys(name: str, seed: int) -> list:
    wl = workloads.WORKLOADS[name](seed)
    return [wl.key(wl.warmup_job())] + [wl.key(job) for _ in range(2) for job in wl.round()]


@pytest.mark.parametrize("name", NAMES)
def test_jobs_repeat_on_a_seed_differ_across_seeds_and_are_distinct(name):
    keys = job_keys(name, 7)
    assert keys == job_keys(name, 7)
    assert keys != job_keys(name, 8)
    assert len(set(keys)) == len(keys)


def corrupted(name: str):
    """The recorded answers of a workload with every expected output changed."""
    golden = workloads.load_golden({"cli-cold": "cli"}.get(name, name))
    if name == "census":
        return {key: [total + 1, singular] for key, (total, singular) in golden.items()}
    if name == "poset":
        return [{**e, "dots": {d: "0" * 16 for d in e["dots"]}} for e in golden]
    if name == "verify":
        return {suite: [c + 1 for c in counts] for suite, counts in golden.items()}
    return {command: [[argv, "0" * 16] for argv, _ in problems] for command, problems in golden.items()}


@pytest.mark.parametrize("name", NAMES)
def test_corrupted_answers_drive_ok_ratio_below_one(name):
    wl = workloads.WORKLOADS[name](3, answers=corrupted(name))
    ok_ratio, _ = summarize(measure(wl, one_round))["ok_ratio"]
    assert ok_ratio < 1


@pytest.mark.parametrize("name", NAMES)
def test_traced_and_untraced_runs_give_identical_correct_outputs(name):
    plain = measure(workloads.WORKLOADS[name](5), one_round)
    tracer = tracing.Tracer().install()
    try:
        wl = workloads.WORKLOADS[name](5)
        wl.tracer = tracer
        traced = measure(wl, one_round, tracer)
    finally:
        tracer.uninstall()
    assert [r.output for r in plain[0]] == [r.output for r in traced[0]]
    assert all(r.ok for r in plain[0] + traced[0])
    assert any(tracer.counts().values())


def test_host_speed_scale_is_nominal_over_the_local_median():
    speed = hostspeed.HostSpeed()
    speed.gap(2.5 * hostspeed.SAMPLE_EVERY_S)
    assert len(speed.gaps[0]) == 3 and all(x > 0 for x in speed.gaps[0])
    speed.gaps = [[0.002], [0.008, 0.010], [0.016], [0.004]]
    assert speed.scale(-1, 3) == pytest.approx(hostspeed.NOMINAL_S / 0.009)
    assert speed.scale(0, 4) == hostspeed.NOMINAL_S / 0.008
    assert speed.scale(3, 7) == hostspeed.NOMINAL_S / 0.004


def test_job_times_are_wall_times_scaled_by_the_host_speed():
    rounds = measure(workloads.WORKLOADS["verify"](3), one_round)
    ratios = [r.seconds / r.wall for r in rounds[0]]
    assert all(r.wall > 0 for r in rounds[0])
    # the kernel ran next to the jobs, so its speed is the same order as nominal
    assert all(0.1 < x < 10 for x in ratios)


def test_cli_jobs_are_left_for_run_py_to_scale():
    rounds = measure(workloads.WORKLOADS["cli-cold"](3), one_round)
    assert all(r.seconds == r.wall > 0 for r in rounds[0])


def traced_counts(name: str) -> dict:
    tracer = tracing.Tracer().install()
    try:
        wl = workloads.WORKLOADS[name](11)
        measure(wl, one_round, tracer)
    finally:
        tracer.uninstall()
    return tracer.counts()


@pytest.mark.parametrize("name", ["census", "verify"])
def test_per_layer_counts_repeat_on_a_seed(name):
    assert traced_counts(name) == traced_counts(name)


def test_uninstall_restores_every_traced_function():
    import lindeg

    bound = {
        (mod.__name__, key): value
        for mod in list(sys.modules.values())
        if mod is not None and mod.__name__.startswith("lindeg")
        for key, value in vars(mod).items()
        if callable(value)
    }
    methods = (lindeg.Field.coerce, lindeg.RankSequence.leq)
    tracer = tracing.Tracer().install()
    assert lindeg.linalg.rref is not bound[("lindeg.linalg", "rref")]
    assert lindeg.enumeration.map_subspace is not bound[("lindeg.enumeration", "map_subspace")]
    tracer.uninstall()
    for (module, key), value in bound.items():
        assert getattr(sys.modules[module], key) is value
    assert (lindeg.Field.coerce, lindeg.RankSequence.leq) == methods


def test_metric_names_match_benchmark_json():
    import json

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    traced = set(tracing.Tracer().metrics()) | {"trace.items_per_s", "cli.main_warm_ms",
                                                 "cli.interpreter_s", "cli.import_s"}
    assert {m["name"] for m in spec["per_layer"]} == traced
    assert {w["name"] for w in spec["workloads"]} == set(NAMES)


def test_run_fails_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
