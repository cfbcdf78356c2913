"""One fresh interpreter that sets up a workload and times it.

Usage (started by run.py): python bench/worker.py WORKLOAD SEED SECONDS TRACE [--setup-only]

Set-up is ``import lindeg``, making the workload's pool and one warm-up job;
the worker prints ``ready`` when it is done, so the parent can time set-up
from process start.  It then times whole rounds of jobs, one at a time (a
closed loop with one client), and prints one JSON line.  An untraced run
stops at the first round boundary past SECONDS with at least MIN_JOBS jobs;
a traced run stops at the first boundary past MIN_JOBS jobs whatever the
time, so that its counts repeat exactly on the same seed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

import lindeg
from hostspeed import HostSpeed
from tracing import Tracer
from workloads import BENCH, ROOT, WORKLOADS, Cli

# p90 then has at least ten samples beyond it
MIN_JOBS = 100


@dataclass
class Result:
    wall: float  # seconds on the clock
    items: int
    ok: bool
    output: str
    seconds: float = 0.0  # wall, scaled to the nominal host if the job runs in process


def execute(workload, job, tracer: Tracer | None) -> Result:
    """Time one job, then check its output; a job that raises counts as failed."""
    t0 = time.perf_counter()
    try:
        out = workload.run(job)
    except Exception:
        traceback.print_exc()
        return Result(time.perf_counter() - t0, 0, False, "error")
    dt = time.perf_counter() - t0
    with tracer.paused() if tracer else contextlib.nullcontext():
        try:
            ok = workload.check(job, out)
        except Exception:
            traceback.print_exc()
            ok = False
    return Result(dt, workload.items(job, out) if ok else 0, ok, workload.output(out))


def measure(workload, stop, tracer: Tracer | None = None) -> list[list[Result]]:
    """Run whole rounds until ``stop(elapsed_s, jobs)`` holds at a round's end.

    For an in-process workload the host-speed kernel runs before the first
    job and after every job, so job ``i`` lies between gaps ``i`` and
    ``i + 1``; its time is scaled by the median of the samples in the two
    gaps before it and the two after.  Otherwise a job's time is its wall
    time, and run.py scales the run's figures instead.
    """
    speed = HostSpeed() if workload.in_process else None
    if speed:
        speed.gap()
    rounds: list[list[Result]] = []
    start = time.perf_counter()
    while not stop(time.perf_counter() - start, sum(map(len, rounds))):
        with tracer.paused() if tracer else contextlib.nullcontext():
            jobs = workload.round()
        results = []
        for job in jobs:
            results.append(execute(workload, job, tracer))
            if speed:
                speed.gap(results[-1].wall)
        rounds.append(results)
    for i, r in enumerate(r for jobs in rounds for r in jobs):
        r.seconds = r.wall * speed.scale(i - 1, i + 3) if speed else r.wall
    return rounds


def items_per_s(rounds: list[list[Result]], clock: str = "seconds") -> float:
    """Median over rounds of the work done per second of job time.

    Every round has the same mix, so a round is one sample of the throughput,
    and the median keeps a short stall of the machine from moving the figure.
    ``clock`` is "seconds" for scaled job times and "wall" for unscaled ones.
    """
    return statistics.median(
        sum(r.items for r in jobs) / sum(getattr(r, clock) for r in jobs) for jobs in rounds
    )


def summarize(rounds: list[list[Result]], clock: str = "seconds") -> dict:
    results = [r for jobs in rounds for r in jobs]
    lat = [getattr(r, clock) for r in results]
    failed = sum(not r.ok for r in results)
    return {
        "items_per_s": (items_per_s(rounds, clock), "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_p90_ms": (statistics.quantiles(lat, n=10, method="inclusive")[8] * 1e3, "ms"),
        "ok_ratio": ((len(results) - failed) / len(results), "ratio"),
    }


def cli_main_warm_ms(seed: int) -> float:
    """Median time of the cli-cold problems through ``cli.main`` in this process."""
    import lindeg.cli

    argvs = [argv for _ in range(2) for argv, _ in Cli(seed).round()]

    def once(argv) -> float:
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            lindeg.cli.main(list(argv))
        return time.perf_counter() - t0

    for argv in argvs:
        once(argv)
    return statistics.median(once(argv) for argv in argvs for _ in range(3)) * 1e3


def fingerprint() -> str:
    """Hash of the library, the benchmark and its answers."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src" / "lindeg").rglob("*.py")) + sorted(BENCH.glob("*.py"))
    for path in files + sorted((BENCH / "golden").glob("*.json")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def check_repeat(workload: str, seed: int, counts: dict) -> None:
    """Compare the counts with an earlier traced run of the same code and seed."""
    path = ROOT / ".bench_out" / f"trace-counts-{workload}-{seed}-{fingerprint()}.json"
    if path.exists():
        before = json.loads(path.read_text())
        if before != counts:
            diff = {k: (before.get(k), counts.get(k)) for k in sorted(set(before) | set(counts))
                    if before.get(k) != counts.get(k)}
            raise SystemExit(f"bench: per-layer counts differ from the earlier traced run: {diff}")
        return
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(counts, indent=1, sort_keys=True))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("seed", type=int)
    ap.add_argument("seconds", type=float)
    ap.add_argument("trace", type=int, choices=(0, 1))
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    if not lindeg.__file__.startswith(str(ROOT / "src")):
        raise SystemExit(f"bench: imported lindeg from {lindeg.__file__}, not from the checkout")

    tracer = Tracer().install() if args.trace else None
    workload = WORKLOADS[args.workload](args.seed)
    workload.tracer = tracer
    with tracer.paused() if tracer else contextlib.nullcontext():
        warm = workload.warmup_job()
    warm_ok = execute(workload, warm, tracer).ok
    print("ready", flush=True)
    if args.setup_only:
        return 0

    if tracer:
        rounds = measure(workload, lambda elapsed, jobs: jobs >= MIN_JOBS, tracer)
        tracer.uninstall()
        counts = {"jobs": sum(map(len, rounds)), **tracer.counts()}
        check_repeat(args.workload, args.seed, counts)
        metrics = tracer.metrics()
        metrics["trace.items_per_s"] = (items_per_s(rounds), "1/s")
        metrics["cli.main_warm_ms"] = (cli_main_warm_ms(args.seed), "ms")
    else:
        rounds = measure(
            workload, lambda elapsed, jobs: elapsed >= args.seconds and jobs >= MIN_JOBS
        )
        metrics = summarize(rounds)
        wall = {k: v for k, (v, _) in summarize(rounds, "wall").items() if k != "ok_ratio"}
        print(f"bench: unscaled wall-clock figures: {json.dumps(wall)}", file=sys.stderr)
        who = resource.RUSAGE_CHILDREN if isinstance(workload, Cli) else resource.RUSAGE_SELF
        metrics["peak_rss_mb"] = (resource.getrusage(who).ru_maxrss / 1024, "MB")

    results = [r for jobs in rounds for r in jobs]
    failed = sum(not r.ok for r in results)
    print(json.dumps({
        "correct": warm_ok and failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "fresh_process": not workload.in_process,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
