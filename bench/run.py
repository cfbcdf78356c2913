"""Benchmark of lindeg: one seeded workload per run, one JSON line of metrics.

    python3 bench/run.py --workload census --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; it imports the library from ``src/``.
With ``--trace 0`` it prints the end-to-end metrics, among them ``setup_s``,
the median over SAMPLES fresh interpreters of the time from process
start to the first timed job, scaled to a nominal host (see hostspeed.py).  With ``--trace 1`` it prints the per-layer
metrics of a traced run instead.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import START_NOMINAL_S, start_sample

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("census", "poset", "verify", "cli-cold")
SAMPLES = 8  # fresh interpreters per start-up timing
RUN_TIMEOUT_S = 170


class Worker:
    """A worker process; ``ready_s`` is the time from its start to the end of set-up."""

    def __init__(self, args, setup_only: bool):
        cmd = [sys.executable, str(BENCH / "worker.py"), args.workload, str(args.seed),
               str(args.seconds), str(args.trace)]
        if setup_only:
            cmd.append("--setup-only")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True)
        try:
            line = self.proc.stdout.readline()
            self.ready_s = time.perf_counter() - t0
            if line != "ready\n":
                raise SystemExit(f"bench: worker failed during set-up: {line!r}")
        except BaseException:
            self.stop()
            raise

    def finish(self) -> str:
        try:
            out, _ = self.proc.communicate(timeout=RUN_TIMEOUT_S)
        finally:
            self.stop()
        if self.proc.returncode != 0:
            raise SystemExit(f"bench: worker exited with code {self.proc.returncode}")
        return out

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def setup_sample(args) -> tuple[float, float]:
    """Set-up time of a fresh worker, and a start-up reference taken right after."""
    w = Worker(args, setup_only=True)
    w.finish()
    return w.ready_s, start_sample()


def probe(code: str) -> tuple[float, str]:
    """Wall time and stdout of one fresh ``python -c code``."""
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    return time.perf_counter() - t0, out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "lindeg" / "__init__.py").is_file():
        print(f"bench: no lindeg package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    # every interpreter started below imports the checkout's lindeg
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")

    # byte-compile first and import once, so every timed interpreter starts alike
    compileall.compile_dir(SRC, quiet=1)
    compileall.compile_dir(BENCH, quiet=1, maxlevels=0)
    probe("import lindeg")

    if args.trace:
        interpreter = [probe("pass")[0] for _ in range(SAMPLES)]
        imports = [float(probe(
            "import time; t = time.perf_counter(); import lindeg; print(time.perf_counter() - t)"
        )[1]) for _ in range(SAMPLES)]
        result = json.loads(Worker(args, setup_only=False).finish().splitlines()[-1])
        result.pop("fresh_process")
        result["metrics"]["cli.interpreter_s"] = {"value": statistics.median(interpreter), "unit": "s"}
        result["metrics"]["cli.import_s"] = {"value": statistics.median(imports), "unit": "s"}
    else:
        # half the set-up samples before the timed jobs and half after, so the
        # median spans the run rather than one moment of a shared machine
        setups = [setup_sample(args) for _ in range(SAMPLES // 2)]
        result = json.loads(Worker(args, setup_only=False).finish().splitlines()[-1])
        setups += [setup_sample(args) for _ in range(SAMPLES // 2)]
        ready, starts = zip(*setups)
        # set-up and CLI jobs are mostly process start: scale them by the
        # start-up reference of this run (see hostspeed.py)
        scale = START_NOMINAL_S / statistics.median(starts)
        metrics = result["metrics"]
        metrics["setup_s"] = {"value": statistics.median(ready) * scale, "unit": "s"}
        if result.pop("fresh_process"):
            metrics["items_per_s"]["value"] /= scale
            metrics["latency_p50_ms"]["value"] *= scale
            metrics["latency_p90_ms"]["value"] *= scale
        print(f"bench: unscaled wall-clock setup_s: {statistics.median(ready)}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
