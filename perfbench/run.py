#!/usr/bin/env python3
"""Benchmark of the empers package: one workload, one seed, one result line.

    python3 perfbench/run.py --workload shapes_pipeline --seed 1 --seconds 28 --trace 0

Run from the root of a checkout; the package is imported from ``src/`` and
the oracles from ``tests/oracles.py``. The workload's inputs are made from
``--seed``. Whole batch jobs then run back to back, each in a fresh empty
directory: one job, then more while the next is expected to end within
``--seconds`` of measured time. Every job's outputs are checked against the
oracles after its clock stops.

With ``--trace 0`` the result carries the end-to-end metrics of
BENCHMARK.json: the mean job's wall time and throughput, the set-up time
(the median of three cold starts of a child that imports and makes the
inputs, then exits) and the peak resident memory. With ``--trace 1`` one
more job runs with spans around each layer and the result carries the
per-layer metrics. The last line of standard output is the result; the line
before it records the sizes, versions and machine load.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SETUP_STARTS = 3


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny sizes, for the benchmark's own smoke test")
    parser.add_argument("--setup-only", action="store_true",
                        help="import and make the inputs, then exit (times set-up)")
    return parser.parse_args(argv)


def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def _git_commit() -> str | None:
    """HEAD of the checkout's own .git, if it has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _setup_seconds(args) -> float:
    """Median wall time of cold child processes that import and set up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-only"]
    cmd += ["--tiny"] if args.tiny else []
    times = []
    for _ in range(SETUP_STARTS):
        start = perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - start)
    return statistics.median(times)


def _peak_rss_mb() -> float:
    """Peak resident memory of this process plus that of its largest
    finished child (a pool worker), in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


class _Job:
    """Runs and checks batch jobs, counting operations and failures."""

    def __init__(self, workload, inputs, items: int, work_dir: Path, rng: random.Random):
        self.workload, self.inputs, self.items = workload, inputs, items
        self.work_dir, self.rng = work_dir, rng
        self.attempted = self.failed = 0
        self.quality: dict = {}
        self._count = 0

    def run(self, tracer=None) -> float:
        """One job in a fresh directory; returns its wall time."""
        self._count += 1
        out_dir = self.work_dir / f"job{self._count}"
        out_dir.mkdir()
        self.attempted += self.items
        start = perf_counter()
        wall = None
        try:
            with tracer.installed() if tracer else nullcontext():
                outputs = self.workload.run(self.inputs, out_dir)
            wall = perf_counter() - start
            problems, self.quality = self.workload.check(self.inputs, outputs, out_dir, self.rng)
        except Exception:
            traceback.print_exc()
            problems = [f"the job raised; its {self.items} {self.workload.item} count as failed"]
            self.failed += self.items
        else:
            self.failed += min(len(problems), self.items)
        for problem in problems:
            print(f"check failed: {self.workload.name}: {problem}", file=sys.stderr)
        shutil.rmtree(out_dir)
        return wall if wall is not None else perf_counter() - start


def _measure(args, workload, sizes, spec) -> tuple[dict, dict]:
    import numpy
    import scipy
    import spans

    info = {"workload": args.workload, "item": workload.item, "seed": args.seed, "sizes": sizes,
            "trace": args.trace, "git_commit": _git_commit(), "src_digest": _source_digest(),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "loadavg_start": _loadavg()}

    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        inputs = workload.setup(args.seed, sizes)
        items = workload.items(sizes)
        job = _Job(workload, inputs, items, work_dir, random.Random(args.seed))
        walls = [job.run()]
        while sum(walls) + statistics.median(walls) <= args.seconds:
            walls.append(job.run())
        # the mean, not the median: this machine's speed drifts in phases of
        # seconds, and averaging every measured job spreads less between runs
        wall = statistics.mean(walls)
        info["job_walls_s"] = walls

        if args.trace:
            spill_dir = work_dir / "spans"
            spill_dir.mkdir()
            tracer = spans.Tracer(spill_dir)
            traced_wall = job.run(tracer)
            values = spans.layer_metrics(tracer.all_spans())
            idle = [layer for layer in workload.layers if not values.get(f"{layer}.calls")]
            if idle:
                raise RuntimeError(f"traced run recorded no calls into {idle}; "
                                   "a span wrapper is missing")
            values.update(job.quality)
            values["trace.overhead_s"] = traced_wall - wall
            names = spec["per_layer"]
        else:
            # memory first: the set-up children would count as finished children
            values = {"wall_s": wall, "items_per_s": items / wall, "peak_rss_mb": _peak_rss_mb()}
            values["setup_s"] = _setup_seconds(args)
            names = spec["end_to_end"]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    listed = {m["name"] for m in names}
    if set(values) != listed:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: "
                           f"unlisted {sorted(set(values) - listed)}, missing {sorted(listed - set(values))}")
    info["loadavg_end"] = _loadavg()
    result = {"correct": job.failed == 0, "attempted": job.attempted, "failed": job.failed,
              "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}}
    return info, result


def main(argv=None) -> int:
    args = _parse(argv)
    missing = [p for p in ("src/empers", "tests/oracles.py", "BENCHMARK.json")
               if not (ROOT / p).exists()]
    if missing:
        print(f"perfbench: {', '.join(missing)} not found under {ROOT}; "
              "run it from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    sizes = workload.tiny if args.tiny else workload.sizes
    if args.setup_only:
        workload.setup(args.seed, sizes)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    info, result = _measure(args, workload, sizes, spec)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
