"""Smoke test of the benchmark at tiny sizes: every workload runs, passes its
checks and prints exactly the metrics BENCHMARK.json names.

    python3 -m pytest perfbench/test_smoke.py -q
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _tiny(workload: str, trace: int) -> dict:
    proc = _bench(ROOT, "--workload", workload, "--seed", "5", "--seconds", "0",
                  "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted(workload, trace):
    result = _tiny(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in listed}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_counts_follow_the_sizes():
    # 4 classes x 2 instances x 2 repeats of 6-point clouds, m in {1, 2}
    metrics = {k: m["value"] for k, m in _tiny("shapes_pipeline", 1)["metrics"].items()}
    assert metrics["persistence.vr_persistence.simplices"] == 16 * (6 + 15 + 20)
    assert metrics["io.write_diagram_csv.calls"] == 16 * 2
    assert metrics["io.read_diagram_csv.calls"] == 8 * (1 + 2) * 2


def test_missing_wrapper_fails_the_traced_run(monkeypatch):
    for path in ("src", "tests", "perfbench"):
        monkeypatch.syspath_prepend(str(ROOT / path))
    import run
    import spans

    wrap_points = spans._wrap_points
    monkeypatch.setattr(spans, "_wrap_points", lambda: [
        p for p in wrap_points() if p[2] != "persistence.image_sublevel_h0"])
    with pytest.raises(RuntimeError, match="image_sublevel_h0"):
        run.main(["--workload", "texture_h0", "--seed", "1", "--seconds", "0",
                  "--trace", "1", "--tiny"])


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                  "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
