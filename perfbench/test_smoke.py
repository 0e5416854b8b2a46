"""Smoke test of the benchmark itself, at a scale that runs in seconds.

    python3 -m pytest perfbench/test_smoke.py

Every workload emits exactly the metrics BENCHMARK.json names, with no
failed operation; two runs with the same seed give the same digest; the
launcher refuses to run without the package sources; and the pace
rescaling takes probe time out of a sample and rescales the rest.
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import pace  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def test_workloads_match_spec():
    assert sorted(WORKLOADS) == sorted(bench.ROUNDS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted(workload, trace):
    result, report = bench.run(workload, seed=5, seconds=0, trace=trace, scale=bench.TINY)
    assert report["failures"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_digest(workload):
    digests = [bench.run(workload, seed=7, seconds=0, trace=False, scale=bench.TINY)[1]["digest"]
               for _ in range(2)]
    assert isinstance(digests[0], str) and digests[0] == digests[1]


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_pace_takes_probes_out_and_rescales():
    p = pace.Pace()
    # a host at half the reference speed, probed once a second
    p.starts = [0.0, 1.0, 2.0, 3.0]
    p.seconds = [2 * pace.REF_PROBE_S] * 4
    program = 2.0 - 2 * 2 * pace.REF_PROBE_S  # [0.5, 2.5] holds the probes at 1 s and 2 s
    assert p.wall(0.5, 2.5) == pytest.approx(program)
    assert p.measure(0.5, 2.5) == pytest.approx(program / 2)
    assert pace.Pace(enabled=False).measure(0.5, 2.5) == 2.0
