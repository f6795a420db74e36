"""The benchmark's own tests: run with `python3 -m pytest perfbench`.

Every workload runs at a tiny size and must emit every metric that
BENCHMARK.json names, with its unit, and no failed operation.  Perturbed
outputs must be counted as failures.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import speed  # noqa: E402
import workloads  # noqa: E402
from scanloc import cloud, targets  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

# the smallest sizes at which every workload still does all of its work
TINY_SCENES = {"cohort-clean": 3, "evaluate-noisy": 3, "localize-stream": 2,
               "fuse-export": 2}


def run_cli(workload, trace, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace),
         "--scenes", str(TINY_SCENES[workload])],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert SPEC["paths"] == ["perfbench"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(TINY_SCENES))
def test_tiny_run_emits_every_metric(workload, trace):
    proc = run_cli(workload, trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])["report"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0, report["failures"]
    assert result["correct"] is True
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and np.isfinite(m["value"])
    assert report["error_rate"] == 0
    assert report["machine"]["thread_env"] == {"OPENBLAS_NUM_THREADS": "1",
                                               "OMP_NUM_THREADS": "1"}
    if trace:
        assert report["absent"] == []
        return
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["value"] > 0
    if workload in ("localize-stream", "fuse-export"):
        assert {"scene_ms_p50", "scene_ms_tail", "tail_percentile", "samples"} <= set(
            report["scene_latency"])
    if workload != "fuse-export":
        assert {"position_error_mm", "normal_error_deg"} <= set(report["quality"])
    if workload == "evaluate-noisy":
        assert "backproj_two_view_px" in report["quality"]
        assert len(report["report_sha256"]) == 4


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = run_cli("fuse-export", 0, cwd=tmp_path,
                   script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("workload", ["localize-stream", "fuse-export"])
def test_perturbed_output_counts_as_failure(workload, monkeypatch, tmp_path):
    if workload == "localize-stream":
        original = targets.localize

        def shifted_localize(*args, **kwargs):
            # every pose 30 mm off along X: outside the 25 mm tolerance
            return [
                targets.ScanTargetPose(p.target_id, p.x + 0.030, p.y, p.z,
                                       p.rx, p.ry, p.rz, p.far_from_surface)
                for p in original(*args, **kwargs)
            ]

        monkeypatch.setattr(targets, "localize", shifted_localize)
    else:
        original = cloud.FusedCloud.load.__func__

        def shifted_load(cls, path, *args, **kwargs):
            loaded = original(cls, path, *args, **kwargs)
            return cls(points=loaded.points + [0.0, 0.0, 0.001], normals=loaded.normals)

        monkeypatch.setattr(cloud.FusedCloud, "load", classmethod(shifted_load))
    result = workloads.run(workload, seed=3, seconds=0.0, trace=False,
                           workdir=str(tmp_path), scenes=2)
    tally = result["tally"]
    setup_checks = 2 if workload == "localize-stream" else 0  # camera calibrations
    assert tally.attempted == setup_checks + 2
    assert tally.failed == 2


def test_region_is_scaled_by_the_references_around_it(monkeypatch):
    gauge = speed.SpeedGauge()
    references = iter([0.050, 0.030])  # before and after the region
    monkeypatch.setattr(gauge, "sample", lambda: next(references))
    with gauge.region() as region:
        sum(range(10_000))
    assert region.wall > 0
    assert region.scaled == pytest.approx(region.wall * speed.REFERENCE_S / 0.040)


def test_cycle_mean_weighs_each_input_alike():
    # input 0 ran three times (median 2), input 1 twice (median 11)
    assert workloads.cycle_mean([1.0, 10.0, 3.0, 12.0, 2.0], 2) == pytest.approx(6.5)
