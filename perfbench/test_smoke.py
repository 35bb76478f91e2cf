"""Tiny-size runs of the benchmark itself.

    python3 -m pytest perfbench/test_smoke.py

Every workload, untraced and traced, on a two-job pool: the last line is the
result object, the run is correct, and every metric BENCHMARK.json names is
reported with its unit.  Also checks that the benchmark refuses to run
without the effheis sources, and that the exact workload counters computed
from the inputs agree with effheis's own resonance partition.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_reported(workload, trace):
    done = bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "0.1",
                 "--trace", str(trace), "--pool", "2")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    named = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in named}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    done = bench(tmp_path, "--workload", "moments", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""


def test_partition_counters_match_effheis():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import inputs
    from effheis.fermion import SplitHamiltonian, diagonal_modes, validate_fermion
    from effheis.projector import free_moment_generator_hermitian, resonance_partition

    for spec in inputs.moments_specs(seed=3, pool=4) + inputs.oracle_specs(seed=3, pool=4):
        split = SplitHamiltonian(diagonal_modes(spec.frequencies),
                                 validate_fermion(spec.interaction, spec.n), inputs.COUPLING)
        part = resonance_partition(free_moment_generator_hermitian(split, spec.m))
        sizes = np.bincount(part.labels)
        assert inputs.moment_partition(spec.frequencies, spec.m) == {
            "clusters": len(sizes),
            "largest_block": sizes.max(),
            "mask_density": part.mask.mean(),
        }
