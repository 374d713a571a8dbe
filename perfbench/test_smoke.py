"""Smoke test of the benchmark, every workload at gradcheck.toy_config() size.

    python -m pytest perfbench/test_smoke.py

It is not part of the repository's test suite (pytest's testpaths is tests/).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def invoke(workload, trace, seed=7, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "toy"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    res = result(invoke(workload, trace))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(v["value"], float) for v in res["metrics"].values())


def _counts(res: dict) -> dict:
    counts = {k: v["value"] for k, v in res["metrics"].items()
              if v["unit"].startswith("1/") or k == "reeig.clamped_frac"}
    counts["failed"] = res["failed"]
    return counts


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_counts(workload):
    first, second = (_counts(result(invoke(workload, 1))) for _ in range(2))
    assert first == second


def _corrupt(monkeypatch, module, attr, change):
    real = getattr(module, attr)
    monkeypatch.setattr(module, attr, lambda *args, **kwargs: change(real(*args, **kwargs)))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_output_counts_as_failure(workload, monkeypatch, capsys):
    run.load_program()
    from handspd import classify, gradcheck, network

    if workload == "train":
        _corrupt(monkeypatch, network, "loss_and_backward",
                 lambda out: (out[0] * (1 + 1e-6), *out[1:]))
    elif workload == "extract":
        _corrupt(monkeypatch, network, "extract_feature", lambda feature: feature + 1e-6)
    else:
        n_classes = gradcheck.toy_config().n_classes
        _corrupt(monkeypatch, classify, "svm_predict", lambda labels: labels % n_classes + 1)
    argv = ["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "0", "--size", "toy"]
    assert run.main(argv) == 0
    res = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert res["failed"] >= 1 and not res["correct"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = invoke("train", 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
