"""The runner prints what BENCHMARK.json declares, for any seed."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench.layers import PER_LAYER
from perfbench.workloads import WORKLOADS, FleetIdeal, PipelineBSB, Sweep

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_lists_the_runner_workloads_and_layers():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        (name, unit, better) for name, (unit, better) in PER_LAYER.items()
    ]
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert max(m["bound"] for m in SPEC["end_to_end"]) == setup[0]["bound"]


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_names_and_units_match_the_spec(trace, section):
    by_seed = []
    for seed in ("1", "2"):
        out = result(run(
            "--workload", "fleet-ideal", "--seed", seed,
            "--seconds", "0.6", "--trace", trace,
        ))
        assert out["correct"] is True
        assert out["failed"] == 0 and out["attempted"] >= 1
        printed = [(k, v["unit"]) for k, v in out["metrics"].items()]
        assert printed == [(m["name"], m["unit"]) for m in SPEC[section]]
        by_seed.append(printed)
    assert by_seed[0] == by_seed[1]


def test_a_bare_benchmark_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = run(
        "--workload", "fleet-ideal", "--seed", "1", "--seconds", "1",
        "--trace", "0", cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_the_seed_changes_inputs_not_their_shape():
    a, b, a2 = FleetIdeal(1), FleetIdeal(2), FleetIdeal(1)
    for w in (a, b, a2):
        w.build()
        w.close()
    assert np.array_equal(a.queries, a2.queries)
    assert not np.array_equal(a.queries, b.queries)
    assert a.queries.shape == b.queries.shape

    p1, p2 = PipelineBSB(1), PipelineBSB(2)
    for w in (p1, p2):
        w.build()
        w.close()
    assert p1.probes.shape == p2.probes.shape
    assert not np.array_equal(p1.probes, p2.probes)

    s1, s2 = Sweep(1), Sweep(2)
    s1.build()
    s2.build()
    assert s1.scale.seed != s2.scale.seed
    assert s1.scale.n_train == s2.scale.n_train
