"""Tests of the benchmark itself:  python3 -m pytest perfbench/tests"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import ballsep.cli
import ballsep.selfcheck
from perfbench import hostspeed, oracle
from perfbench.run import EXACT_UNITS, PER_LAYER, absent_metrics, layer_values
from perfbench.spans import Tracer
from perfbench.workloads import WORKLOADS, Gate, null_z

ROOT = Path(__file__).resolve().parents[2]
EXACT = [name for name, unit, layer in PER_LAYER if layer and unit in EXACT_UNITS]


def traced_pass(workload_name, seed):
    workload = WORKLOADS[workload_name](seed, 2)
    tracer = Tracer()
    with tracer:
        workload.run_pass()
    return tracer


@pytest.mark.parametrize("workload_name", sorted(WORKLOADS))
def test_exact_counts_repeat_for_a_fixed_seed(workload_name):
    first = layer_values(traced_pass(workload_name, 5))
    second = layer_values(traced_pass(workload_name, 5))
    assert {name: first[name] for name in EXACT} == {name: second[name] for name in EXACT}
    assert any(first[name] for name in EXACT)


def test_tracer_restores_every_name():
    before = {name: value for name, value in vars(ballsep.cli).items() if callable(value)}
    post_init = ballsep.geometry.Ball.__post_init__
    with Tracer():
        assert ballsep.cli._emit is not before["_emit"]
    assert {name: value for name, value in vars(ballsep.cli).items() if callable(value)} == before
    assert ballsep.geometry.Ball.__post_init__ is post_init


def test_removed_names_are_absent_not_fatal(monkeypatch):
    for battery in ("check_lemma_sandwich", "check_ordering_chain",
                    "check_beta_symmetry", "check_analytic_reductions"):
        monkeypatch.delattr(ballsep.selfcheck, battery)
    monkeypatch.delattr(ballsep.cli, "_key_value_text")
    tracer = Tracer()
    with tracer:
        WORKLOADS["mc-lowdim"](1, 2).run_pass()
    absent = absent_metrics(tracer)
    assert "cli._key_value_text" in tracer.absent
    assert "cli.format.s" not in absent
    assert sorted(name for name in absent if name.startswith("selfcheck.")) == sorted(
        name for name, _, _ in PER_LAYER if name.startswith("selfcheck.")
    )


def test_oracle_classes():
    p_bias, p_weight, p_full = oracle.reference([-2.0, 0.0], 1.0, [2.0, 0.0], 1.0, 2.0)
    assert abs(float(p_full) - (math.sqrt(3.0) / math.pi - 1.0 / 3.0)) < 1e-16
    assert oracle.classify(float(p_weight), p_weight) == "ok"
    assert oracle.classify(float(p_weight) * (1 + 1e-8), p_weight) == "tail"
    assert oracle.classify(float(p_weight) * 1.01, p_weight) == "wrong"
    assert oracle.classify(0.0, p_weight * 1e-320) == "underflow"
    assert oracle.classify(0.0, p_weight) == "wrong"


def test_gate_keeps_known_defects_apart():
    gate = Gate()
    gate.record("fine", True)
    gate.record("tiny", "underflow")
    gate.record("estimate", abs(null_z(0.6, 0.5, 10_000)) <= 5.0, "far off")
    assert (gate.attempted, gate.failed, dict(gate.known)) == (3, 2, {"underflow": 1})
    assert gate.unexpected == ["estimate: far off"]


def test_gate_counts_each_check_once_per_run():
    gate = Gate()
    for _ in range(4):
        gate.record("fine", True)
        gate.record("tiny", "underflow")
    gate.record("fine", False, "failed on a later pass")
    assert (gate.attempted, gate.failed, dict(gate.known)) == (2, 2, {"underflow": 1})
    assert gate.unexpected == ["fine: failed on a later pass"]


@pytest.mark.parametrize("workload_name", sorted(WORKLOADS))
def test_check_counts_do_not_depend_on_the_pass_count(workload_name):
    workload = WORKLOADS[workload_name](3, 2)
    workload.prepare_references()
    gate = Gate()
    counts = []
    for _ in range(2):
        workload.check(workload.run_pass(), gate)
        counts.append((gate.attempted, gate.failed))
    assert counts[0] == counts[1]


def test_host_speed_factor_scales_to_nominal():
    probe = hostspeed.probe()
    assert set(probe) == set(hostspeed.NOMINAL) and all(t > 0 for t in probe.values())
    slow = {kind: 2 * t for kind, t in hostspeed.NOMINAL.items()}
    assert hostspeed.factor([hostspeed.NOMINAL, slow], "python") == pytest.approx(2 / 3)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc-lowdim",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == [name for name, _, _ in PER_LAYER]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {n: u for n, u, _ in PER_LAYER}
