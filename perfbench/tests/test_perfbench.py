"""Tests of the benchmark itself, at tiny sizes.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import harness  # noqa: E402
import tracing  # noqa: E402
from satiss import cli, iss, system  # noqa: E402

T, DT = 0.032, 0.001
TINY = {"time.T": str(T), "domain.n_interior": "31", "analysis.axioms_samples": "200"}
NO_REFERENCE = {"seed": harness.DEFAULT_SEED, "values": {}}


def traced_call(name, tmp_path):
    tracer = tracing.Tracer()
    done = harness.call(ROOT, harness.WORKLOADS[name], 0, str(tmp_path), NO_REFERENCE,
                        tracer=tracer, overrides=TINY)
    assert done.failures == []
    return done, tracer


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"] for m in json.load(fh)[kind]}


def test_simulate_spans_nest_under_iss_certificate(tmp_path):
    _, tracer = traced_call("certify", tmp_path)
    spans = tracer.spans
    simulate = [s for s in spans if s.name == "system.simulate"]
    assert len(simulate) == 20
    for span in simulate:
        parent = spans[span.parent]
        assert parent.name == "iss.iss_certificate"
        assert parent.start <= span.start <= span.end <= parent.end
        assert spans[parent.parent].name == "cli.main"
    assert cli.simulate is system.simulate and iss.simulate is system.simulate


@pytest.mark.parametrize("name", ["certify", "axiom_sweep"])
def test_self_times_nonnegative(name, tmp_path):
    _, tracer = traced_call(name, tmp_path)
    selfs = tracing.self_times(tracer.spans)
    assert len(selfs) == len(tracer.spans) > 0
    assert min(selfs) >= 0.0


@pytest.mark.parametrize("name, members", [("certify", 20), ("axiom_sweep", 3)])
def test_simulate_steps_counted(name, members, tmp_path):
    done, tracer = traced_call(name, tmp_path)
    layers = tracing.layer_metrics(tracer.spans, 0)
    assert layers["system.simulate.steps"] == members * math.ceil(T / DT)
    assert done.member_steps == layers["system.simulate.steps"]


def test_wrong_reference_counts_as_failure(tmp_path):
    workload = harness.WORKLOADS["certify"]
    keys = harness.call(ROOT, workload, 0, str(tmp_path), NO_REFERENCE,
                        overrides=TINY).keys
    right = {"seed": 0, "values": {"certify": keys}}
    wrong = {"seed": 0, "values": {"certify": dict(keys, K=keys["K"] * (1 + 1e-9))}}
    good = harness.run(ROOT, "certify", 0, 1, False, str(tmp_path), right, TINY)
    bad = harness.run(ROOT, "certify", 0, 1, False, str(tmp_path), wrong, TINY)
    assert good.failed == 0
    assert bad.attempted >= 1 and bad.failed / bad.attempted > 0


def test_reference_applies_to_default_seed_unless_seed_insensitive():
    reference = {"seed": 0, "values": {"certify": {"K": 1.0},
                                       "figure1": {"norm_linear": 1.0}}}
    certify, figure1 = harness.WORKLOADS["certify"], harness.WORKLOADS["figure1"]
    assert harness.check_reference(certify, 7, {"K": 2.0}, reference) == []
    assert harness.check_reference(certify, 0, {"K": 2.0}, reference) != []
    assert harness.check_reference(figure1, 7, {"norm_linear": 2.0}, reference) != []


def test_runs_report_the_declared_metrics(tmp_path):
    plain = harness.run(ROOT, "axiom_sweep", 1, 1, False, str(tmp_path), NO_REFERENCE,
                        TINY)
    traced = harness.run(ROOT, "axiom_sweep", 1, 1, True, str(tmp_path), NO_REFERENCE,
                         TINY)
    assert set(plain.metrics) == declared("end_to_end")
    assert set(traced.metrics) == declared("per_layer")
    assert plain.failed == traced.failed == 0
    assert traced.metrics["saturation.check_axioms.samples"][0] == 200
    assert os.listdir(tmp_path) == []


def test_exits_nonzero_without_source_tree(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
