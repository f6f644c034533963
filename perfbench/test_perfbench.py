"""Tests of the benchmark itself: tracing is installed only for a traced
pass and changes no result; outcomes are classified as documented."""

import importlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from okubo.yokoyama import sample_spec  # noqa: E402


def _bindings():
    return {(mod, attr): getattr(importlib.import_module(mod), attr)
            for mod, attr, *_ in tracing.TARGETS}


def _small_ops():
    spec = sample_spec("II", 2, np.random.default_rng(5))
    return [workloads.make_op(route, spec, 5)
            for route in ("verify", "connection", "generate", "mcchain")]


def test_wrappers_installed_only_while_tracing():
    before = _bindings()
    tracer = tracing.Tracer()
    with tracer:
        during = _bindings()
        assert all(during[k] is not before[k] for k in before)
    assert _bindings() == before
    with pytest.raises(RuntimeError):
        with tracer:
            tracer.install()          # a second install is refused
    assert _bindings() == before


def test_traced_and_untraced_results_identical():
    ops = _small_ops()
    plain = run.Pass(ops).results
    tracer = tracing.Tracer()
    with tracer:
        traced = run.Pass(ops, tracer=tracer).results
    assert [r.key() for r in traced] == [r.key() for r in plain]
    assert [r.outcome for r in plain] == ["pass"] * 4
    layer = tracer.per_layer(verify_ops=1, report_bytes=0, overhead_frac=0.0)
    assert set(layer) == set(tracing.PER_LAYER_UNITS)
    assert layer["verify.series_calls"] > 0
    assert layer["verify.ode_nfev"] > 0
    assert layer["verify.canonical_solution_calls"] == 2   # cmd_verify builds Psi0 twice
    assert layer["connection.chain_connection_calls"] > 0
    assert layer["core.gamma_calls"] > 0
    assert layer["katz.mc_add_monodromy_calls"] == 2   # (II)_2 -> (III)_3 -> (II)_4
    assert all(s is not None and s[0] in range(4) for s in tracer.spans)


def test_known_singular_block_counts_as_failure():
    # II n=4 from seed 1: X_kk at chain step 4 is singular at tolerance
    spec = sample_spec("II", 4, np.random.default_rng(1))
    _, result = workloads.run_op(workloads.make_op("mcchain", spec, 1))
    assert result.outcome == "precondition"
    assert result.detail.startswith("SingularBlock")


def _verify_report(passed_flags, residual=1e-9):
    names = list(workloads.VERIFY_CHECKS) + ["xieta_closed_form"]
    checks = [{"name": n, "residual": residual if ok else 1.0, "tol": 1e-6,
               "passed": ok} for n, ok in zip(names, passed_flags)]
    return json.dumps({"checks": checks, "passed": all(passed_flags)})


@pytest.mark.parametrize("rc,out,outcome", [
    (0, _verify_report([True] * 5), "pass"),
    (1, _verify_report([True, False, True, True, True]), "check_fail"),
    (3, json.dumps({"error": "resonant"}), "precondition"),
    (0, _verify_report([True, False, True, True, True]), "bench_check_fail"),
    (0, _verify_report([True] * 4), "bench_check_fail"),
    (1, "not json", "bench_check_fail"),
    (2, "", "bench_check_fail"),
])
def test_verify_outcome_classes(rc, out, outcome):
    op = _small_ops()[0]
    assert workloads._check_cli(op, rc, out).outcome == outcome


def test_tail_is_eleventh_largest():
    p, v = run.tail_percentile(list(range(33)))
    assert v == 22 and p == pytest.approx(100 * 23 / 33)


def test_margin_digits():
    assert workloads.margin_digits(1e-9, 1e-6) == pytest.approx(3.0)
    assert workloads.margin_digits(1e-5, 1e-6) == pytest.approx(-1.0)
    assert workloads.margin_digits(0.0, 1e-6) == 16.0
    assert workloads.margin_digits(float("nan"), 1e-6) == -16.0


def test_benchmark_json_matches_what_run_prints():
    spec = json.loads((Path(__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER_UNITS
