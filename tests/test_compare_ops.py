import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_ops.py"
_spec = importlib.util.spec_from_file_location("compare_ops", TOOL)
compare_ops = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_ops)

TOL = 1e-06
KEYS = {1: [
    ("verify:II:6:1", "check_fail",
     [("closed_form_vs_numeric_monodromy", 2.2e-06, TOL)],
     "closed_form_vs_numeric_monodromy"),
    ("verify:II:4:1", "pass",
     [("closed_form_vs_numeric_monodromy", 3.1e-09, TOL),
      ("okubo_determinant", 4.0e-12, TOL)], ""),
    ("verify:I:4:1", "pass", [("okubo_determinant", 1.0e-10, TOL)], ""),
]}


def test_identical_keys_exit_zero(capsys):
    assert compare_ops.compare(KEYS, KEYS) == ([], [])
    assert compare_ops.report(KEYS, KEYS) == 0
    out = capsys.readouterr().out
    assert "seed 1: failed/attempted A 1/3, B 1/3" in out
    # margins of the four checks: -0.342, 2.509, 5.398, 4.0
    assert "err_digits_p50 A 3.254, B 3.254" in out
    assert "flips: 0 to pass, 0 to fail, 0 other" in out
    assert ("CHECK closed_form_vs_numeric_monodromy: median signed dlog10 "
            "+0.000 over 2 residuals (0 lower, 0 higher)") in out
    assert "all 3 keys identical" in out


def test_one_flip_and_one_residual_change(capsys):
    flipped, moved, same = KEYS[1]
    other = {1: [
        (flipped[0], "pass",
         [("closed_form_vs_numeric_monodromy", 9.5e-07, TOL)], ""),
        (moved[0], "pass",
         [("closed_form_vs_numeric_monodromy", 3.1e-07, TOL),
          ("okubo_determinant", 4.0e-12, TOL)], ""),
        same,
    ]}
    flips, changes = compare_ops.compare(KEYS, other)
    assert len(flips) == 1 and len(changes) == 1
    seed, label, was, now, shift, check = flips[0]
    assert (seed, label, was, now) == (1, "verify:II:6:1", "check_fail", "pass")
    assert check == "closed_form_vs_numeric_monodromy"
    assert shift == pytest.approx(0.3645, abs=1e-3)
    seed, label, outcome, shift, check, _, _ = changes[0]
    assert (seed, label, outcome, check) == (
        1, "verify:II:4:1", "pass", "closed_form_vs_numeric_monodromy")
    assert shift == pytest.approx(2.0)
    assert compare_ops.report(KEYS, other) == 1
    out = capsys.readouterr().out
    assert "A 1/3, B 0/3" in out
    assert "FLIP seed 1 verify:II:6:1: check_fail -> pass" in out
    assert "DIFF seed 1 verify:II:4:1 (pass): |dlog10| 2" in out
    assert "flips: 1 to pass, 0 to fail, 0 other" in out
    # margins -0.342, 2.509, 5.398, 4.0 -> 0.022, 0.509, 5.398, 4.0
    assert "err_digits_p50 A 3.254, B 2.254" in out
    # dlog10 -0.365 and +2.0; the determinant did not move
    assert ("CHECK closed_form_vs_numeric_monodromy: median signed dlog10 "
            "+0.818 over 2 residuals (1 lower, 1 higher)") in out
    assert ("CHECK okubo_determinant: median signed dlog10 +0.000 over 2 "
            "residuals (0 lower, 0 higher)") in out


def test_missing_op_is_a_flip():
    flips, changes = compare_ops.compare(KEYS, {1: KEYS[1][:2]})
    assert flips == [(1, "verify:I:4:1", "pass", None, 0.0, None)]
    assert changes == []


def test_flips_counted_by_direction_and_signed_shifts(capsys):
    flipped, moved, same = KEYS[1]
    worse = {1: [
        flipped,
        (moved[0], "check_fail",
         [("closed_form_vs_numeric_monodromy", 3.1e-05, TOL),
          ("okubo_determinant", 4.0e-12, TOL)],
         "closed_form_vs_numeric_monodromy"),
        (same[0], "precondition", [], "SingularPsi: singular"),
    ]}
    assert compare_ops.report(KEYS, worse) == 1
    out = capsys.readouterr().out
    assert "flips: 0 to pass, 2 to fail, 0 other" in out
    assert ("CHECK closed_form_vs_numeric_monodromy: median signed dlog10 "
            "+2.000 over 2 residuals (0 lower, 1 higher)") in out
    # B lost the precondition op's check: margins -0.342, -1.491, 5.398
    assert "err_digits_p50 A 3.254, B -0.342" in out


def test_margin_digits_matches_benchmark():
    import sys
    sys.path.insert(0, str(TOOL.parents[1] / "perfbench"))
    import workloads
    for res in (0.0, 1e-30, 3.1e-9, 1e-6, 2.2e-6, 5.0, float("inf"),
                float("nan")):
        assert compare_ops.margin_digits(res, TOL) == \
            workloads.margin_digits(res, TOL)


def test_default_runs_every_workload_at_its_rule_seeds(monkeypatch, capsys):
    calls = []

    def fake_run_tree(tree, workload, seeds):
        calls.append((tree.name, workload, list(seeds)))
        if tree.name == "b" and workload == "formulas":
            flipped, moved, same = KEYS[1]
            return {1: [flipped, moved, (same[0], "check_fail") + same[2:]]}
        return KEYS

    monkeypatch.setattr(compare_ops, "run_tree", fake_run_tree)
    assert compare_ops.main(["a", "b"]) == 1
    assert calls == [(tree, w, s) for w, s in (
        ("verify-rank", [1, 2, 3, 7, 9]), ("verify-points", [1, 2, 3]),
        ("formulas", [1, 2])) for tree in ("a", "b")]
    out = capsys.readouterr().out
    assert out.count("all 3 keys identical") == 2
    assert "FLIP seed 1 verify:I:4:1: pass -> check_fail" in out
    calls.clear()
    assert compare_ops.main(["a", "b", "--workload", "verify-points"]) == 0
    assert calls == [("a", "verify-points", [1, 2, 3]),
                     ("b", "verify-points", [1, 2, 3])]
    assert compare_ops.main(["a", "b", "--seeds", "5"]) == 1
    assert {(w, tuple(s)) for _, w, s in calls[2:]} == {
        ("verify-rank", (5,)), ("verify-points", (5,)), ("formulas", (5,))}
