import cmath
import json
import math

import numpy as np
import pytest

from okubo.cli import build_parser, main, parse_complex, parse_complex_list
from okubo.core import (default_config, load_json, matrix_from_json,
                        okubo_from_json, okubo_to_json)
from okubo.yokoyama import sample_spec, canonical_system


def run(args):
    return main(args)


def test_parse_complex_forms():
    assert parse_complex("0.3+0.45i") == 0.3 + 0.45j
    assert parse_complex("-1.2i") == -1.2j
    assert parse_complex("0.7") == 0.7
    assert parse_complex_list("0.1+0.2i, 0.3") == (0.1 + 0.2j, 0.3)
    with pytest.raises(Exception):
        parse_complex("zz")


def test_generate_schema_roundtrip(tmp_path):
    out = tmp_path / "sys.json"
    code = run(["generate", "--type", "I*", "--n", "3", "--seed", "1",
                "-o", str(out)])
    assert code == 0
    sysm = okubo_from_json(load_json(out))       # validates invariants
    assert sysm.blocks.sizes == (1, 1, 1)


def test_generate_with_explicit_exponents(tmp_path):
    out = tmp_path / "sys.json"
    code = run(["generate", "--type", "I*", "--n", "2",
                "--alpha", "0.2+0.3i,0.1+0.4i",
                "--rho", "0.05+0.25i,0.25+0.45i",
                "-o", str(out)])
    assert code == 0
    data = load_json(out)
    assert data["spec"]["kind"] == "I*"


def test_generate_via_chain_matches(tmp_path):
    plain = tmp_path / "a.json"
    chain = tmp_path / "b.json"
    assert run(["generate", "--type", "II", "--n", "2", "--seed", "3",
                "-o", str(plain)]) == 0
    assert run(["generate", "--type", "II", "--n", "2", "--seed", "3",
                "--via-chain", "-o", str(chain)]) == 0
    a = okubo_from_json(load_json(plain)).A
    b = okubo_from_json(load_json(chain)).A
    assert np.max(np.abs(a - b)) < 1e-8
    assert "chain_log" in load_json(chain)


def test_generate_unsupported_type():
    assert run(["generate", "--type", "IV", "--n", "2"]) == 2


def test_mc_rank1_seed_gives_hge(tmp_path):
    seed = tmp_path / "seed.json"
    a1, b1, mu = 0.21 + 0.33j, -0.12 + 0.41j, 0.07 + 0.19j
    payload = {
        "points": [[0.0, 0.0], [1.0, 0.0]],
        "residues": [
            {"rows": 1, "cols": 1, "data": [[a1.real, a1.imag]]},
            {"rows": 1, "cols": 1, "data": [[b1.real, b1.imag]]},
        ],
    }
    seed.write_text(json.dumps(payload))
    out = tmp_path / "mc.json"
    assert run(["mc", str(seed), "--mu", "0.07+0.19i", "-o", str(out)]) == 0
    data = load_json(out)
    total = sum(matrix_from_json(m) for m in data["residues"])
    want = np.array([[a1 + mu, b1], [a1, b1 + mu]])
    assert np.max(np.abs(total - want)) < 1e-12


def test_mc_degenerate_parameters_exit_3(tmp_path):
    sys_file = tmp_path / "sys.json"
    run(["generate", "--type", "II", "--n", "2", "--seed", "4",
         "-o", str(sys_file)])
    code = run(["mc", str(sys_file), "--k", "0", "--c", "0", "--rho", "0",
                "-o", str(tmp_path / "out.json")])
    assert code == 3


def test_mc_chain_step_iii_to_ii(tmp_path):
    # feed a (III)_3 canonical system through one mc-with-additions step
    # (rho = the spec's rho_2, so the complement has rank one) and land a
    # type (II)_4 block structure
    sys_file = tmp_path / "sys.json"
    run(["generate", "--type", "III", "--n", "1", "--seed", "5",
         "-o", str(sys_file)])
    spec = load_json(sys_file)["spec"]
    rho2 = complex(*spec["rho"][1])
    out = tmp_path / "out.json"
    code = run(["mc", str(sys_file), "--k", "1", "--c", "0.1+0.2i",
                f"--rho={rho2.real}{rho2.imag:+}i", "-o", str(out)])
    assert code == 0
    assert load_json(out)["blocks"] == [2, 2]


def test_connection_subcommand_methods_agree(tmp_path):
    out1, out2 = tmp_path / "c1.json", tmp_path / "c2.json"
    assert run(["connection", "--type", "II", "--n", "2", "--seed", "5",
                "-o", str(out1)]) == 0
    assert run(["connection", "--type", "II", "--n", "2", "--seed", "5",
                "--method", "recurrence", "-o", str(out2)]) == 0
    c1 = matrix_from_json(load_json(out1)["C"])
    c2 = matrix_from_json(load_json(out2)["C"])
    assert np.max(np.abs(c1 - c2)) < 1e-10 * np.max(np.abs(c1))
    data = load_json(out1)
    assert "monodromy" in data
    assert max(data["residuals"].values()) < 1e-10


def test_monodromy_closed_form_matches_library(tmp_path):
    out = tmp_path / "m.json"
    code = run(["monodromy", "--type", "II", "--n", "2", "--seed", "6",
                "--closed-form", "-o", str(out)])
    assert code == 0
    data = load_json(out)
    from okubo.connection import assemble_monodromy, closed_form_connection
    spec = sample_spec("II", 2, np.random.default_rng(6))
    mon = assemble_monodromy(
        closed_form_connection(spec, default_config(spec.points)), spec)
    got = matrix_from_json(data["closed_form"][0])
    assert np.max(np.abs(got - mon.matrices[0])) < 1e-12


def test_monodromy_numeric_diagonal_file(tmp_path):
    sys_file = tmp_path / "diag.json"
    payload = {
        "blocks": [1, 1],
        "points": [[0.0, 0.0], [1.0, 0.0]],
        "A": {"rows": 2, "cols": 2,
              "data": [[0.21, 0.33], [0, 0], [0, 0], [-0.12, 0.41]]},
    }
    sys_file.write_text(json.dumps(payload))
    out = tmp_path / "m.json"
    assert run(["monodromy", "--input", str(sys_file), "--numeric",
                "-o", str(out)]) == 0
    m1 = matrix_from_json(load_json(out)["numeric"][0])
    assert abs(m1[0, 1]) < 1e-9 and abs(m1[1, 0]) < 1e-9


def test_monodromy_both_emits_residuals(tmp_path):
    out = tmp_path / "m.json"
    code = run(["monodromy", "--type", "II", "--n", "2", "--seed", "7",
                "--closed-form", "--numeric", "-o", str(out)])
    assert code == 0
    data = load_json(out)
    assert "entrywise" in data["residuals"]
    assert max(data["residuals"]["entrywise"]) < 1e-8


def test_det_check(tmp_path):
    out = tmp_path / "d.json"
    assert run(["det-check", "--type", "I", "--n", "3", "--seed", "8",
                "-o", str(out)]) == 0
    data = load_json(out)
    assert data["passed"] and len(data["checks"]) == 3


def test_det_check_and_verify_report_the_same_determinant(tmp_path):
    # both draw their three points from --seed before anything else
    spec = ["--type", "II", "--n", "2", "--seed", "4"]
    assert run(["det-check", *spec, "-o", str(tmp_path / "d.json")]) == 0
    assert run(["verify", *spec, "-o", str(tmp_path / "v.json")]) == 0
    dets = [c["residual"] for c in load_json(tmp_path / "d.json")["checks"]]
    got, = [c["residual"] for c in load_json(tmp_path / "v.json")["checks"]
            if c["name"] == "okubo_determinant"]
    assert len(dets) == 3 and got == max(dets)


def test_verify_fails_on_nan_determinant_residual(tmp_path, monkeypatch):
    # an infinite closed form gives inf/inf = nan, which must not read as 0
    import okubo.cli
    monkeypatch.setattr(okubo.cli, "okubo_determinant",
                        lambda spec, x, cfg: complex(math.inf, 0.0))
    out = tmp_path / "v.json"
    assert run(["verify", "--type", "II", "--n", "1", "--seed", "9",
                "-o", str(out)]) == 1
    det, = [c for c in load_json(out)["checks"]
            if c["name"] == "okubo_determinant"]
    assert math.isnan(det["residual"]) and not det["passed"]


def test_verify_builds_each_series_once(tmp_path, monkeypatch):
    # the monodromy and the determinant's Psi0 share one series per t_k.
    # Psi0 itself is still built twice, once for each: the benchmark's
    # tracer test pins verify.canonical_solution_calls at 2 per verify op.
    import okubo.cli
    import okubo.verify
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(okubo.verify, "adaptive_series",
                        counted("series", okubo.verify.adaptive_series))
    for mod in (okubo.cli, okubo.verify):
        monkeypatch.setattr(mod, "numeric_canonical_solution",
                            counted("psi0", mod.numeric_canonical_solution))
    assert run(["verify", "--type", "III", "--n", "2", "--seed", "3",
                "-o", str(tmp_path / "v.json")]) == 0
    sysm = canonical_system(sample_spec("III", 2, np.random.default_rng(3)))
    assert calls.count("series") == sysm.r
    assert calls.count("psi0") == 2


def test_verify_pass_and_exit_codes(tmp_path):
    out = tmp_path / "r.json"
    assert run(["verify", "--type", "II", "--n", "1", "--seed", "9",
                "-o", str(out)]) == 0
    assert load_json(out)["passed"]


def test_verify_corrupted_input_fails_named_check(tmp_path):
    sys_file = tmp_path / "sys.json"
    run(["generate", "--type", "II", "--n", "1", "--seed", "10",
         "-o", str(sys_file)])
    data = load_json(sys_file)
    data["A"]["data"][1][0] += 0.05
    sys_file.write_text(json.dumps(data))
    out = tmp_path / "r.json"
    code = run(["verify", "--type", "II", "--n", "1", "--seed", "10",
                "--input", str(sys_file), "-o", str(out)])
    assert code == 1
    rep = load_json(out)
    failing = [c["name"] for c in rep["checks"] if not c["passed"]]
    assert "closed_form_vs_numeric_monodromy" in failing


def test_verify_float_floor_tolerance(tmp_path):
    out = tmp_path / "r.json"
    code = run(["verify", "--type", "II", "--n", "1", "--seed", "11",
                "--tol", "1e-20", "-o", str(out)])
    assert code == 1
    rep = load_json(out)
    assert all("residual" in c for c in rep["checks"])


@pytest.mark.parametrize("command", [
    ["verify", "--type", "II", "--n", "1"],
    ["det-check", "--type", "II", "--n", "1"],
    ["monodromy", "--type", "II", "--n", "1", "--closed-form", "--numeric"],
])
@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
def test_tolerance_must_be_positive_and_finite(tmp_path, capsys, command, tol):
    code = run(command + ["--tol", tol, "-o", str(tmp_path / "r.json")])
    assert code == 2
    assert "tolerance must be positive and finite" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("x,msg", [
    pytest.param("0", "x=0j coincides with the singular point t_0",
                 id="0-0"),
    pytest.param("1", "x=(1+0j) coincides with the singular point t_1",
                 id="1-1"),
    # p0 = 0.5 - 1i, so t_0 = 0 is the midpoint of the segment [p0, x]
    pytest.param("-0.5+1i", "the segment from p0=(0.5-1j) to x=(-0.5+1j) "
                 "passes through the singular point t_0", id="-0.5+1i-0"),
])
def test_det_check_at_singular_point_names_it(tmp_path, capsys, x, msg):
    out = tmp_path / "d.json"
    code = run(["det-check", "--type", "II", "--n", "2", "--seed", "1",
                f"--x={x}", "-o", str(out)])
    assert code == 3
    assert msg in capsys.readouterr().err
    assert msg in load_json(out)["error"]


def test_verify_solves_three_odes(tmp_path, monkeypatch):
    # two Psi0 builds and the monodromy's columns; the determinant has a
    # closed form in det Psi0
    import okubo.verify
    calls = []
    solve = okubo.verify.solve_ivp
    monkeypatch.setattr(okubo.verify, "solve_ivp",
                        lambda *a, **kw: calls.append(1) or solve(*a, **kw))
    assert run(["verify", "--type", "III", "--n", "2", "--seed", "1",
                "-o", str(tmp_path / "v.json")]) == 0
    assert len(calls) == 3


def test_det_check_just_off_a_singular_segment_evaluates(tmp_path):
    out = tmp_path / "d.json"
    assert run(["det-check", "--type", "II", "--n", "2", "--seed", "1",
                "--x=-0.5+1.0000001i", "-o", str(out)]) == 0
    assert load_json(out)["passed"]


@pytest.mark.parametrize("points", [(0, -1), (1j, 0)])
def test_point_layout_branch_error_names_its_cause(tmp_path, capsys, points):
    # both layouts break theta_0 > theta_1 in default_config (exit 3); the
    # error names the index, both points, both thetas and p0
    t0, t1 = (complex(t) for t in points)
    p0 = (t0 + t1) / 2 - 1j
    th0, th1 = cmath.phase(p0 - t0), cmath.phase(p0 - t1)
    out = tmp_path / "v.json"
    code = run(["verify", "--type", "II", "--n", "1", "--seed", "1",
                "--points", f"{points[0]},{points[1]}".replace("j", "i"),
                "-o", str(out)])
    assert code == 3
    msg = (f"theta_0 > theta_1 violated: theta_0 = {th0:.6g} at t_0 = {t0}, "
           f"theta_1 = {th1:.6g} at t_1 = {t1} "
           f"(theta_j = arg(p0 - t_j), p0 = {p0})")
    assert f"error: {msg}" in capsys.readouterr().err
    assert load_json(out)["error"] == msg


@pytest.mark.parametrize("extra", [[], ["--numeric"]])
def test_monodromy_closed_form_of_file_is_usage_error(tmp_path, capsys,
                                                      monkeypatch, extra):
    # the closed form needs the spec's exponents, which a file lacks; the
    # usage error comes before any numeric work
    import okubo.cli

    def numeric(*args, **kwargs):
        raise AssertionError("numeric work before the usage error")

    monkeypatch.setattr(okubo.cli, "numeric_monodromy", numeric)
    sysm = canonical_system(sample_spec("II", 2, np.random.default_rng(5)))
    _, code = _run_on_input(
        tmp_path, ["monodromy", "--input", "{path}", "--closed-form", *extra],
        json.dumps(okubo_to_json(sysm)))
    assert code == 2
    err = capsys.readouterr().err
    assert "error: --closed-form needs spec flags, not a file" in err
    assert not (tmp_path / "out.json").exists()


INPUT_COMMANDS = [
    ["verify", "--type", "II", "--n", "2", "--input", "{path}"],
    ["mc", "{path}", "--mu", "0.3"],
    ["monodromy", "--input", "{path}"],
]


def _run_on_input(tmp_path, command, content):
    path = tmp_path / "in.json"
    if content is not None:
        path.write_text(content)
    argv = [str(path) if a == "{path}" else a for a in command]
    return path, run(argv + ["-o", str(tmp_path / "out.json")])


@pytest.mark.parametrize("command", INPUT_COMMANDS)
@pytest.mark.parametrize("content,reason", [
    (None, "No such file or directory"),
    ('{"A": 1}', "missing key 'blocks'"),
    ("not json", "Expecting value"),
    ('{"blocks": [1], "points": [[0, 0]], "A": 1}', ""),
])
def test_unreadable_input_is_usage_error(tmp_path, capsys, command, content,
                                         reason):
    path, code = _run_on_input(tmp_path, command, content)
    assert code == 2
    assert f"error: cannot read {path}: {reason}" in capsys.readouterr().err


@pytest.mark.parametrize("command", INPUT_COMMANDS)
def test_invalid_input_system_is_precondition_error(tmp_path, command):
    # well-formed schema, but the system fails validation (repeated point)
    payload = {"blocks": [1, 1], "points": [[0, 0], [0, 0]],
               "A": {"rows": 2, "cols": 2, "data": [[0.1, 0.2]] * 4}}
    _, code = _run_on_input(tmp_path, command, json.dumps(payload))
    assert code == 3


@pytest.mark.parametrize("command", [
    ["verify", "--type", "II", "--n", "2", "--input", "{path}"],
    ["monodromy", "--type", "II", "--n", "2", "--input", "{path}",
     "--closed-form", "--numeric"],
])
def test_input_of_wrong_size_is_precondition_error(tmp_path, capsys, command):
    # an I n=3 system (blocks (2, 1)) against a II n=2 spec (blocks (2, 2))
    sysm = canonical_system(sample_spec("I", 3, np.random.default_rng(5)))
    _, code = _run_on_input(tmp_path, command, json.dumps(okubo_to_json(sysm)))
    assert code == 3
    err = capsys.readouterr().err
    assert "(2, 1)" in err and "(2, 2)" in err


def test_connection_recurrence_rejected_for_istar(tmp_path):
    code = run(["connection", "--type", "I*", "--n", "3", "--seed", "13",
                "--method", "recurrence", "-o", str(tmp_path / "c.json")])
    assert code == 3


def test_generate_custom_points(tmp_path):
    out = tmp_path / "sys.json"
    assert run(["generate", "--type", "II", "--n", "2", "--seed", "14",
                "--points=-0.5,2.0", "-o", str(out)]) == 0
    data = load_json(out)
    assert data["points"] == [[-0.5, 0.0], [2.0, 0.0]]


def test_deterministic_outputs(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(["generate", "--type", "III", "--n", "1", "--seed", "12", "-o", str(a)])
    run(["generate", "--type", "III", "--n", "1", "--seed", "12", "-o", str(b)])
    assert a.read_text() == b.read_text()


def test_one_parser_per_process_keeps_no_state_between_runs(tmp_path):
    # --x appends to a fresh list in every run of the shared parser; det-check
    # pads its points to three, so four points, then none, give 4 then 3
    assert build_parser() is build_parser()
    out = tmp_path / "d.json"
    counts = []
    for extra in (["--x=0.3+0.1i", "--x=0.4-0.2i", "--x=0.5+0.1i",
                   "--x=0.6+0.2i"], []):
        assert run(["det-check", "--type", "II", "--n", "2", "--seed", "4",
                    *extra, "-o", str(out)]) == 0
        counts.append(len(load_json(out)["checks"]))
    assert counts == [4, 3]
    reports = []
    for name in ("a.json", "b.json"):
        assert run(["verify", "--type", "II", "--n", "2", "--seed", "4",
                    "-o", str(tmp_path / name)]) == 0
        reports.append((tmp_path / name).read_text())
    assert reports[0] == reports[1]
