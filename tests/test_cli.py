import functools
import inspect
import json
import os
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import targetkit
from targetkit import (
    InstanceSpec,
    PropertyClass,
    generate_instance,
    normal_two_point,
    read_matrix,
    solve_complex_symmetric,
    solve_hermitian,
    solve_invertible,
    solve_invertible_hermitian,
    solve_normal_two_point,
    solve_normal_vector,
    solve_pd,
    solve_projection,
    solve_psd,
    solve_reflection,
    solve_unconstrained,
    solve_unitary,
    solve_unitary_polar,
    write_matrix,
)
from targetkit.cli import _build_parser, _dump, _jsonable, _parse_scalar, _render_text, main


@pytest.fixture
def mm(tmp_path):
    def _write(name, M):
        p = tmp_path / name
        write_matrix(p, np.asarray(M, dtype=float) if not np.iscomplexobj(M) else M)
        return str(p)

    return _write


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    return code, json.loads(out), err


class TestSolve:
    def test_solved_report_schema(self, capsys, mm):
        x = mm("x.mtx", np.eye(2))
        y = mm("y.mtx", [[0.0, 1.0], [1.0, 0.0]])
        code, report, _ = run_json(
            capsys, ["solve", "--property", "hermitian", "--X", x, "--Y", y]
        )
        assert code == 0
        assert report["verdict"] == "solved"
        assert report["exit_code"] == 0
        assert report["property"] == "hermitian"
        assert report["residual"] <= 1e-9
        assert report["A"] == [[0.0, 1.0], [1.0, 0.0]]
        assert set(report["tolerances"]) == {
            "rank_rel_cutoff", "sym_tol", "psd_tol", "residual_tol", "zero_matrix_tol",
        }

    def test_out_file_written_and_valid(self, capsys, mm, tmp_path):
        x = mm("x.mtx", np.eye(3))
        y = mm("y.mtx", np.diag([2.0, 3.0, 4.0]))
        out = str(tmp_path / "a.mtx")
        code, report, _ = run_json(
            capsys,
            ["solve", "--property", "pd", "--X", x, "--Y", y, "--out", out],
        )
        assert code == 0
        assert report["outputs"] == {"A": out}
        A = read_matrix(out)
        assert np.linalg.norm(A @ np.eye(3) - np.diag([2.0, 3.0, 4.0])) <= 1e-9

    def test_complex_entries_render_as_re_im(self, capsys, mm):
        x = mm("x.mtx", np.eye(2))
        y = mm("y.mtx", np.array([[1j, 0.0], [0.0, 1.0]], dtype=complex))
        code, report, _ = run_json(
            capsys, ["solve", "--property", "complex-symmetric", "--X", x, "--Y", y]
        )
        assert code == 0
        assert report["A"][0][0] == {"re": 0.0, "im": 1.0}

    def test_infeasible_gives_exit_two_with_certificate(self, capsys, mm):
        x = mm("x.mtx", [[1.0], [0.0]])
        y = mm("y.mtx", np.array([[1j], [0.0]], dtype=complex))
        code, report, _ = run_json(
            capsys, ["solve", "--property", "hermitian", "--X", x, "--Y", y]
        )
        assert code == 2
        assert report["verdict"] == "infeasible"
        assert report["exit_code"] == 2
        names = [c["name"] for c in report["conditions"]]
        assert "hermitian-product" in names
        failed = [c for c in report["conditions"] if not c["satisfied"]]
        assert failed

    def test_rank_proviso_reports_unique_scale(self, capsys, mm):
        x = mm("x.mtx", np.eye(2))
        y = mm("y.mtx", 2.0 * np.eye(2))
        code, report, _ = run_json(
            capsys,
            ["solve", "--property", "normal-two-point", "--lambda", "2", "--mu", "3",
             "--X", x, "--Y", y],
        )
        assert code == 2
        assert report["verdict"] == "infeasible"
        assert report["unique_solution_scale"] == 2.0
        assert any(c["name"] == "rank-proviso" for c in report["conditions"])

    def test_numeric_failure_gives_exit_four(self, capsys, mm):
        # an absurd residual tolerance makes the certified-invertibility
        # floor unreachable, which is an internal failure, not infeasibility
        x = mm("x.mtx", [[1.0], [0.0]])
        y = mm("y.mtx", [[0.0], [1.0]])
        code, report, _ = run_json(
            capsys,
            ["solve", "--property", "invertible-hermitian", "--X", x, "--Y", y,
             "--res-tol", "1.0"],
        )
        assert code == 4
        assert report["verdict"] == "numeric-failure"
        assert report["exit_code"] == 4

    def test_unitary_method_toggle(self, capsys, mm):
        x = mm("x.mtx", [[1.0], [0.0]])
        y = mm("y.mtx", [[0.0], [1.0]])
        for method in ("completion", "polar"):
            code, report, _ = run_json(
                capsys,
                ["solve", "--property", "unitary", "--X", x, "--Y", y,
                 "--unitary-method", method],
            )
            assert code == 0
            assert report["residual"] <= 1e-9


class TestCheck:
    def test_feasible_exit_zero(self, capsys, mm):
        x = mm("x.mtx", np.eye(2))
        y = mm("y.mtx", [[1.0, 0.0], [0.0, -1.0]])
        code, report, _ = run_json(
            capsys, ["check", "--property", "hermitian", "--X", x, "--Y", y]
        )
        assert code == 0
        assert report["verdict"] == "feasible"
        assert all(c["satisfied"] for c in report["conditions"])

    def test_infeasible_exit_two(self, capsys, mm):
        x = mm("x.mtx", np.diag([1.0, 0.0]))
        y = mm("y.mtx", np.eye(2))
        code, report, _ = run_json(
            capsys, ["check", "--property", "unconstrained", "--X", x, "--Y", y]
        )
        assert code == 2
        assert report["verdict"] == "infeasible"
        assert any(c["name"] == "null-space-inclusion" and not c["satisfied"]
                   for c in report["conditions"])

    def test_property_aliases(self, capsys, mm):
        x = mm("x.mtx", np.eye(2))
        y = mm("y.mtx", np.diag([1.0, 0.5]))
        for alias in ("psd", "pd"):
            code, report, _ = run_json(
                capsys, ["check", "--property", alias, "--X", x, "--Y", y]
            )
            assert code == 0
        code, report, _ = run_json(
            capsys, ["check", "--property", "projection", "--X", x, "--Y", y]
        )
        assert code == 2  # eigenvalue 0.5 is not reachable by a projector


class TestVerifyCommand:
    def test_pass_and_fail(self, capsys, mm):
        a = mm("a.mtx", [[0.0, 1.0], [1.0, 0.0]])
        code, report, _ = run_json(capsys, ["verify", "--property", "reflection", "--A", a])
        assert code == 0 and report["verdict"] == "pass"
        code, report, _ = run_json(capsys, ["verify", "--property", "pd", "--A", a])
        assert code == 2 and report["verdict"] == "fail"

    def test_targeting_residual_included(self, capsys, mm):
        a = mm("a.mtx", np.eye(2))
        x = mm("x.mtx", np.eye(2))
        y = mm("y.mtx", np.eye(2))
        code, report, _ = run_json(
            capsys,
            ["verify", "--property", "unitary", "--A", a, "--X", x, "--Y", y],
        )
        assert code == 0
        assert report["residual"] == 0.0

    def test_wrong_product_fails_even_if_property_holds(self, capsys, mm):
        a = mm("a.mtx", np.eye(2))
        x = mm("x.mtx", np.eye(2))
        y = mm("y.mtx", 2.0 * np.eye(2))
        code, report, _ = run_json(
            capsys,
            ["verify", "--property", "unitary", "--A", a, "--X", x, "--Y", y],
        )
        assert code == 2
        assert report["verdict"] == "fail"
        assert report["residual"] > 0

    def test_x_without_y_rejected(self, capsys, mm):
        a = mm("a.mtx", np.eye(2))
        x = mm("x.mtx", np.eye(2))
        code, out, err = run(capsys, ["verify", "--property", "unitary", "--A", a, "--X", x])
        assert code == 3
        assert out == ""
        assert "together" in err


class TestGenerate:
    def test_round_trip_through_files(self, capsys, mm, tmp_path):
        ox, oy, ow = (str(tmp_path / f) for f in ("gx.mtx", "gy.mtx", "gw.mtx"))
        code, report, _ = run_json(
            capsys,
            ["generate", "--property", "unitary", "--m", "4", "--n", "2",
             "--seed", "11", "--out-x", ox, "--out-y", oy, "--out-witness", ow],
        )
        assert code == 0
        assert report["verdict"] == "generated"
        X, Y, W = read_matrix(ox), read_matrix(oy), read_matrix(ow)
        assert np.linalg.norm(W @ X - Y) <= 1e-12
        assert np.linalg.norm(W.conj().T @ W - np.eye(4)) <= 1e-12

    def test_same_seed_same_bytes(self, capsys):
        argv = ["generate", "--property", "hermitian", "--m", "3", "--seed", "42"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2

    def test_env_seed_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("TARGETKIT_SEED", "42")
        _, out_env, _ = run(capsys, ["generate", "--property", "hermitian", "--m", "3"])
        monkeypatch.delenv("TARGETKIT_SEED")
        _, out_explicit, _ = run(
            capsys, ["generate", "--property", "hermitian", "--m", "3", "--seed", "42"]
        )
        assert out_env == out_explicit

    def test_n_defaults(self, capsys):
        code, report, _ = run_json(
            capsys, ["generate", "--property", "hermitian", "--m", "3", "--seed", "0"]
        )
        assert report["n"] == 3
        code, report, _ = run_json(
            capsys, ["generate", "--property", "normal-vector", "--m", "3", "--seed", "0"]
        )
        assert report["n"] == 1

    def test_bad_spec_is_usage_error(self, capsys):
        code, out, err = run(
            capsys,
            ["generate", "--property", "hermitian", "--m", "2", "--n", "3", "--seed", "0"],
        )
        assert code == 3
        assert out == ""
        assert "n <= m" in err


class TestGenerateSource:
    @pytest.mark.parametrize("prop", ["hermitian", "reflection", "projection"])
    def test_generated_source_is_feasible(self, capsys, mm, tmp_path, prop):
        rng = np.random.default_rng(3)
        Y = rng.standard_normal((4, 2))
        y = mm("y.mtx", Y)
        ox = str(tmp_path / "sx.mtx")
        code, report, _ = run_json(
            capsys,
            ["generate-source", "--property", prop, "--Y", y, "--seed", "5",
             "--out-x", ox],
        )
        assert code == 0
        check_code, check_report, _ = run_json(
            capsys, ["check", "--property", prop, "--X", ox, "--Y", y]
        )
        assert check_code == 0, check_report

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("prop", ["hermitian", "projection"])
    def test_blocks_pinned_to_seed(self, capsys, mm, prop, field):
        # Y has singular values exactly 2, so Z11 = K / 2 is exact
        Y = np.zeros((4, 3), dtype=float if field == "real" else complex)
        Y[0, 0] = 2.0 if field == "real" else 2j
        Y[1, 1] = 2.0
        y = mm("y.mtx", Y)
        code, report, _ = run_json(
            capsys, ["generate-source", "--property", prop, "--Y", y, "--seed", "9"]
        )
        assert code == 0
        rng = np.random.Generator(np.random.Philox(key=9))

        def draw(shape):
            G = rng.standard_normal(shape)
            if field == "complex":
                G = G + 1j * rng.standard_normal(shape)
            return G

        expected = {}
        if prop == "hermitian":
            K = draw((2, 2))
            expected["Z11"] = (K + K.conj().T) / 2 / 2.0
        expected["Z21"] = draw((2, 2))
        expected["Z22"] = draw((2, 1))
        assert set(report["blocks"]) == set(expected)
        for name, block in expected.items():
            assert_bitwise(_json_matrix(report["blocks"][name]), block)

    def test_unsupported_class_rejected(self, capsys, mm):
        y = mm("y.mtx", np.eye(2))
        code, out, err = run(
            capsys, ["generate-source", "--property", "unitary", "--Y", y, "--seed", "0"]
        )
        assert code == 3
        assert "characterization" in err


class TestGap:
    def test_obstructed_exit_two(self, capsys, mm):
        b = mm("b.mtx", [[0.0, 1.0], [0.0, 0.0]])
        c = mm("c.mtx", np.zeros((2, 2)))
        code, report, _ = run_json(capsys, ["gap", "--B", b, "--C", c])
        assert code == 2
        assert report["verdict"] == "gap-obstructed"
        assert report["psd"] is False
        assert "note" in report

    def test_psd_exit_zero(self, capsys, mm, tmp_path):
        b = mm("b.mtx", [[0.0, 1.0], [1.0, 0.0]])
        c = mm("c.mtx", np.eye(2))
        out = str(tmp_path / "h.mtx")
        code, report, _ = run_json(capsys, ["gap", "--B", b, "--C", c, "--out", out])
        assert code == 0
        assert report["verdict"] == "gap-psd"
        H = read_matrix(out)
        assert np.linalg.eigvalsh((H + H.conj().T) / 2).min() >= -1e-12

    def test_lapack_failure_is_numeric_failure(self, capsys, mm):
        # B*B overflows to inf - inf = nan, on which LAPACK's SVD fails;
        # numpy's LinAlgError is a ValueError, yet this is no usage error
        b = mm("b.mtx", [[-0.0, 0.0], [5e-324, 1e308]])
        code, report, err = run_json(capsys, ["gap", "--B", b, "--C", b])
        assert code == 4
        assert report["verdict"] == "numeric-failure"
        assert report["exit_code"] == 4
        assert "error:" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["gap", "--B", "b", "--C", "b"],
        ["check", "--property", "hermitian", "--X", "d", "--Y", "d"],
        ["solve", "--property", "hermitian", "--X", "d", "--Y", "d"],
        ["check", "--property", "unitary", "--X", "d", "--Y", "d"],
        ["solve", "--property", "unitary", "--X", "d", "--Y", "d"],
    ],
    ids=" ".join,
)
def test_overflow_warnings_stay_off_stderr(capsys, mm, argv):
    # products of these matrices overflow; the verdict on d is not asserted,
    # only that no numpy warning, which would name a library file, escapes
    files = {"b": mm("b.mtx", [[-0.0, 0.0], [5e-324, 1e308]]), "d": mm("d.mtx", np.diag([1.0, 1e160]))}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, [files.get(a, a) for a in argv])
    assert [str(w.message) for w in caught] == []
    assert err == ""
    assert json.loads(out)["exit_code"] == code


class TestUsageErrors:
    def test_no_command(self, capsys):
        code, out, err = run(capsys, [])
        assert code == 3 and out == ""

    def test_unknown_property(self, capsys, mm):
        x = mm("x.mtx", np.eye(2))
        code, out, err = run(capsys, ["check", "--property", "diagonal", "--X", x, "--Y", x])
        assert code == 3
        assert "unknown property" in err

    def test_missing_file(self, capsys):
        code, out, err = run(
            capsys, ["check", "--property", "hermitian", "--X", "/nonexistent.mtx",
                     "--Y", "/nonexistent.mtx"]
        )
        assert code == 3
        assert out == ""

    def test_eigenvalue_flags_rejected_off_two_point(self, capsys, mm):
        x = mm("x.mtx", np.eye(2))
        code, out, err = run(
            capsys,
            ["check", "--property", "hermitian", "--lambda", "1", "--X", x, "--Y", x],
        )
        assert code == 3
        assert "normal-two-point" in err

    def test_two_point_needs_both_eigenvalues(self, capsys, mm):
        x = mm("x.mtx", np.eye(2))
        code, out, err = run(
            capsys,
            ["check", "--property", "normal-two-point", "--lambda", "1", "--X", x, "--Y", x],
        )
        assert code == 3

    def test_equal_eigenvalues_rejected(self, capsys, mm):
        x = mm("x.mtx", np.eye(2))
        code, out, err = run(
            capsys,
            ["check", "--property", "normal-two-point", "--lambda", "1", "--mu", "1",
             "--X", x, "--Y", x],
        )
        assert code == 3
        assert "distinct" in err

    def test_malformed_scalar(self, capsys, mm):
        x = mm("x.mtx", np.eye(2))
        for bad in ("1,2,3", "abc"):
            code, out, err = run(
                capsys,
                ["check", "--property", "normal-two-point", "--lambda", bad, "--mu", "0",
                 "--X", x, "--Y", x],
            )
            assert code == 3

    def test_complex_eigenvalue_syntax(self, capsys, mm):
        x = mm("x.mtx", np.eye(2))
        code, report, _ = run_json(
            capsys,
            ["check", "--property", "normal-two-point", "--lambda", "0,1", "--mu", "0,-1",
             "--X", x, "--Y", x],
        )
        assert code == 2  # identity is not reachable with spectrum {i, -i}

    def test_unknown_flag(self, capsys):
        code, out, err = run(capsys, ["gap", "--B", "b", "--C", "c", "--frobnicate"])
        assert code == 3


class TestOutputModes:
    def test_report_file_instead_of_stdout(self, capsys, mm, tmp_path):
        x = mm("x.mtx", np.eye(2))
        rpt = str(tmp_path / "report.json")
        code, out, err = run(
            capsys,
            ["check", "--property", "hermitian", "--X", x, "--Y", x, "--report", rpt],
        )
        assert code == 0
        assert out == ""
        data = json.loads((tmp_path / "report.json").read_text())
        assert data["verdict"] == "feasible"

    def test_unwritable_report_path_is_usage_error(self, capsys, tmp_path):
        rpt = str(tmp_path / "no" / "such" / "r.json")
        code, out, err = run(
            capsys,
            ["generate", "--property", "unitary", "--m", "2", "--seed", "1", "--report", rpt],
        )
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and "r.json" in err

    def test_text_format(self, capsys, mm):
        x = mm("x.mtx", np.eye(2))
        code, out, err = run(
            capsys, ["check", "--property", "hermitian", "--X", x, "--Y", x,
                     "--format", "text"]
        )
        assert code == 0
        assert "verdict: feasible" in out
        assert "condition hermitian-product: ok" in out

    def test_json_is_sorted_and_stable(self, capsys, mm):
        x = mm("x.mtx", np.eye(2))
        argv = ["check", "--property", "hermitian", "--X", x, "--Y", x]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2
        keys = list(json.loads(out1))
        assert keys == sorted(keys)

    def test_tolerance_overrides_land_in_report(self, capsys, mm):
        x = mm("x.mtx", np.eye(2))
        code, report, _ = run_json(
            capsys,
            ["check", "--property", "hermitian", "--X", x, "--Y", x,
             "--sym-tol", "1e-6", "--rank-tol", "1e-10"],
        )
        assert report["tolerances"]["sym_tol"] == 1e-6
        assert report["tolerances"]["rank_rel_cutoff"] == 1e-10


class TestSubprocessEntry:
    def test_module_entrypoint(self, tmp_path):
        x = tmp_path / "x.mtx"
        write_matrix(x, np.eye(2))
        proc = subprocess.run(
            [sys.executable, "-m", "targetkit", "check", "--property", "hermitian",
             "--X", str(x), "--Y", str(x)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["verdict"] == "feasible"

    def test_console_script_exit_codes(self, tmp_path):
        x = tmp_path / "x.mtx"
        y = tmp_path / "y.mtx"
        write_matrix(x, np.diag([1.0, 0.0]))
        write_matrix(y, np.eye(2))
        proc = subprocess.run(
            [sys.executable, "-m", "targetkit", "check", "--property", "unconstrained",
             "--X", str(x), "--Y", str(y)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2


def _json_matrix(obj) -> np.ndarray:
    entries = np.array(obj, dtype=object)
    if any(isinstance(v, dict) for v in entries.flat):
        return np.vectorize(lambda v: complex(v["re"], v["im"]), otypes=[complex])(entries)
    return entries.astype(float)


def assert_bitwise(got, want):
    want = np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_canonical(out):
    # exact, because json writes every float as its shortest round-trip repr
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


SOLVERS = {
    "unconstrained": solve_unconstrained,
    "invertible": solve_invertible,
    "hermitian": solve_hermitian,
    "invertible-hermitian": solve_invertible_hermitian,
    "positive-semidefinite": solve_psd,
    "positive-definite": solve_pd,
    "unitary": solve_unitary,
    "reflection": solve_reflection,
    "orthogonal-projection": solve_projection,
    "complex-symmetric": solve_complex_symmetric,
    "normal-two-point": solve_normal_two_point,
    "normal-vector": solve_normal_vector,
}
TWO_POINT = {"real": ("1", "-2"), "complex": ("1,1", "-2")}


class TestReportLayout:
    """Every report is ``json.dumps(report, indent=2, sort_keys=True)`` byte for byte."""

    def assert_both_formats(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert out, err
        assert_canonical(out)
        text_code, text, _ = run(capsys, argv + ["--format", "text"])
        assert text_code == code
        assert text == _render_text(_jsonable(json.loads(out)))
        return code, json.loads(out)

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("kind", sorted(SOLVERS) + ["unitary-polar"])
    def test_solve_every_class(self, capsys, mm, kind, field):
        extra = []
        if kind == "unitary-polar":
            kind, extra = "unitary", ["--unitary-method", "polar"]
        if kind == "normal-two-point":
            lam, mu = TWO_POINT[field]
            extra += ["--lambda", lam, "--mu", mu]
            prop = normal_two_point(_parse_scalar(lam, "lam"), _parse_scalar(mu, "mu"))
        else:
            prop = PropertyClass(kind)
        n = 1 if kind == "normal-vector" else 2
        X, Y, _ = generate_instance(InstanceSpec(prop, 4, n, 21, field, rank_deficiency=n - 1))
        x, y = mm("x.mtx", X), mm("y.mtx", Y)
        code, report = self.assert_both_formats(
            capsys, ["solve", "--property", kind, "--X", x, "--Y", y] + extra
        )
        assert code == 0, report
        X, Y = read_matrix(x), read_matrix(y)
        if extra[:1] == ["--unitary-method"]:
            sol = solve_unitary_polar(X, Y)
        elif kind == "normal-two-point":
            sol = solve_normal_two_point(X, Y, prop.lam, prop.mu)
        else:
            sol = SOLVERS[kind](X, Y)
        assert_bitwise(_json_matrix(report["A"]), sol.A)
        assert set(report["free_params"]) == set(sol.free_params)
        for name, value in sol.free_params.items():
            if isinstance(value, np.ndarray):
                assert_bitwise(_json_matrix(report["free_params"][name]), value)

    def test_check_verify_and_failure_reports(self, capsys, mm):
        eye = mm("eye.mtx", np.eye(2))
        swap = mm("swap.mtx", [[0.0, 1.0], [1.0, 0.0]])
        e1, e2 = mm("e1.mtx", [[1.0], [0.0]]), mm("e2.mtx", [[0.0], [1.0]])
        cases = [
            (["check", "--property", "hermitian", "--X", eye, "--Y", swap], 0),
            (["check", "--property", "projection", "--X", eye, "--Y", swap], 2),
            (["solve", "--property", "normal-two-point", "--lambda", "2", "--mu", "3",
              "--X", eye, "--Y", mm("two.mtx", 2.0 * np.eye(2))], 2),
            (["solve", "--property", "invertible-hermitian", "--X", e1, "--Y", e2,
              "--res-tol", "1.0"], 4),
            (["verify", "--property", "reflection", "--A", swap, "--X", eye, "--Y", swap], 0),
            (["verify", "--property", "pd", "--A", swap], 2),
        ]
        for argv, expected in cases:
            assert self.assert_both_formats(capsys, argv)[0] == expected, argv

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_generate_source_and_gap_reports(self, capsys, mm, field):
        code, report = self.assert_both_formats(
            capsys,
            ["generate", "--property", "hermitian", "--m", "4", "--n", "2", "--seed", "5",
             "--field", field, "--rank-deficiency", "1"],
        )
        assert code == 0
        y = mm("y.mtx", _json_matrix(report["Y"]))
        for prop in ("hermitian", "reflection", "projection"):
            code, _ = self.assert_both_formats(
                capsys, ["generate-source", "--property", prop, "--Y", y, "--seed", "5"]
            )
            assert code == 0
        unit = 1.0 if field == "real" else 1j
        nilpotent = mm("n.mtx", np.array([[0.0, unit], [0.0, 0.0]]))
        swap = mm("s.mtx", np.array([[0.0, unit], [np.conj(unit), 0.0]]))
        zero, eye = mm("z.mtx", np.zeros((2, 2))), mm("eye.mtx", np.eye(2))
        for b, c, expected in ((nilpotent, zero, 2), (swap, eye, 0)):
            code, _ = self.assert_both_formats(capsys, ["gap", "--B", b, "--C", c])
            assert code == expected


_FLOATS = st.floats(allow_subnormal=True) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, float("inf"), float("-inf"), float("nan")]
)
_COMPLEX = st.builds(complex, _FLOATS, _FLOATS)
_SHAPES = hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=4)
_LEAVES = (
    hnp.arrays(np.float64, _SHAPES, elements=_FLOATS)
    | hnp.arrays(np.complex128, _SHAPES, elements=_COMPLEX)
    | hnp.arrays(np.int64, _SHAPES)
    | _FLOATS
    | _FLOATS.map(np.float64)
    | _COMPLEX
    | _COMPLEX.map(np.complex128)
    | st.integers()
    | st.integers(-(2**63), 2**63 - 1).map(np.int64)
    | st.booleans()
    | st.booleans().map(np.bool_)
    | st.none()
    | st.text(max_size=4)
)
_TREES = st.recursive(
    _LEAVES,
    lambda kids: st.lists(kids, max_size=3)
    | st.lists(kids, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=3) | st.integers(-3, 3), kids, max_size=3),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(_TREES)
def test_renderer_matches_json_dumps(obj):
    assert _dump(obj) == json.dumps(_jsonable(obj), indent=2, sort_keys=True)


def test_cached_parser_is_stateless(capsys, mm):
    """In-process calls on the one cached parser match fresh interpreters."""
    x = mm("x.mtx", np.eye(2))
    y = mm("y.mtx", np.diag([1.0, -1.0]))
    sequence = [
        ["check", "--property", "normal-two-point", "--lambda", "1", "--mu", "-1",
         "--X", x, "--Y", y],
        ["check", "--property", "hermitian", "--X", x, "--Y", y],
        ["check", "--property", "hermitian", "--mu", "-1", "--X", x, "--Y", y],
        ["check", "--property", "normal-two-point", "--lambda", "1", "--X", x, "--Y", y],
        ["solve", "--property", "unitary", "--X", x],
        ["generate", "--property", "unitary", "--m", "2", "--n", "1", "--seed", "1",
         "--field", "real"],
        ["generate", "--property", "unitary", "--m", "2", "--seed", "1", "--format", "text"],
    ]
    in_process = [run(capsys, argv) for argv in sequence]
    assert [code for code, _, _ in in_process] == [0, 0, 3, 3, 3, 0, 0]
    assert _build_parser() is _build_parser()
    package_root = str(Path(targetkit.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (package_root, env.get("PYTHONPATH")) if p)
    for argv, got in zip(sequence, in_process):
        proc = subprocess.run(
            [sys.executable, "-m", "targetkit", *argv], capture_output=True, text=True, env=env
        )
        assert got == (proc.returncode, proc.stdout, proc.stderr), argv
    # the parser is built by the first main call, not at import
    proc = subprocess.run(
        [sys.executable, "-c",
         "import targetkit.cli as c; print(c._build_parser.cache_info().currsize)"],
        capture_output=True, text=True, env=env,
    )
    assert proc.stdout == "0\n", proc.stderr


def _count_calls(monkeypatch):
    """Count calls of every public targetkit function, as the traced benchmark sees them.

    Like ``perfbench/spans.py``'s ``install``, this rebinds a counting
    wrapper at every targetkit module attribute that holds a public
    function, after import.  A call through a reference taken at import
    time (say, a dict of function objects) is not counted.  Returns the
    counts and the names of the outermost ``solvers.solve_*`` calls.
    """
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "targetkit" or n.startswith("targetkit."))]
    counts, outer, running = Counter(), [], []

    def counting(fn, name):
        solver = name.startswith("solvers.solve_")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            if solver:
                if not running:
                    outer.append(name)
                running.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                if solver:
                    running.pop()

        return wrapper

    replace = {}
    for mod in modules:
        layer = mod.__name__.rpartition(".")[2]
        for attr in getattr(mod, "__all__", ()):
            fn = getattr(mod, attr, None)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                replace[fn] = counting(fn, f"{layer}.{attr}")
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in replace:
                monkeypatch.setattr(mod, attr, replace[value])
    return counts, outer


def test_counting_wrappers_see_every_cli_call(capsys, mm, monkeypatch):
    cases = []  # (property args, solve-only args, expected solver, x, y, witness)
    for kind, solver in sorted(SOLVERS.items()):
        args = ["--property", kind]
        if kind == "normal-two-point":
            prop = normal_two_point(1.0, -2.0)
            args += ["--lambda", "1", "--mu", "-2"]
        else:
            prop = PropertyClass(kind)
        n = 1 if kind == "normal-vector" else 2
        X, Y, A = generate_instance(InstanceSpec(prop, m=4, n=n, seed=19, field="real"))
        files = [mm(f"{kind}-{name}.mtx", M) for name, M in (("x", X), ("y", Y), ("a", A))]
        cases.append((args, [], solver.__name__, *files))
        if kind == "unitary":
            cases.append((args, ["--unitary-method", "polar"], "solve_unitary_polar", *files))
    counts, outer = _count_calls(monkeypatch)
    for args, solve_args, solver, x, y, a in cases:
        counts.clear()
        outer.clear()
        assert main(["solve", *args, *solve_args, "--X", x, "--Y", y]) == 0, capsys.readouterr()
        assert outer == [f"solvers.{solver}"], args
        assert counts["verify.verify_property"] >= 1
        counts.clear()
        outer.clear()
        assert main(["check", *args, "--X", x, "--Y", y]) == 0
        assert counts["feasibility.check"] == 1 and not outer
        counts.clear()
        assert main(["verify", *args, "--A", a, "--X", x, "--Y", y]) == 0
        assert counts["verify.verify_property"] == 1 and counts["verify.verify_targeting"] == 1
    capsys.readouterr()
