"""Independent output checks, in plain numpy.

Nothing here calls targetkit: the residual, the class property and the
verdict are re-measured from the returned objects alone, with thresholds
relative to the operands' own norms (no ``max(1, norm)`` floor), so a
wrong answer at any data scale is caught.

An operation fails when it raises anything except the expected
``InfeasibleError``, when its verdict disagrees with the generated truth,
or when its output fails a check below.
"""

import json
from dataclasses import dataclass

import numpy as np

import mmfile

RESIDUAL_TOL = 1e-9  # true relative residual |AX - Y|_F / |Y|_F
STRUCTURE_TOL = 1e-9  # relative deviation from a structural identity
INV_HERM_FLOOR = 1e-9  # sigma_min / sigma_max of an invertible Hermitian answer


@dataclass
class Verdict:
    ok: bool
    reason: str = ""
    cond: float | None = None  # sigma_min / sigma_max of an invertible-hermitian answer


OK = Verdict(True)


def _fro(a) -> float:
    return float(np.linalg.norm(a))


def _rel(diff, scale) -> float:
    d = _fro(diff)
    return d / scale if scale > 0.0 else (0.0 if d == 0.0 else np.inf)


def _rank_and_null(M):
    _, s, Wh = np.linalg.svd(M)
    if s[0] == 0.0:
        return 0, np.eye(M.shape[1], dtype=M.dtype)
    r = int(np.count_nonzero(s > 1e-12 * s[0] * max(M.shape)))
    return r, Wh[r:].conj().T


def _rank_gap(X, Y) -> float:
    return float(abs(_rank_and_null(X)[0] - _rank_and_null(Y)[0]))


def _null_leak(A_of, B_on) -> float:
    """Relative mass of ``B_on`` on the null space of ``A_of``."""
    _, N = _rank_and_null(A_of)
    if N.shape[1] == 0:
        return 0.0
    return _rel(B_on @ N, _fro(B_on))


def _asym(M, transpose=False) -> float:
    return _rel(M - (M.T if transpose else M.conj().T), _fro(M))


def _neg_eig(M) -> float:
    """-lambda_min / |lambda|_max of the Hermitian part: > 0 when indefinite."""
    w = np.linalg.eigvalsh((M + M.conj().T) / 2)
    top = float(np.abs(w).max())
    return -float(w[0]) / top if top > 0.0 else 0.0


def violation(cls, X, Y, two_point) -> float:
    """Largest relative violation of a necessary feasibility condition of ``cls``."""
    M = X.conj().T @ Y
    if cls == "unconstrained":
        return _null_leak(X, Y)
    if cls == "invertible":
        return max(_rank_gap(X, Y), _null_leak(X, Y))
    if cls == "hermitian":
        return max(_null_leak(X, Y), _asym(M))
    if cls == "invertible-hermitian":
        return max(_rank_gap(X, Y), _null_leak(X, Y), _asym(M))
    if cls in ("positive-semidefinite", "positive-definite"):
        return max(_asym(M), _neg_eig(M), _null_leak(M, Y))
    if cls == "unitary":
        return _rel(X.conj().T @ X - Y.conj().T @ Y, _fro(X.conj().T @ X))
    if cls == "reflection":
        return max(_asym(M), _rel(X.conj().T @ X - Y.conj().T @ Y, _fro(X.conj().T @ X)))
    if cls == "orthogonal-projection":
        G = Y.conj().T @ Y
        return _rel(G - Y.conj().T @ X, _fro(G))
    if cls == "complex-symmetric":
        return max(_null_leak(X, Y), _asym(X.T @ Y, transpose=True))
    if cls == "normal-two-point":
        # spectral norms: the Frobenius ratio of a full violation shrinks like 1/sqrt(n)
        lam, mu = two_point
        E, F = Y - mu * X, Y - lam * X
        scale = np.linalg.norm(E, 2) * np.linalg.norm(F, 2)
        return float(np.linalg.norm(F.conj().T @ E, 2) / scale) if scale > 0.0 else 0.0
    return 0.0  # normal-vector: any two nonzero vectors


def _inv_ratio(s) -> float:
    return float(s[-1] / s[0]) if s[0] > 0.0 else 0.0


def matrix_ok(cls, A, X, Y, two_point) -> Verdict:
    """Check a returned targeting matrix: shape, field, residual, property."""
    m = X.shape[0]
    if not isinstance(A, np.ndarray) or A.shape != (m, m):
        return Verdict(False, f"A has shape {getattr(A, 'shape', None)}, expected {(m, m)}")
    if not np.all(np.isfinite(A)):
        return Verdict(False, "A has non-finite entries")
    if np.isrealobj(X) and np.isrealobj(Y) and np.iscomplexobj(A):
        return Verdict(False, "real data gave a complex A")
    res = _rel(A @ X - Y, _fro(Y))
    if res > RESIDUAL_TOL:
        return Verdict(False, f"relative residual {res:.3e}")
    eye = np.eye(m)
    cond = None
    devs = {}
    if cls in ("hermitian", "invertible-hermitian", "positive-semidefinite", "positive-definite",
               "reflection", "orthogonal-projection"):
        devs["hermitian"] = _asym(A)
    if cls == "invertible":
        ratio = _inv_ratio(np.linalg.svd(A, compute_uv=False))
        devs["singular"] = 1.0 if ratio <= 1e-12 * m else 0.0
    elif cls == "invertible-hermitian":
        w = np.abs(np.linalg.eigvalsh((A + A.conj().T) / 2))
        cond = float(w.min() / w.max()) if w.max() > 0.0 else 0.0
        devs["singular"] = 1.0 if cond < INV_HERM_FLOOR else 0.0
    elif cls in ("positive-semidefinite", "positive-definite"):
        w = np.linalg.eigvalsh((A + A.conj().T) / 2)
        top = float(np.abs(w).max())
        lo = float(w[0]) / top if top > 0.0 else 0.0
        devs["definite"] = max(0.0, -lo) if cls == "positive-semidefinite" else (1.0 if lo <= 1e-12 else 0.0)
    elif cls == "unitary":
        devs["unitary"] = _rel(A.conj().T @ A - eye, np.sqrt(m))
    elif cls == "reflection":
        devs["involution"] = _rel(A @ A - eye, np.sqrt(m))
    elif cls == "orthogonal-projection":
        devs["idempotent"] = _rel(A @ A - A, _fro(A))
    elif cls == "complex-symmetric":
        devs["symmetric"] = _asym(A, transpose=True)
    elif cls in ("normal-two-point", "normal-vector"):
        Ah = A.conj().T
        devs["normal"] = _rel(Ah @ A - A @ Ah, _fro(A) ** 2)
        if cls == "normal-two-point":
            lam, mu = two_point
            devs["two-point"] = _rel((A - lam * eye) @ (A - mu * eye),
                                     _fro(A - lam * eye) * _fro(A - mu * eye))
    bad = {k: v for k, v in devs.items() if not v <= STRUCTURE_TOL}
    if bad:
        return Verdict(False, "property: " + ", ".join(f"{k}={v:.3e}" for k, v in bad.items()), cond)
    return Verdict(True, "", cond)


def source_ok(cls, Xs, Y, two_point) -> Verdict:
    """A built source must make ``(Xs, Y)`` feasible for ``cls``."""
    if not isinstance(Xs, np.ndarray) or Xs.shape != Y.shape:
        return Verdict(False, f"source has shape {getattr(Xs, 'shape', None)}, expected {Y.shape}")
    if not np.all(np.isfinite(Xs)):
        return Verdict(False, "source has non-finite entries")
    dev = violation(cls, Xs, Y, two_point)
    if dev > STRUCTURE_TOL:
        return Verdict(False, f"built source violates {cls} feasibility by {dev:.3e}")
    return OK


def judge_call(op, X, Y, value, exc, infeasible_error) -> Verdict:
    """Judge a library call (``check``, ``solve`` or ``build_source``)."""
    if op.kind == "build_source":
        if exc is not None:
            return Verdict(False, f"raised {type(exc).__name__}: {exc}")
        return source_ok(op.cls, value, Y, op.pair.two_point)
    if exc is not None:
        if isinstance(exc, infeasible_error) and op.kind == "solve" and not op.expect_feasible:
            return OK
        return Verdict(False, f"raised {type(exc).__name__}: {exc}")
    if op.kind == "check":
        feasible = getattr(value, "feasible", None)
        if feasible is None or bool(feasible) != op.expect_feasible:
            return Verdict(False, f"verdict feasible={feasible}, truth feasible={op.expect_feasible}")
        return OK
    if not op.expect_feasible:
        return Verdict(False, "returned a solution for an infeasible pair")
    return matrix_ok(op.cls, getattr(value, "A", None), X, Y, op.pair.two_point)


def _json_matrix(obj) -> np.ndarray:
    rows = [[complex(v["re"], v["im"]) if isinstance(v, dict) else v for v in row] for row in obj]
    return np.array(rows)


def judge_cli(op, code, out, err) -> Verdict:
    """Judge one ``targetkit.cli.main`` run from its exit code and report."""
    expected = 0 if op.expect_feasible else 2
    if code != expected:
        return Verdict(False, f"exit code {code}, expected {expected}: {err.strip()[:200]}")
    try:
        report = json.loads(out)
    except ValueError as exc:
        return Verdict(False, f"report is not JSON: {exc}")
    want = {
        "check": "feasible" if op.expect_feasible else "infeasible",
        "solve": "solved" if op.expect_feasible else "infeasible",
        "verify": "pass",
        "generate": "generated",
    }[op.command]
    if report.get("verdict") != want:
        return Verdict(False, f"verdict {report.get('verdict')!r}, expected {want!r}")
    if op.command == "solve" and op.expect_feasible:
        try:
            A = mmfile.read(op.files["A"])
        except (OSError, ValueError) as exc:
            return Verdict(False, f"cannot read the written solution: {exc}")
        return matrix_ok(op.cls, A, op.pair.X, op.pair.Y, op.pair.two_point)
    if op.command == "generate":
        try:
            X = mmfile.read(op.files["X"])
            Y = mmfile.read(op.files["Y"])
            W = _json_matrix(report["witness"])
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return Verdict(False, f"cannot read the generated instance: {exc}")
        if not np.allclose(X, _json_matrix(report["X"]), rtol=1e-15, atol=0.0):
            return Verdict(False, "written X differs from the reported X")
        return matrix_ok(op.cls, W, X, Y, None)
    return OK
