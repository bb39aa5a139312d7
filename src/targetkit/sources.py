"""Source generation: for a fixed target, build every reachable source.

The forward modules ask "given X and Y, is there a structured A with
AX = Y".  This module answers the inverse question for the three classes
with a complete characterization (Hermitian, reflection, orthogonal
projection): fix Y, take its SVD ``Y = V Sigma W*``, and parametrize the
sources X by free blocks of ``V* X W``.  Each builder validates the
block hypotheses, assembles X, and confirms the resulting pair really is
feasible before handing it back.  The command line's ``generate-source``
draws those free blocks here too, from a seeded generator.
"""

import numpy as np

from .errors import ConditionViolatedError, NumericFailureError, ShapeError
from .feasibility import HERMITIAN, ORTHOGONAL_PROJECTION, REFLECTION, check
from .linalg import (
    DEFAULT_TOL,
    SvdFactors,
    TolerancePolicy,
    _asymmetry,
    _fro,
    _nonzero_partition,
    _partition,
    _rank,
    _relative,
    as_matrix,
)
from .verify import _draw_gaussian, _draw_unitary, _philox

__all__ = [
    "build_source_hermitian",
    "build_source_reflection",
    "build_source_projection",
]


def _target_frame(Y, tol):
    # the prologue of every builder: Y coerced once and partitioned at its
    # rank, refusing a numerically zero Y as svd_partitioned does
    tol = tol or DEFAULT_TOL
    Y = as_matrix(Y, "Y")
    return tol, Y, _nonzero_partition(Y, tol)


def _optional_block(block, shape, name):
    rows, cols = shape
    if rows == 0 or cols == 0:
        if block is not None:
            raise ShapeError(f"{name} must be omitted at this rank split (would be {rows}x{cols})")
        return None
    if block is None:
        raise ShapeError(f"{name} is required at this rank split, expected shape {shape}")
    b = as_matrix(block, name)
    if b.shape != shape:
        raise ShapeError(f"{name} must have shape {shape}, got {b.shape}")
    return b


def _assemble(f: SvdFactors, m: int, n: int, top_left, bottom_left, bottom_right) -> np.ndarray:
    r = f.rank
    parts = [p for p in (top_left, bottom_left, bottom_right) if p is not None]
    M = np.zeros((m, n), dtype=np.result_type(np.float64, *parts))
    M[:r, :r] = top_left
    if bottom_left is not None:
        M[r:, :r] = bottom_left
    if bottom_right is not None:
        M[r:, r:] = bottom_right
    return f.V @ M @ f.W.conj().T


def _confirm(prop, X, Y, tol):
    report = check(prop, X, Y, tol)
    if not report.feasible:
        failed = [c.name for c in report.conditions if not c.satisfied]
        raise NumericFailureError(
            f"assembled source failed the {prop.label()} feasibility audit: violated {failed}"
        )
    return X


def build_source_hermitian(Y, Z11, Z21=None, Z22=None, tol: TolerancePolicy | None = None):
    """Source reachable from Y under some Hermitian targeting matrix.

    With ``Y = V Sigma W*`` of rank r, the source is
    ``X = V [[Z11, 0], [Z21, Z22]] W*``.  Hypotheses: ``Sigma_r Z11``
    must equal ``Z11* Sigma_r`` (a twisted Hermitian condition), and
    either ``Z11`` is invertible, or ``[Z11; Z21]`` has full column rank
    with ``Z21 (null Z11)`` meeting ``col Z22`` only at zero.
    """
    return _hermitian_source(*_target_frame(Y, tol), Z11, Z21, Z22)


def _hermitian_source(tol, Y, f, Z11, Z21=None, Z22=None):
    # the builders' bodies take the target frame, so a caller that already
    # holds it does not factor Y again
    (m, n), r = Y.shape, f.rank
    Z11 = as_matrix(Z11, "Z11")
    if Z11.shape != (r, r):
        raise ShapeError(f"Z11 must have shape ({r}, {r}), got {Z11.shape}")
    Z21 = _optional_block(Z21, (m - r, r), "Z21")
    Z22 = _optional_block(Z22, (m - r, n - r), "Z22")
    twisted = f.sigma[:, None] * Z11
    dev = _relative(_fro(twisted - Z11.conj().T * f.sigma[None, :]), _fro(twisted))
    if dev > tol.sym_tol:
        raise ConditionViolatedError(
            f"Sigma_r Z11 != Z11* Sigma_r (relative deviation {dev:.3e})"
        )
    if _rank(Z11, tol) < r:
        stacked = Z11 if Z21 is None else np.vstack([Z11, Z21])
        if _rank(stacked, tol) < r:
            raise ConditionViolatedError(
                "[Z11; Z21] must have full column rank when Z11 is singular"
            )
        N = _partition(Z11, tol).W2
        if N.shape[1] > 0 and Z21 is not None and Z22 is not None:
            ZN = Z21 @ N
            joint = _rank(np.hstack([ZN, Z22]), tol)
            if joint < _rank(ZN, tol) + _rank(Z22, tol):
                raise ConditionViolatedError(
                    "Z21 (null Z11) must intersect col Z22 only at zero"
                )
    X = _assemble(f, m, n, Z11, Z21, Z22)
    return _confirm(HERMITIAN, X, Y, tol)


def build_source_reflection(Y, U11, U21=None, tol: TolerancePolicy | None = None):
    """Source reachable from Y under some reflection.

    ``X = V [[U11 Sigma_r, 0], [U21 Sigma_r, 0]] W*`` where the stacked
    ``[U11; U21]`` must have orthonormal columns and the top block must
    be Hermitian.
    """
    return _reflection_source(*_target_frame(Y, tol), U11, U21)


def _reflection_source(tol, Y, f, U11, U21=None):
    (m, n), r = Y.shape, f.rank
    U11 = as_matrix(U11, "U11")
    if U11.shape != (r, r):
        raise ShapeError(f"U11 must have shape ({r}, {r}), got {U11.shape}")
    U21 = _optional_block(U21, (m - r, r), "U21")
    herm_dev = _asymmetry(U11)
    if herm_dev > tol.sym_tol:
        raise ConditionViolatedError(f"U11 must be Hermitian (deviation {herm_dev:.3e})")
    U1 = U11 if U21 is None else np.vstack([U11, U21])
    gram_dev = _relative(_fro(U1.conj().T @ U1 - np.eye(r)), np.sqrt(r))
    if gram_dev > tol.sym_tol:
        raise ConditionViolatedError(
            f"[U11; U21] must have orthonormal columns (deviation {gram_dev:.3e})"
        )
    X = _assemble(
        f,
        m,
        n,
        U11 * f.sigma[None, :],
        None if U21 is None else U21 * f.sigma[None, :],
        None,
    )
    return _confirm(REFLECTION, X, Y, tol)


def build_source_projection(Y, Z21=None, Z22=None, tol: TolerancePolicy | None = None):
    """Source reachable from Y under the projector onto Y's range.

    ``X = V [[Sigma_r, 0], [Z21, Z22]] W*`` is feasible for every choice
    of the free bottom blocks: projecting away the bottom rows leaves
    exactly Y.
    """
    return _projection_source(*_target_frame(Y, tol), Z21, Z22)


def _projection_source(tol, Y, f, Z21=None, Z22=None):
    (m, n), r = Y.shape, f.rank
    Z21 = _optional_block(Z21, (m - r, r), "Z21")
    Z22 = _optional_block(Z22, (m - r, n - r), "Z22")
    X = _assemble(f, m, n, np.diag(f.sigma), Z21, Z22)
    return _confirm(ORTHOGONAL_PROJECTION, X, Y, tol)


def _random_source(kind, Y, seed, tol):
    # seeded free blocks for the builder of ``kind`` (hermitian, reflection
    # or orthogonal-projection), drawn from one Philox stream in a fixed
    # order, and the source they build; the block names are the builder's
    # parameter names
    rng = _philox(seed)
    tol, Y, f = _target_frame(Y, tol)
    field = "complex" if np.iscomplexobj(Y) else "real"
    (m, n), r = Y.shape, f.rank
    blocks = {}
    if kind == "reflection":
        # U11 = U diag(cos) U* and U21 = W diag(sin) U* stack to orthonormal
        # columns; only min(r, m - r) cosines have a sine partner, the rest are +-1
        s = min(r, m - r)
        U = _draw_unitary(rng, r, field)
        cosines = rng.choice([-1.0, 1.0], size=r)
        cosines[:s] = np.cos(rng.uniform(0.0, np.pi, size=s))
        blocks["U11"] = (U * cosines) @ U.conj().T
        if m > r:
            sines = np.sqrt(1.0 - cosines[:s] ** 2)
            W = _draw_unitary(rng, m - r, field)[:, :s]
            blocks["U21"] = (W * sines) @ U[:, :s].conj().T
        return blocks, _reflection_source(tol, Y, f, **blocks)
    if kind == "hermitian":
        # Z11 = Sigma_r^{-1} K with K Hermitian gives Sigma_r Z11 = K = Z11* Sigma_r
        K = _draw_gaussian(rng, (r, r), field)
        blocks["Z11"] = (K + K.conj().T) / 2 / f.sigma[:, None]
    if m > r:
        blocks["Z21"] = _draw_gaussian(rng, (m - r, r), field)
        if n > r:
            blocks["Z22"] = _draw_gaussian(rng, (m - r, n - r), field)
    build = _hermitian_source if kind == "hermitian" else _projection_source
    return blocks, build(tol, Y, f, **blocks)
