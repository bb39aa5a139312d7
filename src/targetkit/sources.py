"""Source generation: for a fixed target, build every reachable source.

The forward modules ask "given X and Y, is there a structured A with
AX = Y".  This module answers the inverse question for the three classes
with a complete characterization (Hermitian, reflection, orthogonal
projection): fix Y, take its SVD ``Y = V Sigma W*``, and parametrize the
sources X by free blocks of ``V* X W``.  Each builder validates the
block hypotheses, assembles X, and confirms the resulting pair really is
feasible before handing it back.
"""

import numpy as np

from .errors import ConditionViolatedError, NumericFailureError, ShapeError
from .feasibility import HERMITIAN, ORTHOGONAL_PROJECTION, REFLECTION, _Pair, check
from .linalg import (
    DEFAULT_TOL,
    SvdFactors,
    TolerancePolicy,
    _fro,
    as_matrix,
    null_space_basis,
    numerical_rank,
    svd_partitioned,
)

__all__ = [
    "build_source_hermitian",
    "build_source_reflection",
    "build_source_projection",
    "target_frame_blocks",
]


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
    tol = tol or DEFAULT_TOL
    Y = as_matrix(Y, "Y")
    f = svd_partitioned(Y, tol)
    m, n = Y.shape
    r = f.rank
    Z11 = as_matrix(Z11, "Z11")
    if Z11.shape != (r, r):
        raise ShapeError(f"Z11 must have shape ({r}, {r}), got {Z11.shape}")
    Z21 = _optional_block(Z21, (m - r, r), "Z21")
    Z22 = _optional_block(Z22, (m - r, n - r), "Z22")
    twisted = f.sigma[:, None] * Z11
    dev = _fro(twisted - Z11.conj().T * f.sigma[None, :]) / max(1.0, _fro(twisted))
    if dev > tol.sym_tol:
        raise ConditionViolatedError(
            f"Sigma_r Z11 != Z11* Sigma_r (relative deviation {dev:.3e})"
        )
    if numerical_rank(Z11, tol) < r:
        stacked = Z11 if Z21 is None else np.vstack([Z11, Z21])
        if numerical_rank(stacked, tol) < r:
            raise ConditionViolatedError(
                "[Z11; Z21] must have full column rank when Z11 is singular"
            )
        N = null_space_basis(Z11, tol)
        if N.shape[1] > 0 and Z21 is not None and Z22 is not None:
            ZN = Z21 @ N
            joint = numerical_rank(np.hstack([ZN, Z22]), tol)
            if joint < numerical_rank(ZN, tol) + numerical_rank(Z22, tol):
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
    tol = tol or DEFAULT_TOL
    Y = as_matrix(Y, "Y")
    f = svd_partitioned(Y, tol)
    m, n = Y.shape
    r = f.rank
    U11 = as_matrix(U11, "U11")
    if U11.shape != (r, r):
        raise ShapeError(f"U11 must have shape ({r}, {r}), got {U11.shape}")
    U21 = _optional_block(U21, (m - r, r), "U21")
    herm_dev = _fro(U11 - U11.conj().T) / max(1.0, _fro(U11))
    if herm_dev > tol.sym_tol:
        raise ConditionViolatedError(f"U11 must be Hermitian (deviation {herm_dev:.3e})")
    U1 = U11 if U21 is None else np.vstack([U11, U21])
    gram_dev = _fro(U1.conj().T @ U1 - np.eye(r)) / max(1.0, np.sqrt(r))
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
    tol = tol or DEFAULT_TOL
    Y = as_matrix(Y, "Y")
    f = svd_partitioned(Y, tol)
    m, n = Y.shape
    r = f.rank
    Z21 = _optional_block(Z21, (m - r, r), "Z21")
    Z22 = _optional_block(Z22, (m - r, n - r), "Z22")
    X = _assemble(f, m, n, np.diag(f.sigma), Z21, Z22)
    return _confirm(ORTHOGONAL_PROJECTION, X, Y, tol)


def target_frame_blocks(X, Y, tol: TolerancePolicy | None = None) -> dict:
    """Partition ``V* X W`` against the rank split of Y's SVD.

    Returns the blocks ``Z11`` (r x r), ``Z12``, ``Z21``, ``Z22`` keyed
    by name, omitting those with a vanished dimension.  This is the
    coordinate frame in which the source characterizations live, and the
    completeness direction of each one is checked by inspecting these
    blocks.
    """
    pair = _Pair(X, Y, tol)
    f = svd_partitioned(pair.Y, pair.tol)
    r = f.rank
    Z = f.V.conj().T @ pair.X @ f.W
    blocks = {"Z11": Z[:r, :r]}
    if Z.shape[1] > r:
        blocks["Z12"] = Z[:r, r:]
    if Z.shape[0] > r:
        blocks["Z21"] = Z[r:, :r]
    if Z.shape[0] > r and Z.shape[1] > r:
        blocks["Z22"] = Z[r:, r:]
    return blocks
