"""Field-generic dense linear-algebra primitives.

Everything downstream (feasibility certificates, per-property solvers,
source recipes) is built on the partitioned singular value decomposition
implemented here.  All operations are pure functions of their inputs and
the tolerance policy: no global state, identical results for identical
inputs.

Real inputs stay real.  :func:`as_matrix` maps anything whose imaginary
part is exactly zero to ``float64`` and everything else to ``complex128``;
NumPy factorizations of real arrays return real factors, so the real
arithmetic track is preserved through every construction.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadVariantPreconditionError,
    NotOrthonormalError,
    NumericFailureError,
    ShapeError,
    ZeroMatrixError,
)

__all__ = [
    "as_matrix",
    "TolerancePolicy",
    "DEFAULT_TOL",
    "SvdFactors",
    "svd_partitioned",
    "numerical_rank",
    "null_space_basis",
    "pseudoinverse",
    "orthogonal_projector",
    "nearest_orthonormal",
    "complete_orthonormal",
    "schur_congruence",
    "ELIMINATE_CORNER",
    "ELIMINATE_HEAD",
    "ELIMINATE_HEAD_PSEUDO",
    "is_zero_matrix",
]


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a 2-D ``float64`` or ``complex128`` array.

    1-D input is treated as a single column.  Complex input whose
    imaginary part is exactly zero is demoted to ``float64``; that is the
    tag that keeps real problems on the real arithmetic track.
    """
    arr = np.asarray(a)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be 2-dimensional, got ndim={arr.ndim}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ShapeError(f"{name} must have positive dimensions, got {arr.shape}")
    if not np.issubdtype(arr.dtype, np.number):
        raise ValueError(f"{name} must be numeric, got dtype {arr.dtype}")
    if np.iscomplexobj(arr):
        arr = arr.astype(np.complex128)
        if np.all(arr.imag == 0):
            arr = arr.real.copy()
    else:
        arr = arr.astype(np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class TolerancePolicy:
    """Every numeric threshold used by the package, in one auditable record.

    All thresholds are applied relative to a norm of the operand they
    guard, never against raw entries.  ``zero_matrix_tol`` is the single
    exception by necessity (a zero test has no scale); its default makes
    "zero" mean exactly zero up to underflow.
    """

    rank_rel_cutoff: float = 1e-12
    sym_tol: float = 1e-10
    psd_tol: float = 1e-10
    residual_tol: float = 1e-9
    zero_matrix_tol: float = 1e-300

    def __post_init__(self):
        for fname in ("rank_rel_cutoff", "sym_tol", "psd_tol", "residual_tol", "zero_matrix_tol"):
            value = getattr(self, fname)
            if not (value > 0):
                raise ValueError(f"{fname} must be strictly positive, got {value!r}")

    def rank_cutoff(self, sigma_max: float, m: int, n: int) -> float:
        """Singular values at or below this are treated as zero."""
        return self.rank_rel_cutoff * sigma_max * max(m, n)


DEFAULT_TOL = TolerancePolicy()


def _fro(a) -> float:
    return float(np.linalg.norm(a))


def _herm(M: np.ndarray) -> np.ndarray:
    return (M + M.conj().T) / 2


def is_zero_matrix(a, tol: TolerancePolicy | None = None) -> bool:
    tol = tol or DEFAULT_TOL
    return float(np.linalg.norm(a)) <= tol.zero_matrix_tol


@dataclass(frozen=True)
class SvdFactors:
    """Full SVD ``X = V @ Sigma @ W*`` partitioned at the numerical rank.

    ``sigma`` holds only the ``rank`` singular values strictly above the
    cutoff, in descending order.  ``V1``/``W1`` carry the range and co-range
    bases, ``V2``/``W2`` their orthogonal complements; the columns of ``W2``
    span the numerical null space.
    """

    V: np.ndarray
    W: np.ndarray
    sigma: np.ndarray
    rank: int

    @property
    def V1(self) -> np.ndarray:
        return self.V[:, : self.rank]

    @property
    def V2(self) -> np.ndarray:
        return self.V[:, self.rank :]

    @property
    def W1(self) -> np.ndarray:
        return self.W[:, : self.rank]

    @property
    def W2(self) -> np.ndarray:
        return self.W[:, self.rank :]

    def reconstruct(self) -> np.ndarray:
        return (self.V1 * self.sigma) @ self.W1.conj().T


def svd_partitioned(X, tol: TolerancePolicy | None = None) -> SvdFactors:
    """Full SVD of a nonzero matrix, partitioned at the numerical rank.

    The rank counts singular values strictly above
    ``rank_rel_cutoff * sigma_max * max(m, n)``.  Raises
    :class:`ZeroMatrixError` for a numerically zero input (for which no
    rank-revealing partition exists).
    """
    tol = tol or DEFAULT_TOL
    X = as_matrix(X, "X")
    if is_zero_matrix(X, tol):
        raise ZeroMatrixError("input matrix is numerically zero")
    V, s, Wh = np.linalg.svd(X, full_matrices=True)
    cutoff = tol.rank_cutoff(float(s[0]), *X.shape)
    r = int(np.count_nonzero(s > cutoff))
    return SvdFactors(V=V, W=Wh.conj().T, sigma=s[:r].copy(), rank=r)


def numerical_rank(X, tol: TolerancePolicy | None = None) -> int:
    """Rank under the shared relative cutoff; 0 for the zero matrix."""
    tol = tol or DEFAULT_TOL
    X = as_matrix(X, "X")
    if is_zero_matrix(X, tol):
        return 0
    s = np.linalg.svd(X, compute_uv=False)
    return int(np.count_nonzero(s > tol.rank_cutoff(float(s[0]), *X.shape)))


def null_space_basis(X, tol: TolerancePolicy | None = None) -> np.ndarray:
    """Orthonormal basis of the numerical null space, ``n x (n - rank)``.

    The zero matrix has the full space as null space, so the identity is
    returned for it.
    """
    tol = tol or DEFAULT_TOL
    X = as_matrix(X, "X")
    if is_zero_matrix(X, tol):
        return np.eye(X.shape[1], dtype=X.dtype)
    return svd_partitioned(X, tol).W2


def pseudoinverse(X, tol: TolerancePolicy | None = None) -> np.ndarray:
    """Moore-Penrose pseudoinverse from the truncated SVD.

    Uses the same rank cutoff as :func:`svd_partitioned`, which keeps the
    null-space reasoning of every downstream construction consistent.
    ``pinv(0) = 0`` by convention.
    """
    tol = tol or DEFAULT_TOL
    X = as_matrix(X, "X")
    if is_zero_matrix(X, tol):
        return np.zeros((X.shape[1], X.shape[0]), dtype=X.dtype)
    f = svd_partitioned(X, tol)
    return (f.W1 / f.sigma) @ f.V1.conj().T


def orthogonal_projector(F, tol: TolerancePolicy | None = None) -> np.ndarray:
    """Orthogonal projector onto ``col F``, computed as ``V1 @ V1*``.

    Built from the SVD range basis rather than the literal product
    ``F @ pinv(F)``; the two agree within ``residual_tol`` but this form is
    exactly Hermitian and idempotent to machine precision.  ``F = 0`` maps
    to the zero projector.
    """
    tol = tol or DEFAULT_TOL
    F = as_matrix(F, "F")
    if is_zero_matrix(F, tol):
        return np.zeros((F.shape[0], F.shape[0]), dtype=F.dtype)
    V1 = svd_partitioned(F, tol).V1
    return V1 @ V1.conj().T


def nearest_orthonormal(B) -> np.ndarray:
    """Closest matrix with orthonormal columns, in the Frobenius metric.

    This is the orthonormal polar factor ``u @ vh`` from the thin SVD; it
    is used to polish almost-orthonormal blocks whose Gram deviation was
    amplified by ill conditioning upstream.  Exactly orthonormal input is
    returned unchanged up to rounding.
    """
    B = as_matrix(B, "B")
    if B.shape[0] < B.shape[1]:
        raise ShapeError(f"no orthonormal columns possible for shape {B.shape}")
    if is_zero_matrix(B):
        raise ZeroMatrixError("input matrix is numerically zero")
    u, _, vh = np.linalg.svd(B, full_matrices=False)
    return u @ vh


def _fix_column_phases(B: np.ndarray) -> np.ndarray:
    # deterministic convention: first significantly-nonzero entry of each
    # column made real and positive
    B = B.copy()
    for j in range(B.shape[1]):
        col = B[:, j]
        mags = np.abs(col)
        top = float(mags.max(initial=0.0))
        if top == 0.0:
            continue
        i = int(np.argmax(mags > 1e-8 * top))
        pivot = col[i]
        B[:, j] = col * (abs(pivot) / pivot)
    return B


def complete_orthonormal(B1, tol: TolerancePolicy | None = None) -> np.ndarray:
    """Complete m x r ``B1`` with orthonormal columns to a unitary m x m.

    The first ``r`` columns of the result are ``B1`` itself; the new
    columns come from a Householder QR of ``B1`` with the phase of each
    fixed so that its first significant entry is real and positive, which
    makes the completion deterministic.
    """
    tol = tol or DEFAULT_TOL
    B1 = as_matrix(B1, "B1")
    m, r = B1.shape
    if r > m:
        raise ShapeError(f"cannot have {r} orthonormal columns in dimension {m}")
    gram_dev = float(np.linalg.norm(B1.conj().T @ B1 - np.eye(r)))
    if gram_dev > tol.sym_tol * max(1.0, np.sqrt(r)):
        raise NotOrthonormalError(f"columns deviate from orthonormality by {gram_dev:.3e}")
    if r == m:
        return B1.copy()
    Q, _ = np.linalg.qr(B1, mode="complete")
    B2 = _fix_column_phases(Q[:, r:])
    return np.hstack([B1, B2])


ELIMINATE_CORNER = "eliminate-corner"
ELIMINATE_HEAD = "eliminate-head"
ELIMINATE_HEAD_PSEUDO = "eliminate-head-pseudo"

_SCHUR_VARIANTS = (ELIMINATE_CORNER, ELIMINATE_HEAD, ELIMINATE_HEAD_PSEUDO)


def _block2(tl, tr, bl, br) -> np.ndarray:
    r = tl.shape[0]
    p = br.shape[0]
    out = np.zeros((r + p, r + p), dtype=np.result_type(tl, tr, bl, br))
    out[:r, :r] = tl
    out[:r, r:] = tr
    out[r:, :r] = bl
    out[r:, r:] = br
    return out


def schur_congruence(H, L, lam: float, variant: str, tol: TolerancePolicy | None = None):
    """Block-diagonalize ``B = [[H, L*], [L, lam*I]]`` by a *congruence.

    Returns ``(S, D)`` with ``S* @ B @ S = D`` and ``S`` unit
    block-triangular (determinant one).  ``H`` must be Hermitian within
    ``sym_tol``; ``lam`` must be real.  The variants and their extra
    hypotheses:

    - ``eliminate-corner`` (``lam != 0``):
      ``D = (H - L* L / lam) ⊕ lam*I``
    - ``eliminate-head`` (``H`` invertible):
      ``D = H ⊕ (lam*I - L H^{-1} L*)``
    - ``eliminate-head-pseudo`` (``null H ⊆ null L``):
      ``D = H ⊕ (lam*I - L H† L*)``

    The identity is re-checked after assembly; a relative residual above
    ``residual_tol`` raises :class:`NumericFailureError` rather than
    returning a silently inaccurate factorization.
    """
    tol = tol or DEFAULT_TOL
    H = as_matrix(H, "H")
    L = as_matrix(L, "L")
    r = H.shape[0]
    if H.shape[1] != r:
        raise ShapeError(f"H must be square, got {H.shape}")
    if L.shape[1] != r:
        raise ShapeError(f"L must have {r} columns, got {L.shape}")
    if variant not in _SCHUR_VARIANTS:
        raise ValueError(f"unknown congruence variant {variant!r}")
    if isinstance(lam, complex):
        if lam.imag != 0:
            raise BadVariantPreconditionError("the bordering scalar must be real")
        lam = lam.real
    lam = float(lam)
    p = L.shape[0]

    herm_dev = float(np.linalg.norm(H - H.conj().T)) / max(1.0, float(np.linalg.norm(H)))
    if herm_dev > tol.sym_tol:
        raise BadVariantPreconditionError(
            f"H must be Hermitian within sym_tol (relative deviation {herm_dev:.3e})"
        )

    eye_r = np.eye(r, dtype=np.result_type(H, L))
    eye_p = np.eye(p, dtype=np.result_type(H, L))
    Lh = L.conj().T

    if variant == ELIMINATE_CORNER:
        if lam == 0.0:
            raise BadVariantPreconditionError("eliminate-corner requires lam != 0")
        S = _block2(eye_r, np.zeros((r, p), dtype=eye_r.dtype), -L / lam, eye_p)
        D = _block2(
            H - (Lh @ L) / lam,
            np.zeros((r, p), dtype=eye_r.dtype),
            np.zeros((p, r), dtype=eye_r.dtype),
            lam * eye_p,
        )
    else:
        if variant == ELIMINATE_HEAD:
            if numerical_rank(H, tol) < r:
                raise BadVariantPreconditionError("eliminate-head requires H invertible")
            K = np.linalg.solve(H, Lh)
        else:
            Hp = pseudoinverse(H, tol)
            leak = float(np.linalg.norm(L @ (np.eye(r) - Hp @ H)))
            if leak > tol.residual_tol * max(1.0, float(np.linalg.norm(L))):
                raise BadVariantPreconditionError(
                    "eliminate-head-pseudo requires null H contained in null L"
                )
            K = Hp @ Lh
        S = _block2(eye_r, -K, np.zeros((p, r), dtype=eye_r.dtype), eye_p)
        D = _block2(
            H,
            np.zeros((r, p), dtype=eye_r.dtype),
            np.zeros((p, r), dtype=eye_r.dtype),
            lam * eye_p - L @ K,
        )

    B = _block2(H, Lh, L, lam * eye_p)
    residual = float(np.linalg.norm(S.conj().T @ B @ S - D)) / max(1.0, float(np.linalg.norm(B)))
    if residual > tol.residual_tol:
        raise NumericFailureError(
            f"congruence residual {residual:.3e} exceeds residual_tol; "
            "the data is too ill-conditioned for this variant"
        )
    return S, D
