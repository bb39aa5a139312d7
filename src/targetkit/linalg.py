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

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadVariantPreconditionError,
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
    "schur_congruence",
    "is_zero_matrix",
]


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a fresh 2-D ``float64`` or ``complex128`` array.

    1-D input is treated as a single column.  Every numeric dtype is
    accepted: signed and unsigned integers, timedelta64 and every float
    width become ``float64``; every complex width becomes ``complex128``.
    bool, object, string and datetime64 arrays are refused with
    ``ValueError``, as are NaN and infinite entries.  Complex input whose
    imaginary part is exactly zero (``-0.0`` included) is demoted to a
    C-contiguous ``float64`` array; that is the tag that keeps real
    problems on the real arithmetic track.  The result is always a copy:
    it never shares memory with ``a``.
    """
    arr = np.asarray(a)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be 2-dimensional, got ndim={arr.ndim}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ShapeError(f"{name} must have positive dimensions, got {arr.shape}")
    # the kinds of np.number: integer, unsigned, timedelta, float, complex
    kind = arr.dtype.kind
    if kind == "c":
        arr = arr.astype(np.complex128)
        if not arr.imag.any():  # NaN is nonzero, so a NaN part stays and is refused below
            arr = arr.real.copy()
    elif kind in "iumf":
        arr = arr.astype(np.float64)
    else:
        raise ValueError(f"{name} must be numeric, got dtype {arr.dtype}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class TolerancePolicy:
    """Every numeric threshold used by the package, in one auditable record.

    ``rank_rel_cutoff`` scales with the largest singular value and
    ``psd_tol`` with the spectral norm of the matrix it guards, so both are
    relative at every scale.  Most deviations that ``sym_tol`` and
    ``residual_tol`` bound are normalized by :func:`_relative`, which
    divides by ``max(1, norm)`` of their operands: relative above unit
    norm, absolute below it.  That one body is where a scale-safe
    normalization (ROADMAP item 1) replaces the floor for every
    certificate, audit and hypothesis check at once.
    ``zero_matrix_tol`` is absolute by necessity (a zero test has no
    scale); its default makes "zero" mean exactly zero up to underflow.
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


def _fro(a: np.ndarray) -> float:
    # the Frobenius norm of a float64 or complex128 array, the same float
    # that float(np.linalg.norm(a)) returns: the sum of squares is formed
    # with numpy's own operations (ravel in memory order, one dot per real
    # part), without its argument handling.  Every Frobenius norm in the
    # package goes through here, so ROADMAP item 1 replaces this body in
    # place with a norm that scales before squaring
    x = a.ravel(order="K")
    if x.dtype.kind == "c":
        re, im = x.real, x.imag
        return math.sqrt(re.dot(re) + im.dot(im))
    return math.sqrt(x.dot(x))


def _relative(gap: float, scale: float) -> float:
    # a deviation measured against the size of its operands: gap / scale
    # above unit scale, the absolute gap below it.  Every relative
    # deviation in the library takes its floor here
    return gap / max(1.0, scale)


def _asymmetry(M: np.ndarray, transpose: bool = False) -> float:
    # the relative distance of M from its adjoint M*, or from its
    # transpose M^T with transpose=True
    return _relative(_fro(M - (M.T if transpose else M.conj().T)), _fro(M))


def _herm(M: np.ndarray) -> np.ndarray:
    return (M + M.conj().T) / 2


def is_zero_matrix(a: np.ndarray, tol: TolerancePolicy | None = None) -> bool:
    """Whether the Frobenius norm of the float64 or complex128 array ``a``
    is at most ``zero_matrix_tol``."""
    tol = tol or DEFAULT_TOL
    return _fro(a) <= tol.zero_matrix_tol


@dataclass(frozen=True)
class SvdFactors:
    """Full SVD ``X = V @ Sigma @ W*`` partitioned at the numerical rank.

    ``sigma`` holds only the ``rank`` singular values strictly above the
    cutoff, in descending order.  ``V1``/``W1`` carry the range and co-range
    bases, ``V2``/``W2`` their orthogonal complements; the columns of ``W2``
    span the numerical null space.  The rank, null space, pseudoinverse
    and range projector of the matrix are all read off these factors.
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

    def pinv(self) -> np.ndarray:
        """The pseudoinverse ``W1 Sigma_r^{-1} V1*``; zero at rank 0."""
        return (self.W1 / self.sigma) @ self.V1.conj().T

    def projector(self) -> np.ndarray:
        """The orthogonal projector ``V1 V1*`` onto the column space."""
        return self.V1 @ self.V1.conj().T


def _partition(A: np.ndarray, tol: TolerancePolicy, scale: float = 0.0) -> SvdFactors:
    # the full SVD of an already coerced A, partitioned at the rank cutoff
    # of max(sigma_1(A), scale), so a caller can rank A against the data it
    # came from; a numerically zero A is rank 0 with identities as singular
    # vectors, so its null space is everything and its pseudoinverse and
    # range projector vanish
    if is_zero_matrix(A, tol):
        (m, n), dtype = A.shape, A.dtype
        return SvdFactors(V=np.eye(m, dtype=dtype), W=np.eye(n, dtype=dtype), sigma=np.zeros(0), rank=0)
    V, s, Wh = np.linalg.svd(A, full_matrices=True)
    r = int(np.count_nonzero(s > tol.rank_cutoff(max(float(s[0]), scale), *A.shape)))
    return SvdFactors(V=V, W=Wh.conj().T, sigma=s[:r].copy(), rank=r)


def _rank(A: np.ndarray, tol: TolerancePolicy) -> int:
    # numerical_rank of an already coerced A, from the singular values alone
    if is_zero_matrix(A, tol):
        return 0
    s = np.linalg.svd(A, compute_uv=False)
    return int(np.count_nonzero(s > tol.rank_cutoff(float(s[0]), *A.shape)))


def _nonzero_partition(A: np.ndarray, tol: TolerancePolicy) -> SvdFactors:
    # svd_partitioned of an already coerced A: a numerically zero A has no
    # rank-revealing partition and is refused
    if is_zero_matrix(A, tol):
        raise ZeroMatrixError("input matrix is numerically zero")
    return _partition(A, tol)


def svd_partitioned(X, tol: TolerancePolicy | None = None) -> SvdFactors:
    """Full SVD of a nonzero matrix, partitioned at the numerical rank.

    The rank counts singular values strictly above
    ``rank_rel_cutoff * sigma_max * max(m, n)``.  Raises
    :class:`ZeroMatrixError` for a numerically zero input (for which no
    rank-revealing partition exists).
    """
    return _nonzero_partition(as_matrix(X, "X"), tol or DEFAULT_TOL)


def numerical_rank(X, tol: TolerancePolicy | None = None) -> int:
    """Rank under the shared relative cutoff; 0 for the zero matrix."""
    return _rank(as_matrix(X, "X"), tol or DEFAULT_TOL)


def _nearest_orthonormal(B: np.ndarray) -> np.ndarray:
    # the closest matrix with orthonormal columns in the Frobenius metric,
    # the polar factor u @ vh of the thin SVD: it polishes an almost
    # orthonormal block whose Gram deviation ill conditioning upstream
    # amplified, and returns orthonormal input unchanged up to rounding
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


def _complete_orthonormal(B1: np.ndarray) -> np.ndarray:
    # complete m x r B1 with orthonormal columns to a unitary m x m whose
    # first r columns are B1 itself; the new columns come from a
    # Householder QR of B1, with the phase convention of _fix_column_phases
    # making the completion deterministic.  How far B1 is from orthonormal
    # is not measured here: the audit of the returned matrix measures it
    m, r = B1.shape
    if r == m:
        return B1.copy()
    Q, _ = np.linalg.qr(B1, mode="complete")
    B2 = _fix_column_phases(Q[:, r:])
    return np.hstack([B1, B2])


_SCHUR_VARIANTS = ("eliminate-corner", "eliminate-head", "eliminate-head-pseudo")


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
    ``sym_tol``; ``lam`` must be real and finite.  The variants and their
    extra hypotheses:

    - ``eliminate-corner`` (``lam != 0``):
      ``D = (H - L* L / lam) ⊕ lam*I``
    - ``eliminate-head`` (``H`` invertible):
      ``D = H ⊕ (lam*I - L H^{-1} L*)``
    - ``eliminate-head-pseudo`` (``null H ⊆ null L``):
      ``D = H ⊕ (lam*I - L H† L*)``

    The identity is re-checked after assembly; a relative residual above
    ``residual_tol``, or a NaN one, raises :class:`NumericFailureError`
    rather than returning a silently inaccurate factorization.
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
    if not np.isfinite(lam):
        raise BadVariantPreconditionError("the bordering scalar must be finite")
    p = L.shape[0]

    herm_dev = _asymmetry(H)
    if herm_dev > tol.sym_tol:
        raise BadVariantPreconditionError(
            f"H must be Hermitian within sym_tol (relative deviation {herm_dev:.3e})"
        )

    eye_r = np.eye(r, dtype=np.result_type(H, L))
    eye_p = np.eye(p, dtype=np.result_type(H, L))
    Lh = L.conj().T

    if variant == "eliminate-corner":
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
        if variant == "eliminate-head":
            if _rank(H, tol) < r:
                raise BadVariantPreconditionError("eliminate-head requires H invertible")
            K = np.linalg.solve(H, Lh)
        else:
            Hp = _partition(H, tol).pinv()
            if _relative(_fro(L @ (np.eye(r) - Hp @ H)), _fro(L)) > tol.residual_tol:
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
    residual = _relative(_fro(S.conj().T @ B @ S - D), _fro(B))
    if not residual <= tol.residual_tol:  # a NaN residual fails too
        raise NumericFailureError(
            f"congruence residual {residual:.3e} exceeds residual_tol; "
            "the data is too ill-conditioned for this variant"
        )
    return S, D
