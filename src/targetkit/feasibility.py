"""Feasibility predicates with certificates.

:func:`check` answers "does a targeting matrix A with the requested
structure and A @ X = Y exist?" and reports, for every defining
condition, the scalar deviation that was actually compared against its
threshold.  A verdict is Feasible exactly when every condition holds, so
an infeasible report doubles as a certificate naming what failed.
"""

import cmath
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .errors import NumericFailureError, ShapeError, ZeroTargetError, ZeroVectorError
from .linalg import (
    DEFAULT_TOL,
    SvdFactors,
    TolerancePolicy,
    _asymmetry,
    _fro,
    _herm,
    _partition,
    _rank,
    _relative,
    as_matrix,
    is_zero_matrix,
)

__all__ = [
    "PropertyClass",
    "UNCONSTRAINED",
    "INVERTIBLE",
    "HERMITIAN",
    "INVERTIBLE_HERMITIAN",
    "POSITIVE_SEMIDEFINITE",
    "POSITIVE_DEFINITE",
    "UNITARY",
    "REFLECTION",
    "ORTHOGONAL_PROJECTION",
    "COMPLEX_SYMMETRIC",
    "NORMAL_VECTOR",
    "normal_two_point",
    "PROPERTY_NAMES",
    "Condition",
    "FeasibilityReport",
    "check",
]


@dataclass(frozen=True)
class PropertyClass:
    """A structural class of targeting matrices.

    ``normal-two-point`` carries the two admissible eigenvalues; every
    other kind is parameter-free.
    """

    kind: str
    lam: complex | None = None
    mu: complex | None = None

    def __post_init__(self):
        if self.kind not in _CLASSES:
            raise ValueError(f"unknown property kind {self.kind!r}")
        if self.kind == "normal-two-point":
            if self.lam is None or self.mu is None:
                raise ValueError("normal-two-point needs both eigenvalues")
            object.__setattr__(self, "lam", complex(self.lam))
            object.__setattr__(self, "mu", complex(self.mu))
            if not (cmath.isfinite(self.lam) and cmath.isfinite(self.mu)):
                raise ValueError("the two admissible eigenvalues must be finite")
            if self.lam == self.mu:
                raise ValueError("the two admissible eigenvalues must be distinct")
        elif self.lam is not None or self.mu is not None:
            raise ValueError(f"{self.kind!r} takes no eigenvalue parameters")

    def label(self) -> str:
        if self.kind == "normal-two-point":
            return f"normal-two-point(lam={self.lam}, mu={self.mu})"
        return self.kind


@dataclass(frozen=True)
class Condition:
    """One named feasibility condition: satisfied iff deviation <= threshold.

    Built as ``Condition(name, deviation, threshold)``; ``satisfied`` is
    derived, never passed, so a NaN deviation always fails.
    """

    name: str
    satisfied: bool = field(init=False)
    deviation: float
    threshold: float

    def __post_init__(self):
        # numpy scalars sneak in from norm/eig calls; pin the plain types
        # here so reports serialize identically everywhere
        object.__setattr__(self, "deviation", float(self.deviation))
        object.__setattr__(self, "threshold", float(self.threshold))
        object.__setattr__(self, "satisfied", self.deviation <= self.threshold)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "satisfied": self.satisfied,
            "deviation": self.deviation,
            "threshold": self.threshold,
        }


@dataclass(frozen=True)
class FeasibilityReport:
    property: PropertyClass
    feasible: bool
    conditions: tuple[Condition, ...]

    def verdict(self) -> str:
        return "feasible" if self.feasible else "infeasible"

    def to_dict(self) -> dict:
        return {
            "property": self.property.label(),
            "verdict": self.verdict(),
            "conditions": [c.to_dict() for c in self.conditions],
        }


def _report(prop: PropertyClass, conditions) -> FeasibilityReport:
    conditions = tuple(conditions)
    return FeasibilityReport(
        property=prop,
        feasible=all(c.satisfied for c in conditions),
        conditions=conditions,
    )


# An X that one Cholesky certifies of full column rank (_Pair.full_rank) is
# framed by one Householder QR, not by its SVD, from this many rows up.  The
# rule decides the construction frame only: check ranks such an X by its
# certificate at every size.  The QR frame (the QR, inv(R) and the products)
# makes about three numpy.linalg calls where the SVD frame (_partition and
# the products) makes one, each with a fixed cost near 6 us, so below this
# size the SVD is the cheaper frame, and a solve there reads X's rank off it.
# Frame plus B1, one BLAS thread on a 2-vCPU VM:
#   m x n           QR frame   SVD frame
#   8 x 4              33 us       20 us
#   16 x 8 (real)      43 us       35 us
#   24 x 12            43 us       51 us
#   64 x 32          0.15 ms     0.25 ms
#   128 x 64         0.77 ms     1.39 ms
# The certificate alone costs less than the SVD at every size.  One real
# check below 24 rows, X ranked by its SVD -> by the certificate, best of 7:
#   full rank: hermitian 16 x 16 72 -> 28 us, 16 x 8 44 -> 26, 8 x 4
#   34 -> 25; invertible 16 x 16 81 -> 34; pd 16 x 16 94 -> 48;
#   rank deficiency 1, which pays the failed Cholesky before the SVD:
#   hermitian 8 x 4 35 -> 47 us, 16 x 8 44 -> 58; pd 16 x 8 107 -> 122.
_QR_MIN_ROWS = 24


class _Pair:
    """The X and Y of one call, coerced once, with the facts about X it reads.

    The zero test of X, X's rank certificate, X's QR or partitioned SVD
    and the product ``X* Y`` are each computed on first use and then kept,
    so the certificate and the construction share them; a class that
    never reads X's factors never factors X.

    The certificates read X's rank and null basis from ``rank`` and
    ``null_basis``.  X is ``full_rank`` when it is tall or square and one
    Cholesky of its Gram matrix proves that an SVD would rank it n, its
    number of columns.  Then they are n and an empty ``n x 0`` basis, and
    no SVD of X is taken.  Any other X, a numerically zero one included,
    is read off its SVD (``factors``), which every construction but the
    QR frame's reads as well; since the rule proves the SVD's rank, both
    routes give the same rank and basis.  A full-rank X with at least
    ``_QR_MIN_ROWS`` rows is ``qr_framed``: the Hermitian-family solvers
    build in the frame of its QR (``qr``).  A solver's pair (``solve``)
    below ``_QR_MIN_ROWS`` rows, and one whose construction reads X's SVD
    at any size (``svd_frame``), reads the rank off that SVD too, without
    the Cholesky.  Each fact is memoized in an attribute of its own, set
    to None until first read.
    """

    def __init__(self, X, Y, tol: TolerancePolicy | None, svd_frame: bool = False,
                 solve: bool = False):
        X, Y = as_matrix(X, "X"), as_matrix(Y, "Y")
        if X.shape != Y.shape:
            raise ShapeError(f"X and Y must have equal shapes, got {X.shape} and {Y.shape}")
        self.X, self.Y, self.tol = X, Y, tol or DEFAULT_TOL
        m, n = X.shape
        # decided here, so that no certificate is taken
        svd_frame = svd_frame or (solve and m < _QR_MIN_ROWS)
        self._full_rank = False if svd_frame or m < n else None
        self._x_is_zero = self._qr = self._factors = self._xy = None

    @property
    def x_is_zero(self) -> bool:
        if self._x_is_zero is None:
            self._x_is_zero = is_zero_matrix(self.X, self.tol)
        return self._x_is_zero

    @property
    def full_rank(self) -> bool:
        if self._full_rank is None:
            # the certificate declines on a numerically zero X
            self._full_rank = _full_rank_certified(self.X, self.tol)
        return self._full_rank

    @property
    def qr_framed(self) -> bool:
        return self.X.shape[0] >= _QR_MIN_ROWS and self.full_rank

    @property
    def rank(self) -> int:
        return self.X.shape[1] if self.full_rank else self.factors.rank

    @property
    def null_basis(self) -> np.ndarray:
        return np.empty((self.X.shape[1], 0), self.X.dtype) if self.full_rank else self.factors.W2

    @property
    def qr(self) -> tuple[np.ndarray, np.ndarray]:
        # read only where qr_framed holds.  With m - n >= n, the reduced
        # X = Q1 R1, Q1 m x n, from which the Hermitian family builds A
        # without the m x m Q; otherwise X = Q R with Q unitary m x m
        if self._qr is None:
            m, n = self.X.shape
            self._qr = np.linalg.qr(self.X, mode="reduced" if m - n >= n else "complete")
        return self._qr

    @property
    def factors(self) -> SvdFactors:
        if self._factors is None:
            self._factors = _partition(self.X, self.tol)
        return self._factors

    @property
    def xy(self) -> np.ndarray:
        if self._xy is None:
            self._xy = self.X.conj().T @ self.Y
        return self._xy


def _null_inclusion(basis, pair: _Pair, name: str = "null-space-inclusion") -> Condition:
    # the span of the orthonormal columns of basis contained in null Y,
    # measured as the relative mass of Y on them
    Y, tol = pair.Y, pair.tol
    norm_y = _fro(Y)
    if norm_y == 0.0 or basis.shape[1] == 0:
        dev = 0.0
    else:
        dev = _fro(Y @ basis) / norm_y
    return Condition(name, dev, tol.residual_tol)


_EPS = float(np.finfo(float).eps)
# the root of the smallest subnormal, 2**-537: a Frobenius norm of an m x m
# matrix squares m^2 entries, each square loses at most half the smallest
# subnormal to underflow, so the norm reads at most m * 2**-537 low
_ROOT_SUBNORMAL = math.sqrt(float(np.finfo(float).smallest_subnormal))
# |A|_F inside this window keeps the Gram matrix of A finite, and keeps the
# underflow of its products, at most 2**-1075 each, far below eps |A|_F^2
_GRAM_WINDOW = (2.0**-480, 2.0**480)


def _routine_error(m: int, n: int) -> float:
    # a, the error of a measured routine per unit of |M|_F: eigvalsh and the
    # SVD compute each eigenvalue or singular value of an m x n M within
    # a |M|_F, a small multiple of LAPACK's eps |M|_2
    return 8 * max(m, n) * _EPS


def _nonsingular_by_weyl(w, skew: float, norm: float, tol: TolerancePolicy) -> bool:
    """Whether ``_partition`` would keep every singular value of a square M.

    ``w`` holds the eigenvalues of ``herm M``, ``skew`` is ``|M - M*|_F``
    and ``norm`` is ``|M|_F``.  With ``e = skew / 2 >= |M - herm M|_2``,
    Weyl's inequality for singular values (Horn & Johnson, *Matrix
    Analysis*, 7.3) puts each ``sigma_i(M)`` within ``e`` of the i-th
    largest ``|w|``.  The SVD keeps every value above ``c = rank_rel_cutoff
    * m`` times the largest, so the answer is yes when ``min |w| - e``
    still exceeds c times ``max |w| + e`` after both are widened further
    by ``a |M|_F`` (``_routine_error``), which covers the rounding of
    ``eigvalsh``, of the SVD and of this comparison, and by ``m 2**-537``,
    which covers the underflow of the squares in the two norms.  A
    numerically zero M is rank 0 there, and NaN or infinite input answers
    no.
    """
    w = np.abs(w)
    m = len(w)
    lo, hi = float(w.min()), float(w.max())
    slack = skew / 2 + _routine_error(m, m) * norm + m * _ROOT_SUBNORMAL
    return norm > tol.zero_matrix_tol and lo - slack > tol.rank_rel_cutoff * m * (hi + slack)


def _cholesky_bound(A, ratio: float, tol: TolerancePolicy, gram: bool = False,
                    norm: float | None = None) -> float | None:
    """A lower bound above ``ratio`` on the min/max ratio that a measured
    routine computes of A, certified by one Cholesky of ``M - t I``, or None.

    With ``gram=False`` A is Hermitian (callers pass ``herm A``), ``M = A``
    and the ratio is ``w_min / w_max`` of the eigenvalues w that
    ``eigvalsh`` or ``eigh`` computes.  With ``gram=True`` A is m x n, M is
    its k x k Gram matrix, ``k = min(m, n)``, and the ratio is ``s_k /
    s_1`` of the singular values s that the SVD computes.  ``norm`` is the
    computed ``|A|_F`` where the caller holds it.

    Let F be the computed ``|A|_F``, ``p = max(m, n)`` and ``u = eps / 2``.
    Each error term, once:
    - the norm: ``N = F (1 + m n eps)`` bounds the exact ``|A|_F``.  A sum
      of m n squares rounds by at most ``gamma_{mn}``, and the underflow of
      the squares costs at most ``sqrt(m n) 2**-537``, far below ``eps N``
      inside ``_GRAM_WINDOW``;
    - the measured routine: it computes each eigenvalue or singular value
      within ``a N``, ``a = 8 p eps`` (``_routine_error``), so its
      ``w_max`` or ``s_1`` is at most ``U = N (1 + a)``;
    - Cholesky's backward error (Higham, *Accuracy and Stability of
      Numerical Algorithms*, Thm 10.3: ``|dM| <= gamma_{k+1} |R*||R|``).
      Its norm is at most ``gamma_{k+1} |R|_F^2``, the trace of the
      factored matrix up to second order, which is at most ``sqrt(m) N``
      for A and ``N^2`` for the Gram matrix;
    - the rounding of the shift, ``u (|M|_2 + t)``, where t is at most N
      or ``N^2`` once the first pivot is positive;
    - for Gram only, the rounding of the product, at most ``sqrt 2
      gamma_{p+2} N^2`` (Higham, 3.5-3.6; LAPACK reads one triangle).

    If Cholesky factors the computed ``M - t I``, then ``lambda_min(M) >= t
    - e``, where e sums the last three terms.
    - For A, ``e <= ((m + 4) sqrt(m) + 1) eps N``, the first term carrying
      a factor two over ``gamma_{m+1}`` for second-order terms.  With ``mu
      = a + e / N`` and ``t = U (ratio + 2 mu)``, the computed ``w_min >= t
      - e - a N >= U (ratio + mu)``, so ``w_min / w_max >= ratio + mu``.
      The bound is ``ratio + mu / 2``.
    - For the Gram matrix, ``e <= (m + n + 4) eps N^2``.  With ``tau = U
      (ratio + 2 a)`` and ``t = tau^2 + 2 e``, the factor two covering
      second-order terms and the rounding of t, ``sigma_k >= tau``.  So the
      computed ``s_k >= tau - a N >= U (ratio + a)`` and ``s_k / s_1 >=
      ratio + a``.  The bound is ``ratio + a / 2``.  The product squares
      A's condition number, so this reaches down to a ratio of about
      ``sqrt(2 (m + n) eps)``.

    The other half of mu or a covers the rounding of t or tau and of the
    sum.  So a measure whose deviation is minus the ratio reads at most
    minus the bound, which is below ``-ratio``.  A ratio near 1 puts t
    above every diagonal entry of M, and Cholesky fails.  The rule declines
    (None), and the caller takes its measured fallback, when F is NaN,
    infinite, numerically zero or outside ``_GRAM_WINDOW`` (M is then never
    formed, so nothing overflows), and when Cholesky fails.
    """
    m, n = A.shape
    F = _fro(A) if norm is None else norm
    if not (F > tol.zero_matrix_tol and _GRAM_WINDOW[0] < F < _GRAM_WINDOW[1]):
        return None
    N = F * (1 + m * n * _EPS)
    a = _routine_error(m, n)
    if gram:
        tau = N * (1 + a) * (ratio + 2 * a)
        t = tau * tau + 2 * (m + n + 4) * _EPS * N * N
        M = A.conj().T @ A if m >= n else A @ A.conj().T
        bound = ratio + a / 2
    else:
        mu = a + ((m + 4) * math.sqrt(m) + 1) * _EPS
        t = N * (1 + a) * (ratio + 2 * mu)
        M = A.copy()
        bound = ratio + mu / 2
    M.ravel()[:: M.shape[0] + 1] -= t
    try:
        np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        return None
    return bound


def _full_rank_certified(Y, tol: TolerancePolicy) -> bool:
    # whether _rank(Y) is min(m, n): the SVD keeps the singular values above
    # rank_rel_cutoff max(m, n) times the largest
    return _cholesky_bound(Y, tol.rank_rel_cutoff * max(Y.shape), tol, gram=True) is not None


def _rank_equality(pair: _Pair) -> Condition:
    # an X of full rank min(m, n) leaves one rank for Y, which one Cholesky
    # of its Gram matrix can certify; otherwise, or when that declines, an
    # SVD of Y ranks it
    rank = pair.rank
    if rank == min(pair.Y.shape) and _full_rank_certified(pair.Y, pair.tol):
        rank_y = rank
    else:
        rank_y = _rank(pair.Y, pair.tol)
    return Condition("rank-equality", abs(rank - rank_y), 0.0)


def _adjoint_symmetry(M, tol: TolerancePolicy, name: str, transpose: bool = False) -> Condition:
    return Condition(name, _asymmetry(M, transpose), tol.sym_tol)


def _spectrum(M, name: str) -> np.ndarray:
    # the eigenvalues of herm M, ascending.  eigvalsh reads a NaN as zero,
    # so a NaN raises; an inf gives NaN eigenvalues
    Mh = _herm(M)
    if np.isnan(Mh).any():
        raise NumericFailureError(f"the {name} test met a NaN entry")
    return np.linalg.eigvalsh(Mh)


def _semidefinite(M, tol: TolerancePolicy, name: str, definite: bool = False) -> Condition:
    return _definiteness(_spectrum(M, name), tol, name, definite)


def _definiteness(w, tol: TolerancePolicy, name: str, definite: bool = False) -> Condition:
    # deviation is -lambda_min over the spectral norm, the largest |eigenvalue|;
    # "PSD" means dev <= psd_tol, "PD" dev <= -psd_tol.  NaN eigenvalues give
    # a NaN deviation, which fails
    scale = float(max(-w[0], w[-1]))
    dev = -float(w[0]) / scale if scale != 0.0 else 0.0
    return Condition(name, dev, -tol.psd_tol if definite else tol.psd_tol)


def _matrix_equation(lhs, rhs, tol: TolerancePolicy, name: str) -> Condition:
    return Condition(name, _relative(_fro(lhs - rhs), _fro(lhs)), tol.residual_tol)


def _near_multiple(Y, scalar, X, tol: TolerancePolicy) -> bool:
    return _relative(_fro(Y - scalar * X), _fro(Y)) <= tol.residual_tol


def _conditions_unconstrained(pair, prop):
    return (_null_inclusion(pair.null_basis, pair),)


def _conditions_invertible(pair, prop):
    return (_rank_equality(pair), _null_inclusion(pair.null_basis, pair))


def _conditions_hermitian(pair, prop):
    return (
        _null_inclusion(pair.null_basis, pair),
        _adjoint_symmetry(pair.xy, pair.tol, "hermitian-product"),
    )


def _conditions_invertible_hermitian(pair, prop):
    return (_rank_equality(pair),) + _conditions_hermitian(pair, prop)


def _conditions_psd(pair, prop):
    M, tol = pair.xy, pair.tol
    # the two norms of the hermitian test and the eigenvalues of the psd
    # test also bound the singular values of M
    skew, norm = _fro(M - M.conj().T), _fro(M)
    w = _spectrum(M, "psd-product")
    # null Y ⊆ null(X*Y) always holds, so equality is the reverse inclusion,
    # on the null basis of M's SVD; an M that the bound certifies
    # nonsingular has an empty one, so the SVD is skipped
    basis = M[:, :0] if _nonsingular_by_weyl(w, skew, norm, tol) else _partition(M, tol).W2
    return (
        Condition("hermitian-product", _relative(skew, norm), tol.sym_tol),
        _definiteness(w, tol, "psd-product"),
        _null_inclusion(basis, pair, "product-null-equality"),
    )


def _conditions_pd(pair, prop):
    if pair.rank == pair.X.shape[1]:
        # full column rank: positive definiteness of X*Y is the whole story
        return (
            _adjoint_symmetry(pair.xy, pair.tol, "hermitian-product"),
            _semidefinite(pair.xy, pair.tol, "pd-product", definite=True),
        )
    return _conditions_psd(pair, prop) + (_rank_equality(pair),)


def _conditions_unitary(pair, prop):
    X, Y = pair.X, pair.Y
    return (_matrix_equation(X.conj().T @ X, Y.conj().T @ Y, pair.tol, "gram-equality"),)


def _conditions_reflection(pair, prop):
    hermitian = _adjoint_symmetry(pair.xy, pair.tol, "hermitian-product")
    return (hermitian,) + _conditions_unitary(pair, prop)


def _conditions_projection(pair, prop):
    X, Y = pair.X, pair.Y
    return (_matrix_equation(Y.conj().T @ Y, Y.conj().T @ X, pair.tol, "target-gram-equality"),)


def _conditions_complex_symmetric(pair, prop):
    return (
        _null_inclusion(pair.null_basis, pair),
        _adjoint_symmetry(pair.X.T @ pair.Y, pair.tol, "symmetric-product", transpose=True),
    )


def _conditions_normal_two_point(pair, prop):
    X, Y, tol = pair.X, pair.Y, pair.tol
    lam, mu = prop.lam, prop.mu
    E = Y - mu * X
    F = Y - lam * X
    # measured against bounds on |E| and |F| from the pair, not against
    # |E| |F|: when col X lies in one eigenspace, E or F is rounding noise
    norm_x, norm_y = _fro(X), _fro(Y)
    scale = (abs(lam) * norm_x + norm_y) * (abs(mu) * norm_x + norm_y)
    dev = _relative(_fro(F.conj().T @ E), scale)
    orth = Condition("two-point-orthogonality", dev, tol.residual_tol)

    m, n = X.shape
    violated = False
    if m == n and (_near_multiple(Y, lam, X, tol) or _near_multiple(Y, mu, X, tol)):
        violated = pair.rank == m
    proviso = Condition("rank-proviso", 1.0 if violated else 0.0, 0.0)
    return (orth, proviso)


def _conditions_normal_vector(pair, prop):
    if pair.X.shape[1] != 1:
        raise ShapeError("normal-vector targeting is defined for single-column data")
    if pair.x_is_zero:
        raise ZeroVectorError("the source vector is zero")
    if is_zero_matrix(pair.Y, pair.tol):
        raise ZeroVectorError("the target vector is zero")
    return (Condition("nonzero-vectors", 0.0, pair.tol.zero_matrix_tol),)


# Audit measures: the deviation of a square A from one defining property,
# from A alone.  Each takes (A, prop, tol); only the spectrum uses prop.


def _audit_hermitian(A, prop, tol):
    return _adjoint_symmetry(A, tol, "hermitian")


def _audit_symmetric(A, prop, tol):
    return _adjoint_symmetry(A, tol, "symmetric", transpose=True)


def _audit_psd(A, prop, tol):
    return _semidefinite(A, tol, "positive-semidefinite")


def _audit_pd(A, prop, tol):
    # a definite A is certified by one Cholesky of herm A (_cholesky_bound);
    # any other A, or one the certificate declines, takes the eigvalsh
    # measure, so the verdict is always the eigvalsh measure's
    bound = _cholesky_bound(_herm(A), tol.psd_tol, tol)
    if bound is None:
        return _semidefinite(A, tol, "positive-definite", definite=True)
    return Condition("positive-definite", -bound, -tol.psd_tol)


def _audit_invertible(A, prop, tol):
    s = np.linalg.svd(A, compute_uv=False)
    smax = float(s[0])
    # negative threshold encodes the strict inequality sigma_min > cutoff
    threshold = -tol.rank_rel_cutoff * A.shape[0]
    dev = -float(s[-1]) / smax if smax > 0.0 else 0.0
    return Condition("invertible", dev, threshold)


def _audit_invertible_hermitian(A, prop, tol):
    # the invertible measure of a Hermitian class: an A that passes the
    # hermitian measure is certified by one Cholesky of A* A
    # (_cholesky_bound).  Any other A, or one the certificate declines,
    # takes the SVD measure, so the verdict is always the SVD's
    norm, d = _fro(A), _fro(A - A.conj().T)
    if not (np.isfinite(norm) and _relative(d, norm) <= tol.sym_tol):
        return _audit_invertible(A, prop, tol)
    c = tol.rank_rel_cutoff * A.shape[0]
    bound = _cholesky_bound(A, c, tol, gram=True, norm=norm)
    if bound is None:
        return _audit_invertible(A, prop, tol)
    return Condition("invertible", -bound, -c)


def _audit_unitary(A, prop, tol):
    m = A.shape[0]
    return Condition("unitary", _fro(A.conj().T @ A - np.eye(m)) / np.sqrt(m), tol.sym_tol)


def _audit_involution(A, prop, tol):
    m = A.shape[0]
    return Condition("involution", _fro(A @ A - np.eye(m)) / np.sqrt(m), tol.residual_tol)


def _audit_idempotent(A, prop, tol):
    return Condition("idempotent", _relative(_fro(A @ A - A), _fro(A)), tol.residual_tol)


def _audit_normal(A, prop, tol):
    dev = _relative(_fro(A.conj().T @ A - A @ A.conj().T), _fro(A) ** 2)
    return Condition("normal", dev, tol.residual_tol)


def _audit_two_point_spectrum(A, prop, tol):
    lam, mu = prop.lam, prop.mu
    eigs = np.linalg.eigvals(A)
    dist = np.minimum(np.abs(eigs - lam), np.abs(eigs - mu))
    dev = _relative(float(dist.max()), max(abs(lam), abs(mu)))
    return Condition("spectrum-two-point", dev, tol.residual_tol)


@dataclass(frozen=True)
class _Class:
    """One property class, declared once.

    ``conditions(pair, prop)`` gives the certificate that :func:`check`
    and every solver evaluate on the call's :class:`_Pair`; ``audit``
    lists the measures ``verify_property`` takes of a candidate A, in
    report order; ``solver`` names the class's function in
    :mod:`targetkit.solvers`, which ``solvers.solve`` looks up there when
    called; ``aliases`` are the class's extra names on the command line.
    """

    conditions: Callable
    audit: tuple[Callable, ...]
    solver: str
    aliases: tuple[str, ...] = ()


_CLASSES = {
    "unconstrained": _Class(_conditions_unconstrained, (), "solve_unconstrained"),
    "invertible": _Class(_conditions_invertible, (_audit_invertible,), "solve_invertible"),
    "hermitian": _Class(_conditions_hermitian, (_audit_hermitian,), "solve_hermitian"),
    "invertible-hermitian": _Class(
        _conditions_invertible_hermitian,
        (_audit_hermitian, _audit_invertible_hermitian),
        "solve_invertible_hermitian",
    ),
    "positive-semidefinite": _Class(_conditions_psd, (_audit_hermitian, _audit_psd), "solve_psd", ("psd",)),
    "positive-definite": _Class(_conditions_pd, (_audit_hermitian, _audit_pd), "solve_pd", ("pd",)),
    "unitary": _Class(_conditions_unitary, (_audit_unitary,), "solve_unitary"),
    "reflection": _Class(_conditions_reflection, (_audit_hermitian, _audit_involution), "solve_reflection"),
    "orthogonal-projection": _Class(
        _conditions_projection, (_audit_hermitian, _audit_idempotent), "solve_projection", ("projection",)
    ),
    "complex-symmetric": _Class(
        _conditions_complex_symmetric, (_audit_symmetric,), "solve_complex_symmetric"
    ),
    "normal-two-point": _Class(
        _conditions_normal_two_point, (_audit_normal, _audit_two_point_spectrum), "solve_normal_two_point"
    ),
    "normal-vector": _Class(_conditions_normal_vector, (_audit_normal,), "solve_normal_vector"),
}

# every name a class answers to, canonical or alias, with the kind it names
PROPERTY_NAMES = MappingProxyType(
    {name: kind for kind, row in _CLASSES.items() for name in (kind, *row.aliases)}
)

UNCONSTRAINED = PropertyClass("unconstrained")
INVERTIBLE = PropertyClass("invertible")
HERMITIAN = PropertyClass("hermitian")
INVERTIBLE_HERMITIAN = PropertyClass("invertible-hermitian")
POSITIVE_SEMIDEFINITE = PropertyClass("positive-semidefinite")
POSITIVE_DEFINITE = PropertyClass("positive-definite")
UNITARY = PropertyClass("unitary")
REFLECTION = PropertyClass("reflection")
ORTHOGONAL_PROJECTION = PropertyClass("orthogonal-projection")
COMPLEX_SYMMETRIC = PropertyClass("complex-symmetric")
NORMAL_VECTOR = PropertyClass("normal-vector")


def normal_two_point(lam, mu) -> PropertyClass:
    """Normal targeting matrices whose spectrum lies in ``{lam, mu}``."""
    return PropertyClass("normal-two-point", lam=complex(lam), mu=complex(mu))


def check(prop: PropertyClass, X, Y, tol: TolerancePolicy | None = None) -> FeasibilityReport:
    """Decide feasibility of the targeting problem for one property class.

    The conditions evaluated per class (together they are necessary and
    sufficient for a targeting matrix of that class to exist):

    - unconstrained: null X ⊆ null Y
    - invertible: rank X = rank Y plus the null-space inclusion
    - hermitian: inclusion plus X*Y Hermitian
    - invertible-hermitian: null-space equality plus X*Y Hermitian
    - positive-semidefinite: X*Y PSD and null Y = null(X*Y)
    - positive-definite: the PSD conditions plus rank Y = rank X, or for
      full-column-rank X simply X*Y positive definite
    - unitary: X*X = Y*Y
    - reflection: X*Y Hermitian and X*X = Y*Y
    - orthogonal-projection: Y*X = Y*Y (with Y nonzero)
    - complex-symmetric: inclusion plus (X^T)Y symmetric
    - normal-two-point: (Y - lam X)*(Y - mu X) = 0, relative to
      (|lam||X| + |Y|)(|mu||X| + |Y|), plus a rank proviso barring square
      full-rank X with Y a multiple of X (the targeting matrix is then a
      forced scalar times the identity)
    - normal-vector: single-column data, both vectors nonzero

    A numerically zero X is feasible exactly when Y is zero too (the
    identity is a witness); orthogonal-projection instead rejects zero Y
    and normal-vector rejects zero vectors outright.
    """
    return _check(prop, _Pair(X, Y, tol))


def _check(prop: PropertyClass, pair: _Pair) -> FeasibilityReport:
    # the certificate on a prepared pair, shared by check and the solvers
    kind, tol = prop.kind, pair.tol
    if kind == "orthogonal-projection" and is_zero_matrix(pair.Y, tol):
        raise ZeroTargetError("orthogonal-projection targeting requires a nonzero target")

    if kind not in ("orthogonal-projection", "normal-vector") and pair.x_is_zero:
        return _report(prop, (Condition("zero-source-zero-target", _fro(pair.Y), tol.zero_matrix_tol),))

    return _report(prop, _CLASSES[kind].conditions(pair, prop))
