"""Feasibility predicates with certificates.

:func:`check` answers "does a targeting matrix A with the requested
structure and A @ X = Y exist?" and reports, for every defining
condition, the scalar deviation that was actually compared against its
threshold.  A verdict is Feasible exactly when every condition holds, so
an infeasible report doubles as a certificate naming what failed.
"""

import cmath
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

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


class _Pair:
    """The X and Y of one call, coerced once, with the facts about X it reads.

    The zero test of X, X's partitioned SVD and the product ``X* Y`` are
    each computed on first use and then kept, so the certificate and the
    construction share them; a class that never reads X's factors never
    factors X.
    """

    def __init__(self, X, Y, tol: TolerancePolicy | None):
        X, Y = as_matrix(X, "X"), as_matrix(Y, "Y")
        if X.shape != Y.shape:
            raise ShapeError(f"X and Y must have equal shapes, got {X.shape} and {Y.shape}")
        self.X, self.Y, self.tol = X, Y, tol or DEFAULT_TOL

    @cached_property
    def x_is_zero(self) -> bool:
        return is_zero_matrix(self.X, self.tol)

    @cached_property
    def factors(self) -> SvdFactors:
        return _partition(self.X, self.tol)

    @cached_property
    def xy(self) -> np.ndarray:
        return self.X.conj().T @ self.Y


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


def _rank_equality(pair: _Pair) -> Condition:
    return Condition("rank-equality", abs(pair.factors.rank - _rank(pair.Y, pair.tol)), 0.0)


def _adjoint_symmetry(M, tol: TolerancePolicy, name: str, transpose: bool = False) -> Condition:
    return Condition(name, _asymmetry(M, transpose), tol.sym_tol)


def _semidefinite(M, tol: TolerancePolicy, name: str, definite: bool = False) -> Condition:
    # deviation is -lambda_min over the spectral norm, the largest |eigenvalue|;
    # "PSD" means dev <= psd_tol, "PD" dev <= -psd_tol.  eigvalsh reads a NaN as
    # zero, so a NaN raises; an inf gives NaN eigenvalues and deviation, which fails
    Mh = _herm(M)
    if np.isnan(Mh).any():
        raise NumericFailureError(f"the {name} test met a NaN entry")
    w = np.linalg.eigvalsh(Mh)
    scale = float(max(-w[0], w[-1]))
    dev = -float(w[0]) / scale if scale != 0.0 else 0.0
    return Condition(name, dev, -tol.psd_tol if definite else tol.psd_tol)


def _matrix_equation(lhs, rhs, tol: TolerancePolicy, name: str) -> Condition:
    return Condition(name, _relative(_fro(lhs - rhs), _fro(lhs)), tol.residual_tol)


def _near_multiple(Y, scalar, X, tol: TolerancePolicy) -> bool:
    return _relative(_fro(Y - scalar * X), _fro(Y)) <= tol.residual_tol


def _conditions_unconstrained(pair, prop):
    return (_null_inclusion(pair.factors.W2, pair),)


def _conditions_invertible(pair, prop):
    return (_rank_equality(pair), _null_inclusion(pair.factors.W2, pair))


def _conditions_hermitian(pair, prop):
    return (
        _null_inclusion(pair.factors.W2, pair),
        _adjoint_symmetry(pair.xy, pair.tol, "hermitian-product"),
    )


def _conditions_invertible_hermitian(pair, prop):
    return (_rank_equality(pair),) + _conditions_hermitian(pair, prop)


def _conditions_psd(pair, prop):
    M = pair.xy
    return (
        _adjoint_symmetry(M, pair.tol, "hermitian-product"),
        _semidefinite(M, pair.tol, "psd-product"),
        # null Y ⊆ null(X*Y) always holds, so equality is the reverse inclusion
        _null_inclusion(_partition(M, pair.tol).W2, pair, "product-null-equality"),
    )


def _conditions_pd(pair, prop):
    if pair.factors.rank == pair.X.shape[1]:
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
        _null_inclusion(pair.factors.W2, pair),
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
        violated = pair.factors.rank == m
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
    return _semidefinite(A, tol, "positive-definite", definite=True)


def _audit_invertible(A, prop, tol):
    s = np.linalg.svd(A, compute_uv=False)
    smax = float(s[0])
    # negative threshold encodes the strict inequality sigma_min > cutoff
    threshold = -tol.rank_rel_cutoff * A.shape[0]
    dev = -float(s[-1]) / smax if smax > 0.0 else 0.0
    return Condition("invertible", dev, threshold)


def _audit_invertible_weyl(A, prop, tol):
    # the invertible measure of a Hermitian class, from one eigvalsh.  With
    # e = |A - A*|_F / 2 >= |A - herm A|_2, Weyl's inequality puts each
    # sigma_i(A) within e of the i-th largest |eigenvalue| of herm A, so
    # (min |w| - e) / (max |w| + e) bounds sigma_min / sigma_max from below.
    # An A that fails the hermitian measure, or whose bound, less the
    # rounding of eigvalsh and of the SVD, does not clear the threshold,
    # takes the SVD measure, so the verdict is always the SVD's
    norm, d = _fro(A), _fro(A - A.conj().T)
    if not (np.isfinite(norm) and _relative(d, norm) <= tol.sym_tol):
        return _audit_invertible(A, prop, tol)
    m = A.shape[0]
    w = np.abs(np.linalg.eigvalsh(_herm(A)))
    lo, hi, e = float(w.min()), float(w.max()), d / 2
    slack = e + 8 * m * np.finfo(float).eps * norm
    threshold = -tol.rank_rel_cutoff * m
    if lo - slack <= -threshold * (hi + slack):
        return _audit_invertible(A, prop, tol)
    return Condition("invertible", -(lo - e) / (hi + e), threshold)


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
        (_audit_hermitian, _audit_invertible_weyl),
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
