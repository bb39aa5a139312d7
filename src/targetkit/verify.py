"""Independent verification, instance generation, and a brute-force oracle.

Three jobs, deliberately decoupled from the constructive code paths:

* :func:`verify_property` and :func:`verify_targeting` re-measure what a
  solver claims, from the returned matrix alone.  A solve audits its A
  through :func:`verify_property` and through the residual core of
  :func:`verify_targeting`, which reads the operands the solve already
  coerced: A once, and X and Y in its pair.
* :func:`generate_instance` draws reproducible problem instances with a
  known witness, so round trips can be tested at scale.
* :func:`oracle_feasible_subspace` decides feasibility by least squares
  over an explicit basis of the admissible matrices.  It shares no code
  with the feasibility conditions or the solvers, which is the point.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BadSpecError, ShapeError, TooLargeError
from .feasibility import _CLASSES, Condition, PropertyClass
from .linalg import DEFAULT_TOL, TolerancePolicy, _fro, _relative, as_matrix

__all__ = [
    "PropertyReport",
    "verify_property",
    "verify_targeting",
    "InstanceSpec",
    "generate_instance",
    "oracle_feasible_subspace",
]


@dataclass(frozen=True)
class PropertyReport:
    """Named deviations of a candidate matrix from a property class."""

    property: PropertyClass
    passed: bool
    conditions: tuple[Condition, ...]

    def to_dict(self) -> dict:
        return {
            "property": self.property.label(),
            "passed": self.passed,
            "conditions": [c.to_dict() for c in self.conditions],
        }


def verify_property(A, prop: PropertyClass, tol: TolerancePolicy | None = None) -> PropertyReport:
    """Measure every deviation that defines membership in ``prop``.

    Works from the matrix alone: no knowledge of how ``A`` was built.
    The measures of each class are its ``audit`` row in the class table of
    :mod:`targetkit.feasibility`.  ``unconstrained`` has nothing to verify
    and always passes.

    Each deviation is either measured or a certified bound.  The
    ``positive-definite`` and the invertible-Hermitian ``invertible``
    conditions first try the package's one Cholesky certificate,
    ``feasibility._cholesky_bound``; when it succeeds, the deviation is
    the bound it proves, which lies between the measured deviation and
    the threshold.  Otherwise they, like every other condition, report
    the measured deviation.  The verdict is always the measured one.
    """
    tol = tol or DEFAULT_TOL
    A = as_matrix(A, "A")
    if A.shape[0] != A.shape[1]:
        raise ShapeError(f"a targeting matrix must be square, got {A.shape}")
    conds = tuple(measure(A, prop, tol) for measure in _CLASSES[prop.kind].audit)
    return PropertyReport(property=prop, passed=all(c.satisfied for c in conds), conditions=conds)


def verify_targeting(A, X, Y) -> float:
    """Relative targeting residual ``|AX - Y|_F / max(1, |Y|_F)``."""
    A = as_matrix(A, "A")
    X = as_matrix(X, "X")
    Y = as_matrix(Y, "Y")
    if A.shape[0] != A.shape[1]:
        raise ShapeError(f"a targeting matrix must be square, got {A.shape}")
    if X.shape != Y.shape or A.shape[1] != X.shape[0]:
        raise ShapeError(
            f"incompatible shapes: A {A.shape}, X {X.shape}, Y {Y.shape}"
        )
    return _targeting_residual(A, X, Y)


def _targeting_residual(A, X, Y) -> float:
    # verify_targeting's residual of coerced operands of fitting shapes; a
    # solve audits the A it coerced against its pair's X and Y through here
    return _relative(_fro(A @ X - Y), _fro(Y))


@dataclass(frozen=True)
class InstanceSpec:
    """Reproducible description of one generated problem instance.

    ``field`` selects the arithmetic track ("real" or "complex");
    ``rank_deficiency`` lowers the rank of the drawn source below
    ``min(m, n)``.  Generated instances keep the tall-or-square shape
    ``n <= m`` that every construction assumes.
    """

    property: PropertyClass
    m: int
    n: int
    seed: int
    field: str = "complex"
    rank_deficiency: int = 0

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise BadSpecError(f"dimensions must be positive, got m={self.m}, n={self.n}")
        if self.n > self.m:
            raise BadSpecError(f"generated instances require n <= m, got m={self.m}, n={self.n}")
        if self.field not in ("real", "complex"):
            raise BadSpecError(f"field must be 'real' or 'complex', got {self.field!r}")
        if not 0 <= self.rank_deficiency < min(self.m, self.n):
            raise BadSpecError(
                f"rank_deficiency must lie in [0, {min(self.m, self.n) - 1}], "
                f"got {self.rank_deficiency}"
            )
        _philox(self.seed)
        kind = self.property.kind
        if kind == "normal-vector" and self.n != 1:
            raise BadSpecError("normal-vector instances require n = 1")
        if kind == "normal-two-point":
            if self.m < 2:
                raise BadSpecError(
                    "normal-two-point instances require m >= 2 (a 1x1 witness "
                    "with both admissible eigenvalues cannot exist)"
                )
            if self.field == "real" and (
                complex(self.property.lam).imag != 0 or complex(self.property.mu).imag != 0
            ):
                raise BadSpecError("real instances need real admissible eigenvalues")


def _philox(seed) -> "np.random.Generator":
    # every seeded draw's generator, counter-based so that its stream is the
    # same on every platform; InstanceSpec builds one only to refuse a seed
    if not 0 <= seed < 2**64:
        raise BadSpecError("seed must fit in 64 unsigned bits")
    return np.random.Generator(np.random.Philox(key=seed))


def _draw_gaussian(rng, shape, field):
    G = rng.standard_normal(shape)
    if field == "complex":
        G = G + 1j * rng.standard_normal(shape)
    return G


def _draw_unitary(rng, m, field):
    Q, R = np.linalg.qr(_draw_gaussian(rng, (m, m), field))
    # normalize the QR phase ambiguity so the draw is the seed's alone
    d = np.diagonal(R).copy()
    d[d == 0] = 1.0
    return Q * (d / np.abs(d))


def _draw_projector(rng, m, field, k):
    if k == 0:
        return np.zeros((m, m), dtype=np.float64 if field == "real" else np.complex128)
    Q1 = _draw_unitary(rng, m, field)[:, :k]
    return Q1 @ Q1.conj().T


def _draw_witness(rng, spec: InstanceSpec) -> np.ndarray:
    m, field, kind = spec.m, spec.field, spec.property.kind
    if kind == "unconstrained":
        return _draw_gaussian(rng, (m, m), field)
    if kind == "invertible":
        u, s, vh = np.linalg.svd(_draw_gaussian(rng, (m, m), field))
        return (u * (s + 1.0)) @ vh
    if kind == "hermitian":
        G = _draw_gaussian(rng, (m, m), field)
        return (G + G.conj().T) / 2
    if kind == "invertible-hermitian":
        G = _draw_gaussian(rng, (m, m), field)
        w, U = np.linalg.eigh((G + G.conj().T) / 2)
        w = np.where(w >= 0, w + 0.5, w - 0.5)
        return (U * w) @ U.conj().T
    if kind == "positive-semidefinite":
        G = _draw_gaussian(rng, (m, m), field)
        return G.conj().T @ G
    if kind == "positive-definite":
        G = _draw_gaussian(rng, (m, m), field)
        return G.conj().T @ G + 0.5 * np.eye(m)
    if kind == "unitary":
        return _draw_unitary(rng, m, field)
    if kind == "reflection":
        k = int(rng.integers(0, m + 1))
        return np.eye(m) - 2.0 * _draw_projector(rng, m, field, k)
    if kind == "orthogonal-projection":
        k = 1 if m == 1 else int(rng.integers(1, m))
        return _draw_projector(rng, m, field, k)
    if kind == "complex-symmetric":
        G = _draw_gaussian(rng, (m, m), field)
        return (G + G.T) / 2
    if kind == "normal-two-point":
        lam, mu = spec.property.lam, spec.property.mu
        if lam.imag == 0 and mu.imag == 0:
            lam, mu = lam.real, mu.real
        p = int(rng.integers(1, m))
        P = _draw_projector(rng, m, field, p)
        return lam * P + mu * (np.eye(m) - P)
    # normal-vector: a scalar multiple of a unitary is normal
    scale = float(np.exp(rng.uniform(-1.0, 1.0)))
    return scale * _draw_unitary(rng, m, field)


def generate_instance(spec: InstanceSpec):
    """Draw ``(X, Y, A_witness)`` with ``Y = A_witness @ X``, reproducibly.

    The witness carries the requested property by construction, so the
    pair is feasible for that class; the source rank follows
    ``min(m, n) - rank_deficiency`` with singular values spread over
    roughly half a decade.  Identical specs give bitwise-identical draws.
    """
    rng = _philox(spec.seed)
    A = _draw_witness(rng, spec)
    k = min(spec.m, spec.n) - spec.rank_deficiency
    Q1 = _draw_unitary(rng, spec.m, spec.field)[:, :k]
    Q2 = _draw_unitary(rng, spec.n, spec.field)[:, :k]
    d = np.exp(rng.uniform(-0.7, 0.7, size=k))
    X = (Q1 * d) @ Q2.conj().T
    return X, A @ X, A


_ORACLE_MAX_DIM = 16

_ORACLE_SUBSPACES = ("any-matrix", "hermitian", "symmetric")


def _oracle_basis(m: int, subspace: str):
    # real-linear basis of the admissible complex matrices
    basis = []
    if subspace == "any-matrix":
        for i in range(m):
            for j in range(m):
                E = np.zeros((m, m), dtype=np.complex128)
                E[i, j] = 1.0
                basis.append(E)
                basis.append(1j * E)
    elif subspace == "hermitian":
        for i in range(m):
            E = np.zeros((m, m), dtype=np.complex128)
            E[i, i] = 1.0
            basis.append(E)
        for i in range(m):
            for j in range(i + 1, m):
                E = np.zeros((m, m), dtype=np.complex128)
                E[i, j] = 1.0
                E[j, i] = 1.0
                basis.append(E)
                K = np.zeros((m, m), dtype=np.complex128)
                K[i, j] = 1j
                K[j, i] = -1j
                basis.append(K)
    else:  # symmetric
        for i in range(m):
            for j in range(i, m):
                E = np.zeros((m, m), dtype=np.complex128)
                E[i, j] = 1.0
                E[j, i] = 1.0
                basis.append(E)
                basis.append(1j * E)
    return basis


def oracle_feasible_subspace(X, Y, subspace: str, tol: TolerancePolicy | None = None) -> bool:
    """Decide feasibility by least squares over an explicit matrix basis.

    ``subspace`` is one of ``any-matrix``, ``hermitian``, ``symmetric``.
    The complex problem is flattened to a real one of doubled dimension
    and solved as an ordinary dense least-squares system; feasible means
    the minimal residual is below ``residual_tol * max(1, |Y|_F)``.  Meant
    as an independent referee for the certificate-based checks, so it
    deliberately knows nothing about SVDs, ranks, or null spaces.
    """
    tol = tol or DEFAULT_TOL
    if subspace not in _ORACLE_SUBSPACES:
        raise ValueError(f"subspace must be one of {_ORACLE_SUBSPACES}, got {subspace!r}")
    X = as_matrix(X, "X")
    Y = as_matrix(Y, "Y")
    if X.shape != Y.shape:
        raise ShapeError(f"X and Y must have equal shapes, got {X.shape} and {Y.shape}")
    m = X.shape[0]
    if m > _ORACLE_MAX_DIM:
        raise TooLargeError(f"oracle limited to m <= {_ORACLE_MAX_DIM}, got m = {m}")

    basis = _oracle_basis(m, subspace)
    columns = np.empty((2 * X.size, len(basis)))
    for idx, B in enumerate(basis):
        prod = B @ X
        columns[:, idx] = np.concatenate([prod.real.ravel(), prod.imag.ravel()])
    rhs = np.concatenate([Y.real.ravel(), Y.imag.ravel()])
    coeffs, _, _, _ = np.linalg.lstsq(columns, rhs, rcond=None)
    best = _fro(columns @ coeffs - rhs)
    return best <= tol.residual_tol * max(1.0, _fro(Y))
