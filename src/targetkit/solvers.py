"""Constructive solvers: one per property class.

Every solver follows the same discipline: coerce X and Y once into a
prepared pair (``feasibility._Pair``), evaluate the class's certificate
on that pair and refuse with the certificate when it fails, build the
targeting matrix by the class's explicit formula from the same pair,
then re-verify both the product residual and the structural property
before returning.  The pair factors X at most once, on first use, so
the certificate and the construction share one SVD of X; the audit
shares nothing with them and measures the returned matrix on its own.
A solution object that comes back from this module has already survived
its own audit; if the construction cannot meet tolerance, the solver
raises instead of returning something quietly wrong.

The completion-based constructions share one coordinate change: with
``X = V Sigma W*`` and ``Z = V* Y W1``, any candidate ``A = V B V*``
satisfies ``AX = Y`` exactly when the first ``r`` columns of ``B`` equal
``B1 = Z Sigma_r^{-1}``.  Choosing the remaining columns (or the bordered
blocks of ``B``) is where each property is won.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadFreeParameterError,
    InfeasibleError,
    LambdaSearchError,
    NotOrthonormalError,
    NumericFailureError,
    RankProvisoError,
    ShapeError,
    ZeroMatrixError,
)
from .feasibility import (
    COMPLEX_SYMMETRIC,
    HERMITIAN,
    INVERTIBLE,
    INVERTIBLE_HERMITIAN,
    NORMAL_VECTOR,
    ORTHOGONAL_PROJECTION,
    POSITIVE_DEFINITE,
    POSITIVE_SEMIDEFINITE,
    REFLECTION,
    UNCONSTRAINED,
    UNITARY,
    PropertyClass,
    _check,
    _near_multiple,
    _Pair,
    normal_two_point,
)
from .linalg import (
    DEFAULT_TOL,
    TolerancePolicy,
    _block2,
    _fro,
    _herm,
    as_matrix,
    complete_orthonormal,
    is_zero_matrix,
    nearest_orthonormal,
    numerical_rank,
    orthogonal_projector,
    pseudoinverse,
    svd_partitioned,
)
from .verify import verify_property, verify_targeting

__all__ = [
    "TargetingSolution",
    "CompletionBlocks",
    "completion_blocks",
    "solve_unconstrained",
    "solution_family",
    "solve_invertible",
    "solve_hermitian",
    "solve_invertible_hermitian",
    "solve_psd",
    "solve_pd",
    "solve_unitary",
    "solve_unitary_polar",
    "solve_reflection",
    "solve_projection",
    "solve_complex_symmetric",
    "solve_normal_two_point",
    "solve_normal_vector",
    "completion_gap",
    "COMPLETION_GAP_NOTE",
]


@dataclass(frozen=True)
class TargetingSolution:
    """A verified targeting matrix together with its audit trail.

    ``free_params`` records every choice the construction made, enough to
    reproduce ``A`` deterministically.  ``residual`` is the relative
    targeting error and ``property_deviation`` the largest structural
    deviation measured by the independent verifier.
    """

    A: np.ndarray
    property: PropertyClass
    free_params: dict
    residual: float
    property_deviation: float


@dataclass(frozen=True)
class CompletionBlocks:
    """The shared blocks of the change-of-basis construction.

    ``Z = V* Y W1`` splits at the rank into ``Z1`` (top ``r`` rows) and
    ``Z2``; ``B1 = Z Sigma_r^{-1}`` splits the same way into ``H`` and
    ``L``.  Whenever the null spaces of source and target coincide,
    ``rank B1 = rank Y``.
    """

    Z: np.ndarray
    Z1: np.ndarray
    Z2: np.ndarray
    B1: np.ndarray
    H: np.ndarray
    L: np.ndarray


def completion_blocks(X, Y, tol: TolerancePolicy | None = None):
    """Compute ``(SvdFactors, CompletionBlocks)`` for a source/target pair."""
    pair = _Pair(X, Y, tol)
    if pair.x_is_zero:
        raise ZeroMatrixError("input matrix is numerically zero")
    return _completion(pair)


def _completion(pair):
    f = pair.factors
    Z = f.V.conj().T @ pair.Y @ f.W1
    B1 = Z / f.sigma
    r = f.rank
    blocks = CompletionBlocks(Z=Z, Z1=Z[:r], Z2=Z[r:], B1=B1, H=B1[:r], L=B1[r:])
    return f, blocks


def _in_frame(f, B) -> np.ndarray:
    # A = V B V*: B in the coordinates of X's left singular vectors
    return f.V @ B @ f.V.conj().T


def _finalize(A, prop, pair, free_params) -> TargetingSolution:
    A = as_matrix(A, "A")
    residual = verify_targeting(A, pair.X, pair.Y)
    report = verify_property(A, prop, pair.tol)
    if residual > pair.tol.residual_tol or not report.passed:
        failed = [c.name for c in report.conditions if not c.satisfied]
        raise NumericFailureError(
            f"constructed matrix failed its own audit for {prop.label()}: "
            f"residual={residual:.3e}"
            + (f", violated {failed}" if failed else "")
        )
    deviation = max((c.deviation for c in report.conditions), default=0.0)
    return TargetingSolution(
        A=A,
        property=prop,
        free_params=free_params,
        residual=residual,
        property_deviation=deviation,
    )


def _require_feasible(prop, X, Y, tol) -> _Pair:
    """Prepare the pair of one solver call and certify it, or refuse."""
    pair = _Pair(X, Y, tol)
    report = _check(prop, pair)
    if report.feasible:
        return pair
    failed = [c for c in report.conditions if not c.satisfied]
    if prop.kind == "normal-two-point" and all(c.name == "rank-proviso" for c in failed):
        scale = prop.lam if _near_multiple(pair.Y, prop.lam, pair.X, pair.tol) else prop.mu
        if scale.imag == 0:
            scale = scale.real
        raise RankProvisoError(
            "the source is square and invertible with the target a scalar "
            f"multiple of it, so A = {scale} * I is the unique solution and "
            "no targeting matrix with a genuinely two-point spectrum exists",
            unique_solution_scale=scale,
            report=report,
        )
    raise InfeasibleError(report)


def _degenerate_identity(prop, pair, scale=1.0) -> TargetingSolution:
    # numerically zero source (the check has already demanded a zero
    # target): a scalar matrix in the class is the canonical witness
    if isinstance(scale, complex) and scale.imag == 0:
        scale = scale.real
    A = scale * np.eye(pair.X.shape[0])
    return _finalize(A, prop, pair, {"degenerate_zero_source": True})


def _as_real_scalar(value, name: str) -> float:
    if isinstance(value, complex):
        if value.imag != 0:
            raise BadFreeParameterError(f"{name} must be real, got {value!r}")
        return float(value.real)
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise BadFreeParameterError(f"{name} must be a real scalar, got {value!r}") from exc


def _bordered(H, L, lam) -> np.ndarray:
    return _block2(H, L.conj().T, L, lam * np.eye(L.shape[0], dtype=np.result_type(H, L)))


def solve_unconstrained(X, Y, Z_free=None, tol: TolerancePolicy | None = None) -> TargetingSolution:
    """Minimal-norm solution ``Y X†`` plus an arbitrary null-range term.

    ``A = Y X† + Z (I - X X†)`` targets Y for every choice of ``Z``; the
    default ``Z = 0`` gives the pseudoinverse solution.
    """
    pair = _require_feasible(UNCONSTRAINED, X, Y, tol)
    m, f = pair.X.shape[0], pair.factors
    A = pair.Y @ ((f.W1 / f.sigma) @ f.V1.conj().T)
    Z = None
    if Z_free is not None:
        Z = as_matrix(Z_free, "Z_free")
        if Z.shape != (m, m):
            raise BadFreeParameterError(f"Z_free must be {m}x{m}, got {Z.shape}")
        A = A + Z @ (np.eye(m) - f.V1 @ f.V1.conj().T)
    return _finalize(A, UNCONSTRAINED, pair, {"Z": Z})


def solution_family(X, Y, tol: TolerancePolicy | None = None):
    """The affine family of all solutions: ``{A0 + Z N : Z arbitrary}``.

    Returns ``(A0, N)`` with ``A0 = Y X†`` and ``N`` the orthogonal
    projector onto the orthogonal complement of ``col X``.  Every
    targeting matrix for the pair has the form ``A0 + Z N``, and every
    such matrix targets Y.
    """
    pair = _require_feasible(UNCONSTRAINED, X, Y, tol)
    f = pair.factors
    A0 = pair.Y @ ((f.W1 / f.sigma) @ f.V1.conj().T)
    return A0, np.eye(pair.X.shape[0]) - f.V1 @ f.V1.conj().T


def solve_invertible(X, Y, tol: TolerancePolicy | None = None) -> TargetingSolution:
    """Invertible targeting matrix via full-rank completion of ``B1``."""
    pair = _require_feasible(INVERTIBLE, X, Y, tol)
    if pair.x_is_zero:
        return _degenerate_identity(INVERTIBLE, pair)
    f, blocks = _completion(pair)
    m, r = pair.X.shape[0], f.rank
    B2 = None
    if r == m:
        B = blocks.B1
    else:
        B2 = svd_partitioned(blocks.B1, pair.tol).V2
        if B2.shape[1] != m - r:
            raise NumericFailureError(
                "the first block lost rank numerically; cannot complete to an invertible matrix"
            )
        B = np.hstack([blocks.B1, B2])
    return _finalize(_in_frame(f, B), INVERTIBLE, pair, {"B2": B2})


def solve_hermitian(X, Y, lambda_free=None, tol: TolerancePolicy | None = None) -> TargetingSolution:
    """Hermitian targeting matrix from the bordered block construction.

    ``B = [[H, L*], [L, lam I]]`` with ``lam`` any real number (default 0);
    feasibility makes ``H`` Hermitian, so ``B`` and hence ``A = V B V*``
    are Hermitian for every choice.
    """
    pair = _require_feasible(HERMITIAN, X, Y, tol)
    lam = 0.0 if lambda_free is None else _as_real_scalar(lambda_free, "lambda_free")
    if pair.x_is_zero:
        return _degenerate_identity(HERMITIAN, pair)
    f, blocks = _completion(pair)
    H = _herm(blocks.H)
    B = H if f.rank == pair.X.shape[0] else _bordered(H, blocks.L, lam)
    return _finalize(_in_frame(f, B), HERMITIAN, pair, {"lam": lam})


def _lambda_candidates(H, L, r) -> list:
    norm_h = float(np.linalg.norm(H, 2)) if H.size else 0.0
    norm_l = float(np.linalg.norm(L, 2)) if L.size else 0.0
    candidates = []
    for k in range(1, r + 2):
        denominator = max(norm_l**2, norm_h**2)
        if norm_h > 0.0 and denominator > 0.0:
            s = k * norm_h / denominator
            candidates += [1.0 / s, -1.0 / s]
        base = max(norm_h, norm_l) / k
        if base > 0.0:
            candidates += [base, -base]
    seen = set()
    return [c for c in candidates if not (c in seen or seen.add(c))]


def _sigma_min_bounds(H, L, candidates) -> np.ndarray:
    """Upper bounds on the computed ``sigma_min`` of ``_bordered(H, L, lam)``.

    Any ``x``, ``alpha``, ``beta`` give ``z = [alpha x; -beta L x]`` with
    ``B(lam) z = [alpha H x - beta L* L x; (alpha - lam beta) L x]``, so
    ``|B(lam) z| / |z|`` bounds ``sigma_min(B(lam))``; near-eigenpairs
    ``beta L*L x = alpha H x`` of the pencil make it small exactly where
    ``lam`` is near ``alpha / beta``.  ``z = [x; 0]`` gives the cap
    ``sigma_min([H; L])`` for every ``lam``.  Each bound is widened by
    ``32 m eps (|H|_F + |L|_F + |lam|)``, which covers the rounding of the
    bound and of the SVD that would score the candidate.  Forming
    ``L* (L x)`` rather than ``(L*L) x`` keeps the bound's rounding within
    that margin even when ``z`` is tiny (``L x ~ 0`` at a zero eigenvalue).
    """
    lams = np.asarray(candidates, dtype=float)
    margin = 32 * (H.shape[0] + L.shape[0]) * np.finfo(float).eps * (
        np.linalg.norm(H) + np.linalg.norm(L) + np.abs(lams))
    cap = float(np.linalg.svd(np.vstack([H, L]), compute_uv=False)[-1])
    M = L.conj().T @ L
    c0 = candidates[0]
    try:
        nu, x = np.linalg.eig(np.linalg.solve(H - M / c0, M))
    except np.linalg.LinAlgError:  # a singular shift: the cap alone bounds every candidate
        return cap + margin
    alpha, beta = nu * c0, c0 + nu
    Lx = L @ x
    top = np.linalg.norm(alpha * (H @ x) - beta * (L.conj().T @ Lx), axis=0)
    bottom = np.linalg.norm(Lx, axis=0)
    z = np.hypot(np.abs(alpha) * np.linalg.norm(x, axis=0), np.abs(beta) * bottom)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = np.hypot(top, np.abs(alpha - lams[:, None] * beta) * bottom) / z
    # fmin skips the NaN of a pair with z = 0
    return np.fmin.reduce(ratio, axis=1, initial=cap) + margin


def solve_invertible_hermitian(X, Y, tol: TolerancePolicy | None = None) -> TargetingSolution:
    """Hermitian and invertible: the bordered construction with a searched scalar.

    ``det [[H, L*], [L, lam I]]`` vanishes for at most ``r`` values of
    ``1/lam``, so among the candidates of ``_lambda_candidates``
    (magnitudes derived from ``|H|`` and ``|L|``, both signs) a
    nonsingular choice must exist; the candidate maximizing the smallest
    singular value of ``B`` wins, the first one listed on a tie.

    Scoring a candidate takes a full SVD of the ``m x m`` matrix ``B``, so
    the search first bounds every candidate's ``sigma_min`` from above
    without one (``_sigma_min_bounds``): near-eigenpairs of the ``r x r``
    pencil ``(L*L, H)``, from one ``eig``, give test vectors whose residual
    is small where ``lam`` is near a pencil eigenvalue, and
    ``sigma_min([H; L])`` caps every bound.  The bound holds for any test
    vector, so a poor eigensolve only loosens it.  Candidates are scored in
    decreasing-bound order, and the search stops once the best score
    exceeds every remaining bound, each widened by a rounding margin of
    ``32 m eps (|H|_F + |L|_F + |lam|)``.  Every candidate left unscored
    would have scored strictly below the winner, so ``lam``, ``A`` and
    every error are those of scoring all candidates.

    A best candidate below ``residual_tol * |B|`` means the data is too
    badly conditioned to certify, and that is reported as a search
    failure rather than infeasibility.
    """
    pair = _require_feasible(INVERTIBLE_HERMITIAN, X, Y, tol)
    if pair.x_is_zero:
        return _degenerate_identity(INVERTIBLE_HERMITIAN, pair)
    f, blocks = _completion(pair)
    m, r = pair.X.shape[0], f.rank
    H = _herm(blocks.H)
    lam = None
    if r == m:
        B = H
    else:
        candidates = _lambda_candidates(H, blocks.L, r)
        if not candidates:
            raise LambdaSearchError("no usable bordering scalar: both blocks vanish")
        bounds = _sigma_min_bounds(H, blocks.L, candidates)
        best_smin, best_smax, best = -1.0, 0.0, len(candidates)
        for i in sorted(range(len(candidates)), key=lambda i: -bounds[i]):
            if best_smin > bounds[i]:
                break
            s = np.linalg.svd(_bordered(H, blocks.L, candidates[i]), compute_uv=False)
            smin = float(s[-1])
            if smin > best_smin or (smin == best_smin and i < best):
                best_smin, best_smax, best = smin, float(s[0]), i
        lam = candidates[best]
        if best_smin <= pair.tol.residual_tol * best_smax:
            raise LambdaSearchError(
                f"every candidate left the completion nearly singular "
                f"(best sigma_min/sigma_max = {best_smin / best_smax:.3e})"
            )
        B = _bordered(H, blocks.L, lam)
    return _finalize(_in_frame(f, B), INVERTIBLE_HERMITIAN, pair, {"lam": lam})


def solve_psd(X, Y, tol: TolerancePolicy | None = None) -> TargetingSolution:
    """Positive semidefinite targeting via the smallest workable border.

    The border scalar is the largest eigenvalue of ``L H† L*`` (zero if
    that is negative), the least ``lam`` whose Schur complement
    ``lam I - L H† L*`` is positive semidefinite.  No congruence is formed
    here: the audit in ``_finalize`` certifies ``A`` positive semidefinite.
    """
    pair = _require_feasible(POSITIVE_SEMIDEFINITE, X, Y, tol)
    if pair.x_is_zero:
        return _degenerate_identity(POSITIVE_SEMIDEFINITE, pair)
    f, blocks = _completion(pair)
    H = _herm(blocks.H)
    lam = None
    if f.rank == pair.X.shape[0]:
        B = H
    else:
        L = blocks.L
        M = _herm(L @ pseudoinverse(H, pair.tol) @ L.conj().T)
        lam = max(0.0, float(np.linalg.eigvalsh(M)[-1]))
        B = _bordered(H, L, lam)
    return _finalize(_in_frame(f, B), POSITIVE_SEMIDEFINITE, pair, {"lam": lam})


def solve_pd(X, Y, tol: TolerancePolicy | None = None) -> TargetingSolution:
    """Positive definite targeting: border strictly above the PSD threshold.

    Feasibility makes ``H`` positive definite; ``lam`` exceeds the
    largest eigenvalue of ``L H^{-1} L*`` by a factor of two plus an
    absolute unit, so the Schur complement keeps a quantified margin.
    """
    pair = _require_feasible(POSITIVE_DEFINITE, X, Y, tol)
    if pair.x_is_zero:
        return _degenerate_identity(POSITIVE_DEFINITE, pair)
    f, blocks = _completion(pair)
    m, r = pair.X.shape[0], f.rank
    H = _herm(blocks.H)
    if numerical_rank(H, pair.tol) < r:
        raise NumericFailureError("the leading block lost definiteness numerically")
    lam = None
    if r == m:
        B = H
    else:
        L = blocks.L
        K = np.linalg.solve(H, L.conj().T)
        lam = 2.0 * float(np.linalg.eigvalsh(_herm(L @ K))[-1]) + 1.0
        B = _bordered(H, L, lam)
    return _finalize(_in_frame(f, B), POSITIVE_DEFINITE, pair, {"lam": lam})


def _unitary_completion(pair):
    f, blocks = _completion(pair)
    return f, complete_orthonormal(nearest_orthonormal(blocks.B1), pair.tol)


def solve_unitary(X, Y, tol: TolerancePolicy | None = None) -> TargetingSolution:
    """Unitary targeting by orthonormal completion of ``B1``.

    Equal Gram matrices make the columns of ``B1`` orthonormal (they are
    polished to machine precision first); completing them to a unitary
    and conjugating back gives ``A``.
    """
    pair = _require_feasible(UNITARY, X, Y, tol)
    if pair.x_is_zero:
        return _degenerate_identity(UNITARY, pair)
    f, B = _unitary_completion(pair)
    return _finalize(_in_frame(f, B), UNITARY, pair, {"completion": B[:, f.rank :]})



def solve_unitary_polar(X, Y, tol: TolerancePolicy | None = None) -> TargetingSolution:
    """Unitary targeting through matched orthonormal frames.

    Source and target share the positive factor of their polar
    decompositions (equal Gram matrices), so each determines an
    orthonormal frame for the same ``r`` inner coordinates:
    ``X = C_U (Sigma_r W1*)`` and ``Y = C_V (Sigma_r W1*)``.  Completing
    both frames and mapping one onto the other yields ``A = V U*``.  An
    independent route from :func:`solve_unitary`; the two outputs may
    differ but both verify.
    """
    pair = _require_feasible(UNITARY, X, Y, tol)
    if pair.x_is_zero:
        return _degenerate_identity(UNITARY, pair)
    f = pair.factors
    source_frame = complete_orthonormal(f.V1, pair.tol)
    target_frame = complete_orthonormal(nearest_orthonormal(pair.Y @ f.W1 / f.sigma), pair.tol)
    A = target_frame @ source_frame.conj().T
    return _finalize(
        A,
        UNITARY,
        pair,
        {
            "source_completion": source_frame[:, f.rank :],
            "target_completion": target_frame[:, f.rank :],
        },
    )


def solve_reflection(X, Y, tol: TolerancePolicy | None = None) -> TargetingSolution:
    """Reflection (Hermitian involution) targeting: ``A = I - 2 P``.

    ``P`` projects onto ``col(X - Y)``; feasibility makes ``col(X + Y)``
    orthogonal to it, which is re-asserted at runtime, so ``A`` fixes the
    sum and negates the difference.  For a single column this is a scalar
    multiple pattern of the classical elementary reflector.
    """
    pair = _require_feasible(REFLECTION, X, Y, tol)
    X, Y, tol = pair.X, pair.Y, pair.tol
    diff = X - Y
    total = X + Y
    dev = _fro(total.conj().T @ diff) / max(1.0, _fro(X) ** 2 + _fro(Y) ** 2)
    if dev > tol.residual_tol:
        raise NumericFailureError(
            f"col(X+Y) and col(X-Y) are not numerically orthogonal (deviation {dev:.3e})"
        )
    A = np.eye(X.shape[0]) - 2.0 * orthogonal_projector(diff, tol)
    return _finalize(A, REFLECTION, pair, {})


def solve_projection(X, Y, tol: TolerancePolicy | None = None) -> TargetingSolution:
    """Orthogonal-projection targeting: project onto the target's range."""
    pair = _require_feasible(ORTHOGONAL_PROJECTION, X, Y, tol)
    A = orthogonal_projector(pair.Y, pair.tol)
    return _finalize(A, ORTHOGONAL_PROJECTION, pair, {})


def solve_complex_symmetric(
    X, Y, G_free=None, tol: TolerancePolicy | None = None
) -> TargetingSolution:
    """Complex-symmetric targeting via the transposed coordinate frame.

    In the frame ``F = [[S1, S2^T], [S2, G]]`` with ``S1`` forced
    symmetric by feasibility, ``A = conj(V) F V*`` is symmetric and
    targets Y for every complex symmetric corner ``G`` (default 0).
    """
    pair = _require_feasible(COMPLEX_SYMMETRIC, X, Y, tol)
    if pair.x_is_zero:
        return _degenerate_identity(COMPLEX_SYMMETRIC, pair)
    f = pair.factors
    m, r = pair.X.shape[0], f.rank
    core = pair.Y @ f.W1 / f.sigma
    S1 = f.V1.T @ core
    S1 = (S1 + S1.T) / 2
    S2 = f.V2.T @ core
    if r == m:
        if G_free is not None:
            raise BadFreeParameterError("a full-rank source leaves no free corner")
        G = None
        F = S1
    else:
        if G_free is None:
            G = np.zeros((m - r, m - r), dtype=S2.dtype)
        else:
            G = as_matrix(G_free, "G_free")
            if G.shape != (m - r, m - r):
                raise BadFreeParameterError(f"G_free must be {m - r}x{m - r}, got {G.shape}")
            sym_dev = _fro(G - G.T) / max(1.0, _fro(G))
            if sym_dev > pair.tol.sym_tol:
                raise BadFreeParameterError(
                    f"G_free must be complex symmetric (deviation {sym_dev:.3e})"
                )
        F = _block2(S1, S2.T, S2, G)
    A = f.V.conj() @ F @ f.V.conj().T
    return _finalize(A, COMPLEX_SYMMETRIC, pair, {"G": G})


def _col_basis(M, tol) -> np.ndarray:
    if is_zero_matrix(M, tol):
        return np.zeros((M.shape[0], 0), dtype=M.dtype)
    return svd_partitioned(M, tol).V1


def solve_normal_two_point(X, Y, lam, mu, tol: TolerancePolicy | None = None) -> TargetingSolution:
    """Normal targeting with spectrum inside ``{lam, mu}``.

    Writes ``E = Y - mu X`` and ``F = Y - lam X`` (orthogonal ranges, by
    feasibility), projects onto each, and fills the leftover subspace
    with the ``lam`` eigenvalue: ``A = lam P + mu Q + lam R``.  Real data
    with real eigenvalues stays real.  The square-invertible corner where
    the target is a scalar multiple of the source is refused with the
    forced scalar in the error payload.
    """
    prop = normal_two_point(lam, mu)
    pair = _require_feasible(prop, X, Y, tol)
    X, Y, tol = pair.X, pair.Y, pair.tol
    lam, mu = prop.lam, prop.mu
    if lam.imag == 0 and mu.imag == 0:
        lam, mu = lam.real, mu.real
    if pair.x_is_zero:
        return _degenerate_identity(prop, pair, scale=lam)
    m = X.shape[0]
    basis_e = _col_basis(Y - mu * X, tol)
    basis_f = _col_basis(Y - lam * X, tol)
    P = basis_e @ basis_e.conj().T
    Q = basis_f @ basis_f.conj().T
    T = np.hstack([basis_e, basis_f])
    if T.shape[1] >= m:
        R = np.zeros((m, m), dtype=T.dtype)
    else:
        try:
            completed = complete_orthonormal(T, tol)
            rest = completed[:, T.shape[1] :]
            R = rest @ rest.conj().T
        except (NotOrthonormalError, ShapeError):
            # near-threshold cross terms between the two range bases: fall
            # back to the complement projector of their joint span
            R = np.eye(m) - orthogonal_projector(T, tol)
    A = lam * P + mu * Q + lam * R
    return _finalize(A, prop, pair, {})


def solve_normal_vector(x, y, tol: TolerancePolicy | None = None) -> TargetingSolution:
    """Normal targeting for single-column data: a scaled unitary.

    Sends ``x/|x|`` to ``y/|y|`` unitarily and multiplies by the norm
    ratio; scalar multiples of unitaries are normal.
    """
    x = as_matrix(x, "x")  # so that bad input is reported as x or y
    y = as_matrix(y, "y")
    pair = _require_feasible(NORMAL_VECTOR, x, y, tol)
    norm_x, norm_y = _fro(x), _fro(y)
    # unit vectors have equal Gram matrices: solve_unitary's construction
    # applies without its certificate
    f, B = _unitary_completion(_Pair(x / norm_x, y / norm_y, pair.tol))
    U = as_matrix(_in_frame(f, B), "A")  # stored as a returned matrix is
    return _finalize((norm_y / norm_x) * U, NORMAL_VECTOR, pair, {"unitary_factor": U})


COMPLETION_GAP_NOTE = (
    "Necessary, not sufficient: a normal completion [[B, D], [C, E]] forces "
    "D D* = B*B - B B* + C*C, so that gap matrix must be positive semidefinite, "
    "and every row of a normal matrix must match its column in Euclidean norm. "
    "For 2x2 blocks the positive semidefinite gap is also sufficient, but from "
    "3x3 blocks up it is not: with B the 3x3 cyclic shift and C = e1 e1^T the "
    "gap equals C and is positive semidefinite, yet the completion equations "
    "leave the first row and first column of any candidate at unequal norms, "
    "so no normal completion exists."
)


def completion_gap(B, C, tol: TolerancePolicy | None = None):
    """Diagnostic gap ``B*B - B B* + C*C`` for normal completions.

    Returns the Hermitian gap matrix and whether it is positive
    semidefinite within ``psd_tol``; see :data:`COMPLETION_GAP_NOTE` for
    what a passing verdict does and does not imply.
    """
    tol = tol or DEFAULT_TOL
    B = as_matrix(B, "B")
    C = as_matrix(C, "C")
    if B.shape[0] != B.shape[1]:
        raise ShapeError(f"B must be square, got {B.shape}")
    if C.shape != B.shape:
        raise ShapeError(f"B and C must have equal shapes, got {B.shape} and {C.shape}")
    Bh = B.conj().T
    H = _herm(Bh @ B - B @ Bh + C.conj().T @ C)
    scale = float(np.linalg.norm(H, 2))
    psd = True if scale == 0.0 else float(np.linalg.eigvalsh(H)[0]) >= -tol.psd_tol * scale
    return H, psd
