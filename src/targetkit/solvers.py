"""Constructive solvers: one per property class.

Every solver follows the same discipline: coerce X and Y once into a
prepared pair (``feasibility._Pair``), evaluate the class's certificate
on that pair and refuse with the certificate when it fails, build the
targeting matrix by the class's explicit formula from the same pair,
then re-verify both the product residual and the structural property
before returning.  The residual reads the pair's X and Y, which are
coerced already, and A, coerced once to refuse a non-finite entry, through
the formula of ``verify_targeting`` (``verify._targeting_residual``);
``verify_property`` coerces A again and measures it alone.  The pair
factors X at most once, on first use, so the certificate and the
construction share one factorization of X; every other rank,
pseudoinverse, range basis or projector a construction needs is a view
on one partitioned SVD of a matrix it already holds, so nothing is
coerced twice.  The certificates take an SVD only where a cheaper bound
cannot decide.  Every Cholesky certificate is one rule,
``feasibility._cholesky_bound``: a Cholesky of a shifted matrix bounds
the min/max ratio that the measured routine would compute, and where it
declines that routine decides, so every verdict is the measured one.  It
ranks a tall or square X by its Gram matrix, in ``check`` at every size
and in a solve from ``feasibility._QR_MIN_ROWS`` rows up whose
construction does not read X's SVD; a smaller solve reads X's rank off
the SVD that the Hermitian family's construction takes there.  It ranks
Y where X has full rank, keeps every eigenpair of the psd border's head
(``_psd_border``), and certifies the pd and invertible-Hermitian audits
of a well-conditioned A.  The null space of ``X* Y`` is empty where
Weyl's inequality puts the eigenvalues of its Hermitian part, which the
psd test computes anyway, past the rank cutoff.  A matrix that is
Hermitian by construction takes the Hermitian eigensolver (``eigvalsh``
or ``eigh``): its singular values are the moduli of its eigenvalues, at
about half the flops of an SVD.  The audit shares nothing with them and
measures the returned matrix on its own.
A solution object that comes back from this module has already survived
its own audit; if the construction cannot meet tolerance, the solver
raises instead of returning something quietly wrong.

The completion-based constructions share one coordinate change: with
``X = V Sigma W*`` and ``Z = V* Y W1``, any candidate ``A = V B V*``
satisfies ``AX = Y`` exactly when the first ``r`` columns of ``B`` equal
``B1 = Z Sigma_r^{-1}``.  Choosing the remaining columns (or the bordered
blocks of ``B``) is where each property is won.  The four Hermitian
classes share one bordered block ``[[H, L*], [L, lam I]]`` and differ
only in the rule that picks the border scalar ``lam``.  They need only
a unitary frame V whose first r columns span col X, so where the
certificate shows X of full column rank n they take the frame of X's
Householder QR, ``X = Q [R1; 0]`` with ``B1 = Q* Y R1^-1``, which costs
less than the SVD from ``feasibility._QR_MIN_ROWS`` rows up and gives
the same A in exact arithmetic (``_hermitian_blocks``).  Where also
``m - n >= n`` they never form the m x m Q: from the reduced ``X = Q1
R1``, ``H`` is the Hermitian part of ``Q1* Y R1^-1``, the complement
``W = Y R1^-1 - Q1 Q1* Y R1^-1`` equals ``Q2 L``, and ``A = lam I + T +
T*`` with ``T = (Q1 (H - lam I) / 2 + W) Q1*`` (``_assemble``), 2 m^2 n
flops where ``Q B Q*`` takes a complete Q and 4 m^3.  The border rules
read L only up to a unitary factor on its left, so they get the n x n R
factor ``L~`` of W, with ``L = U [L~; 0]`` (``_border_block``); B then
holds ``lam`` as an eigenvalue of multiplicity ``m - 2n`` that the
compressed blocks leave out, and the invertible-Hermitian search counts
it (``_searched_border``).
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadFreeParameterError,
    InfeasibleError,
    LambdaSearchError,
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
    _CLASSES,
    PropertyClass,
    _check,
    _cholesky_bound,
    _near_multiple,
    _Pair,
    _semidefinite,
    normal_two_point,
)
from .linalg import (
    DEFAULT_TOL,
    TolerancePolicy,
    _asymmetry,
    _block2,
    _complete_orthonormal,
    _fro,
    _herm,
    _nearest_orthonormal,
    _partition,
    as_matrix,
    is_zero_matrix,
)
from .verify import _targeting_residual, verify_property

__all__ = [
    "TargetingSolution",
    "CompletionBlocks",
    "completion_blocks",
    "solve",
    "solve_unconstrained",
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


def _in_frame(V, B) -> np.ndarray:
    # A = V B V*: B in the coordinates of the unitary frame V of X
    return V @ B @ V.conj().T


def _hermitian_blocks(pair):
    """The frame V of the bordered construction ``A = V B V*``, with H, the
    Hermitian part of the leading ``r x r`` block of ``B1``, and L, its
    other ``m - r`` rows; in the thin frame, ``V = Q1`` and ``W = Q2 L``
    in place of L.

    Any A whose ``V* A V`` has ``B1`` as its first r columns targets Y.  A
    certified full-rank X (``pair.qr_framed``) is framed by its QR, ``X =
    Q [R1; 0]``, with ``B1 = Q* Y R1^-1`` and ``r = n``: then ``A X = Q B1
    R1 = Q Q* Y = Y``.  Any other X is framed by its SVD ``X = V Sigma
    W*``, with ``B1 = V* Y W1 Sigma_r^-1`` (``completion_blocks``) and r
    its rank, and feasibility gives ``Y W2 = 0``.  The two frames differ by
    a block-diagonal unitary D, with ``B_QR = D* B_SVD D``, so A, the
    norms of H and L and the border scalar agree in exact arithmetic.

    With ``m - n >= n`` the pair holds the reduced QR ``X = Q1 R1``
    (``_Pair.qr``), and Q2 is never formed: with ``Z = Y R1^-1``, ``H`` is
    the Hermitian part of ``H' = Q1* Z`` and ``W = Z - Q1 H'``, the part of
    Z off col X, is ``Q2 Q2* Z = Q2 L``.  Then V is the m x n ``Q1``, and
    the rules and the assembly read W through ``_border_block`` and
    ``_assemble``.
    """
    if pair.qr_framed:
        Q, R = pair.qr
        n = R.shape[1]
        Z = pair.Y @ np.linalg.inv(R[:n])
        if Q.shape[1] < len(Q):
            Hp = Q.conj().T @ Z
            return Q, _herm(Hp), Z - Q @ Hp
        B1 = Q.conj().T @ Z
        return Q, _herm(B1[:n]), B1[n:]
    f, blocks = _completion(pair)
    return f.V, _herm(blocks.H), blocks.L


def _border_block(V, L):
    """The border block the rules read, with the row count it stands for.

    In a unitary frame that is L itself, and None.  In the thin frame L
    holds ``W = Q2 L``, and the rules get W's n x n R factor ``L~``, which
    satisfies ``L~* L~ = W* W = L* L``: L is ``U [L~; 0]`` for a unitary U,
    so the two share their singular values, and ``[[H, L*], [L, lam I]]``
    is unitarily similar to ``[[H, L~*], [L~, lam I]]`` plus ``lam`` as an
    eigenvalue of multiplicity ``m - 2n``.  The row count is ``m - n``.
    """
    m, r = V.shape
    if r == m:
        return L, None
    return np.linalg.qr(L, mode="r"), m - r


def _assemble(V, H, L, lam) -> np.ndarray:
    # A = V B V* with B = [[H, L*], [L, lam I]], or B = H where L has no
    # rows.  In the thin frame (V = Q1 and L = W = Q2 L), Q2 Q2* = I - Q1 Q1*
    # gives A = lam I + T + T* with T = (Q1 (H - lam I) / 2 + W) Q1*: the
    # sum of T and its conjugate transpose is Hermitian bit for bit, and
    # adding T into its conjugate transpose in place forms no third m x m
    m, r = V.shape
    if r == m:
        return _in_frame(V, _bordered(H, L, lam) if len(L) else H)
    T = (V @ ((H - lam * np.eye(r)) / 2) + L) @ V.conj().T
    A = np.conjugate(T.T, order="C")
    A += T
    A.ravel()[:: m + 1] += lam
    return A


def _finalize(A, prop, pair, free_params) -> TargetingSolution:
    # one finiteness scan: a constructed A is a float64 or complex128
    # matrix, so the coercion can only refuse it for a non-finite entry
    try:
        A = as_matrix(A, "A")
    except ValueError:
        raise NumericFailureError(f"constructed matrix for {prop.label()} has non-finite entries") from None
    residual = _targeting_residual(A, pair.X, pair.Y)
    report = verify_property(A, prop, pair.tol)
    # a NaN residual fails too
    if not residual <= pair.tol.residual_tol or not report.passed:
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


def _require_feasible(prop, X, Y, tol, svd_frame: bool = False) -> _Pair:
    """Prepare the pair of one solver call and certify it, or refuse.

    A solver whose construction reads X's SVD passes ``svd_frame``, so the
    certificate reads X's rank off that one SVD (``_Pair``); below
    ``feasibility._QR_MIN_ROWS`` rows every solver's does.
    """
    pair = _Pair(X, Y, tol, svd_frame, solve=True)
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
    A = scale * np.eye(pair.X.shape[0])
    return _finalize(A, prop, pair, {"degenerate_zero_source": True})


def _as_real_scalar(value, name: str) -> float:
    if isinstance(value, complex):
        if value.imag != 0:
            raise BadFreeParameterError(f"{name} must be real, got {value!r}")
        value = value.real
    try:
        value = float(value)
    except (TypeError, ValueError) as exc:
        raise BadFreeParameterError(f"{name} must be a real scalar, got {value!r}") from exc
    if not np.isfinite(value):
        raise BadFreeParameterError(f"{name} must be finite, got {value!r}")
    return value


def _bordered(H, L, lam) -> np.ndarray:
    return _block2(H, L.conj().T, L, lam * np.eye(L.shape[0], dtype=np.result_type(H, L)))


def _bordered_solution(prop, pair, border) -> TargetingSolution:
    # the construction the four Hermitian classes share: A = V B V* with
    # B = [[H, L*], [L, lam I]] (_hermitian_blocks).  The classes differ
    # only in the rule border(H, L, tol, rows) that picks lam from the
    # blocks of _border_block; the hermitian class passes its free lam
    # itself, and reads no L.  An X of rank m leaves L without rows and
    # B = H; there only the free hermitian lam is recorded, and the other
    # rules give None
    if pair.x_is_zero:
        return _degenerate_identity(prop, pair)
    V, H, L = _hermitian_blocks(pair)
    lam = border
    if callable(border):
        block, rows = _border_block(V, L)
        lam = border(H, block, pair.tol, rows)
    return _finalize(_assemble(V, H, L, lam), prop, pair, {"lam": lam})


def solve(prop: PropertyClass, X, Y, tol: TolerancePolicy | None = None) -> TargetingSolution:
    """Solve ``A X = Y`` for ``A`` of class ``prop`` with that class's solver.

    The class table names each class's ``solve_*`` function, and it is
    looked up in this module when called, so a wrapper bound to the module
    attribute after import is what runs.  Every free parameter keeps its
    solver's default; ``normal-two-point`` takes its eigenvalues from
    ``prop``.
    """
    solver = globals()[_CLASSES[prop.kind].solver]
    if prop.kind == "normal-two-point":
        return solver(X, Y, prop.lam, prop.mu, tol=tol)
    return solver(X, Y, tol=tol)


def solve_unconstrained(X, Y, Z_free=None, tol: TolerancePolicy | None = None) -> TargetingSolution:
    """Minimal-norm solution ``Y X†`` plus an arbitrary null-range term.

    ``A = Y X† + Z (I - X X†)`` targets Y for every choice of ``Z``; the
    default ``Z = 0`` gives the pseudoinverse solution.
    """
    pair = _require_feasible(UNCONSTRAINED, X, Y, tol, svd_frame=True)
    m, f = pair.X.shape[0], pair.factors
    A = pair.Y @ f.pinv()
    Z = None
    if Z_free is not None:
        Z = as_matrix(Z_free, "Z_free")
        if Z.shape != (m, m):
            raise BadFreeParameterError(f"Z_free must be {m}x{m}, got {Z.shape}")
        A = A + Z @ (np.eye(m) - f.projector())
    return _finalize(A, UNCONSTRAINED, pair, {"Z": Z})


def solve_invertible(X, Y, tol: TolerancePolicy | None = None) -> TargetingSolution:
    """Invertible targeting matrix via full-rank completion of ``B1``."""
    pair = _require_feasible(INVERTIBLE, X, Y, tol, svd_frame=True)
    if pair.x_is_zero:
        return _degenerate_identity(INVERTIBLE, pair)
    f, blocks = _completion(pair)
    m, r = pair.X.shape[0], f.rank
    # where rounding leaves B1 below rank r, the audit refuses the completion
    B2 = None if r == m else _partition(blocks.B1, pair.tol).V[:, r:]
    B = blocks.B1 if B2 is None else np.hstack([blocks.B1, B2])
    return _finalize(_in_frame(f.V, B), INVERTIBLE, pair, {"B2": B2})


def solve_hermitian(X, Y, lambda_free=None, tol: TolerancePolicy | None = None) -> TargetingSolution:
    """Hermitian targeting matrix from the bordered block construction.

    ``B = [[H, L*], [L, lam I]]`` with ``lam`` any real number (default 0);
    feasibility makes ``H`` Hermitian, so ``B`` and hence ``A = V B V*``
    are Hermitian for every choice.
    """
    pair = _require_feasible(HERMITIAN, X, Y, tol)
    lam = 0.0 if lambda_free is None else _as_real_scalar(lambda_free, "lambda_free")
    return _bordered_solution(HERMITIAN, pair, lam)


def _lambda_candidates(H, L, r) -> list:
    """The bordering scalars ``solve_invertible_hermitian`` searches, in order.

    For ``k = 1 ... r + 1`` the list holds ``±max(|H|_2, |L|_2) / k``, so at
    least ``2(r + 1)`` distinct values.  When ``|L|_2 > |H|_2`` each ``k``
    also lists ``±1 / s`` with ``s = k |H|_2 / |L|_2^2`` ahead of them.
    When ``|L|_2 <= |H|_2`` that family is left out: there ``1 / s`` is
    ``|H|_2 / k`` in exact arithmetic, a twin differing in the last bit,
    and scoring it would cost one more SVD for the same number.  A value
    listed twice is kept at its first place.
    """
    # the spectral norms, as the largest singular values
    norm_h = float(np.linalg.svd(H, compute_uv=False)[0]) if H.size else 0.0
    norm_l = float(np.linalg.svd(L, compute_uv=False)[0]) if L.size else 0.0
    denominator = max(norm_l**2, norm_h**2)
    candidates = []
    for k in range(1, r + 2):
        if norm_l > norm_h > 0.0 and denominator > 0.0:
            s = k * norm_h / denominator
            candidates += [1.0 / s, -1.0 / s]
        base = max(norm_h, norm_l) / k
        if base > 0.0:
            candidates += [base, -base]
    seen = set()
    return [c for c in candidates if not (c in seen or seen.add(c))]


def _sigma_min_bounds(H, L, candidates, rows=None) -> np.ndarray:
    """Upper bounds on the computed ``sigma_min`` of ``_bordered(H, L, lam)``.

    Every ``z`` gives ``sigma_min(B(lam)) <= |B(lam) z| / |z|``.  The test
    vectors come from the finite eigenvectors ``x`` of the Hermitian pencil
    ``H x = nu L*L x`` (``_pencil_vectors``).  For each ``x`` and each
    candidate the bound takes the best ``z`` in ``span{[x; 0], [0; L x]}``,
    the square root of the smaller eigenvalue of a 2 x 2 Gram matrix, in
    closed form for all candidates at once; it is small where ``lam`` is
    near ``1 / nu``, and the least over all ``x`` is kept.  When ``L`` has
    more rows than columns, some ``y`` has ``L* y = 0``, and ``z = [0; y]``
    gives ``|B z| = |lam| |z|``: ``|lam|`` caps every bound.  ``rows``,
    when given, is the row count of the block that the n x n R factor
    ``L`` stands for (``_border_block``): the row count that the cap and
    the margin read, and L is its own R in the pencil.

    With ``scale = |H|_F + |L|_F + |lam|`` and ``margin = 32 m eps scale``,
    the squared bound is widened by ``margin * scale``, which covers the
    rounding of the Gram entries and of the closed form, and the bound by
    ``margin``, which covers the rounding of the ``eigvalsh`` that would
    score the candidate and its distance from the SVD's ``sigma_min``.  A
    test vector whose Gram matrix overflows bounds nothing; a candidate
    that no test vector bounds keeps the cap, which is infinite when ``L``
    has no more rows than columns.
    """
    lams = np.asarray(candidates, dtype=float)
    p, r = L.shape if rows is None else (rows, L.shape[1])
    scale = _fro(H) + _fro(L) + np.abs(lams)
    margin = 32 * (r + p) * np.finfo(float).eps * scale
    cap = np.abs(lams) if p > r else np.full(lams.shape, np.inf)
    X = _pencil_vectors(H, L, triangular=rows is not None)
    if X is None:
        return cap + margin
    HX, LX = H @ X, L @ X
    MX = L.conj().T @ LX
    # for the orthonormal u = [x; 0] / |x| and v = [0; L x] / |L x|, the
    # Gram matrix of B u and B v is [[g11, q + lam t], [conj(q) + lam t,
    # g22 + lam^2]]; twice its smaller eigenvalue is
    # g11 + g22 + lam^2 - hypot(g11 - g22 - lam^2, 2 |q + lam t|)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a, b = _colsq(X), _colsq(LX)
        q = np.einsum("ij,ij->j", HX.conj(), MX) / np.sqrt(a * b)
        g11 = (_colsq(HX) + b) / a
        g22 = _colsq(MX) / b
        t = np.sqrt(b / a)
        lam2 = (lams * lams)[:, None]
        gap = (g11 - g22) - lam2
        off = np.multiply.outer(2 * lams, t)
        off += 2 * q.real
        disc = gap * gap + off * off
        if q.dtype.kind == "c":
            disc += 4 * q.imag * q.imag
        # |.| turns a -inf from an overflowing disc into +inf, and rounding
        # below zero into a value the allowance already covers
        low = np.fmin.reduce(np.abs((g11 + g22) + lam2 - np.sqrt(disc)), axis=1)
        bound = np.sqrt(low / 2 + margin * scale)
    return np.fmin(bound, cap) + margin


def _colsq(A) -> np.ndarray:
    # squared Euclidean norms of the columns of A
    return np.einsum("ij,ij->j", A.conj(), A).real


def _pencil_vectors(H, L, triangular=False):
    """The finite eigenvectors of ``H x = nu L*L x`` as columns; None for ``L = 0``.

    When ``L = QR`` has full column rank, ``L*L = R*R`` and the pencil is
    ``eigh`` of ``R^-* H R^-1``; the QR costs a fraction of an SVD with
    vectors.  A ``triangular`` L, the R factor of the thin frame's W
    (``_border_block``), is its own R.  Otherwise it is solved in the
    frame of ``L = U S W*``:
    ``W1`` spans the row space of ``L`` and ``W2`` its null space, which
    the Schur complement of ``H22 = W2* H W2`` eliminates, leaving ``eigh``
    of ``S1^-1 (H11 - H12 H22^-1 H21) S1^-1``.  Eigenvalues of ``H22`` at
    rounding level are left out of its inverse, which drops those
    directions from the elimination.  Every ``x`` is a valid test vector,
    so a poor eigensolve only loosens the bounds.
    """
    p, r = L.shape
    if p >= r:
        # a diagonal entry below 1e-8 of the largest flags an L that may
        # lack full column rank, which the SVD frame handles
        R = L if triangular else np.linalg.qr(L, mode="r")
        d = np.abs(np.diagonal(R))
        if d.min() > d.max() * 1e-8:
            Ri = np.linalg.inv(R)
            return Ri @ np.linalg.eigh(_herm(Ri.conj().T @ H @ Ri))[1]
    _, s, Wh = np.linalg.svd(L, full_matrices=p < r)
    k = int(np.count_nonzero(s > s[0] * max(p, r) * np.finfo(float).eps))
    if k == 0:
        return None
    W = Wh.conj().T
    G = _herm(Wh @ H @ W)
    S1 = s[:k]
    schur, X = G[:k, :k], W[:, :k]
    if k < r:
        # eliminate the null space of L through the Schur complement of H22
        e, E = np.linalg.eigh(G[k:, k:])
        keep = np.abs(e) > np.abs(e).max() * r * np.finfo(float).eps
        K = (E[:, keep] / e[keep]) @ (E[:, keep].conj().T @ G[k:, :k])
        schur, X = schur - G[:k, k:] @ K, X - W[:, k:] @ K
    return X @ (np.linalg.eigh(_herm(schur / S1[:, None] / S1))[1] / S1[:, None])


def solve_invertible_hermitian(X, Y, tol: TolerancePolicy | None = None) -> TargetingSolution:
    """Hermitian and invertible: the bordered construction with a searched scalar.

    ``det [[H, L*], [L, lam I]]`` vanishes for at most ``r`` values of
    ``1/lam``, and ``_lambda_candidates`` lists at least ``2(r + 1)``
    distinct values (magnitudes derived from ``|H|`` and ``|L|``, both
    signs, each listed once), so a nonsingular choice must exist; the
    candidate maximizing the smallest singular value of ``B`` wins, the
    first one listed on a tie.

    ``B`` is Hermitian bit for bit, so a candidate's score is the smallest
    eigenvalue modulus from an ``eigvalsh`` of the ``m x m`` matrix ``B``.
    That is still the search's cost, so it first bounds every candidate's
    ``sigma_min`` from above without one (``_sigma_min_bounds``).  The
    finite eigenvectors ``x`` of the Hermitian pencil ``H x = nu L*L x``,
    from an ``eigh`` of at most ``r x r``, give for each candidate the
    best test vector in ``span{[x; 0], [0; L x]}``, small where ``lam`` is
    near ``1 / nu``; when ``L`` has more rows than columns, ``|lam|`` caps
    every bound.  In the thin frame of X's reduced QR with ``m - n > n``,
    the search scores the 2n x 2n compressed block (``_border_block``),
    and ``|lam|``, the eigenvalue it leaves out, caps the score and floors
    ``sigma_max``.
    The bound holds for any test vector, so a poor eigensolve only
    loosens it.  Candidates are scored in decreasing-bound order, and the
    search stops once the best score exceeds every remaining bound, each
    widened to cover the rounding of the bound and of the scoring.
    Every candidate left unscored would have scored strictly below the
    winner, so ``lam``, ``A`` and every error are those of scoring all
    candidates.

    The search runs on ``H`` and ``L`` divided by a power of two near their
    largest entry, so scaling ``Y`` by a power of two scales ``lam`` and ``A`` exactly.

    A best candidate below ``residual_tol * |B|`` means the data is too
    badly conditioned to certify, and that is reported as a search
    failure rather than infeasibility.
    """
    pair = _require_feasible(INVERTIBLE_HERMITIAN, X, Y, tol)
    return _bordered_solution(INVERTIBLE_HERMITIAN, pair, _searched_border)


def _searched_border(H, L, tol, rows=None):
    # rows: the row count of the block that L stands for (_border_block);
    # more rows than L has adds lam to B's spectrum, which the score counts
    if not len(L):
        return None
    top = np.maximum(np.abs(H).max(), np.abs(L).max())
    if not np.isfinite(top):
        raise LambdaSearchError("no usable bordering scalar: a block overflows")
    # exact division by a power of two, taking top into [1, 2): the power
    # that would take it into [0.5, 1) is 2**1024 for top >= 2**1023
    scale = 2.0 ** (int(np.frexp(top)[1]) - 1)
    H, L = H / scale, L / scale
    candidates = _lambda_candidates(H, L, H.shape[0])
    if not candidates:
        raise LambdaSearchError("no usable bordering scalar: both blocks vanish")
    bounds = _sigma_min_bounds(H, L, candidates, rows)
    capped = rows is not None and rows > len(L)
    best_smin, best_smax, best = -1.0, 0.0, len(candidates)
    for i in sorted(range(len(candidates)), key=lambda i: -bounds[i]):
        if best_smin > bounds[i]:
            break
        # B is Hermitian bit for bit, so its singular values are the moduli
        # of its eigenvalues, at about half the cost of an SVD
        w = np.abs(np.linalg.eigvalsh(_bordered(H, L, candidates[i])))
        smin, smax = float(w.min()), float(w.max())
        if capped:
            smin, smax = min(smin, abs(candidates[i])), max(smax, abs(candidates[i]))
        if smin > best_smin or (smin == best_smin and i < best):
            best_smin, best_smax, best = smin, smax, i
    if best_smin <= tol.residual_tol * best_smax:
        raise LambdaSearchError(
            f"every candidate left the completion nearly singular "
            f"(best sigma_min/sigma_max = {best_smin / best_smax:.3e})"
        )
    return candidates[best] * scale


def solve_psd(X, Y, tol: TolerancePolicy | None = None) -> TargetingSolution:
    """Positive semidefinite targeting via the smallest workable border.

    The border scalar is the largest eigenvalue of ``L H† L*`` (zero if
    that is negative), the least ``lam`` whose Schur complement
    ``lam I - L H† L*`` is positive semidefinite.  ``H†`` comes from one
    ``eigh`` of the Hermitian ``H``, keeping the eigenpairs whose moduli
    clear the rank cutoff an SVD of ``H`` would apply, or is ``H^-1``
    where one Cholesky certifies that all of them do.  A solve takes one
    SVD, X's, or none where X's QR frames the construction, when the
    certificate's Weyl bound shows ``X* Y`` nonsingular, and one more of
    ``X* Y`` for its null space when it does not.  No
    congruence is formed here: the audit in ``_finalize`` certifies ``A``
    positive semidefinite.
    """
    pair = _require_feasible(POSITIVE_SEMIDEFINITE, X, Y, tol)
    return _bordered_solution(POSITIVE_SEMIDEFINITE, pair, _psd_border)


def _psd_border(H, L, tol, rows=None):
    """The largest eigenvalue of ``L H† L*``, or zero if that is negative.

    ``H†`` comes from one ``eigh`` of the Hermitian ``H = E diag(w) E*``:
    the moduli ``|w|`` are its singular values, so the eigenpairs kept are
    those above the rank cutoff ``_partition`` applies, and a numerically
    zero H keeps none.  Where one Cholesky of ``H - t I`` certifies that
    every eigenvalue ``eigh`` would compute clears that cutoff
    (``feasibility._cholesky_bound``), ``H† = H^-1`` and the border is the
    pd rule's ``_schur_top`` instead, without the eigenvectors.  L enters
    only through the nonzero eigenvalues of ``L H† L*``, which the thin
    frame's ``L~`` shares, so ``rows`` is not read.
    """
    if not len(L):
        return None
    if is_zero_matrix(H, tol):
        return 0.0
    if _cholesky_bound(H, tol.rank_rel_cutoff * len(H), tol) is not None:
        return max(0.0, _schur_top(H, L))
    w, E = np.linalg.eigh(H)
    moduli = np.abs(w)
    keep = moduli > tol.rank_cutoff(float(moduli.max()), *H.shape)
    K = L @ E[:, keep]
    M = _herm((K / w[keep]) @ K.conj().T)
    return max(0.0, float(np.linalg.eigvalsh(M)[-1]))


def solve_pd(X, Y, tol: TolerancePolicy | None = None) -> TargetingSolution:
    """Positive definite targeting: border strictly above the PSD threshold.

    Feasibility makes ``H`` positive definite; ``lam`` exceeds the
    largest eigenvalue of ``L H^{-1} L*`` by a factor of two plus an
    absolute unit, so the Schur complement keeps a quantified margin.
    """
    pair = _require_feasible(POSITIVE_DEFINITE, X, Y, tol)
    return _bordered_solution(POSITIVE_DEFINITE, pair, _pd_border)


def _pd_border(H, L, tol, rows=None):
    # twice the largest eigenvalue of L H^-1 L*, plus one.  For a positive
    # definite H that matrix is positive semidefinite, and the thin frame's
    # L~ H^-1 L~* has its nonzero eigenvalues, so rows is not read
    if not len(L):
        return None
    return 2.0 * _schur_top(H, L) + 1.0


def _schur_top(H, L) -> float:
    # the largest eigenvalue of herm(L H^-1 L*), H nonsingular
    try:
        K = np.linalg.solve(H, L.conj().T)
    except np.linalg.LinAlgError:  # an H that underflowed to exact singularity
        raise NumericFailureError("the leading block is exactly singular") from None
    return float(np.linalg.eigvalsh(_herm(L @ K))[-1])


def _unitary_completion(pair):
    f, blocks = _completion(pair)
    return f, _complete_orthonormal(_nearest_orthonormal(blocks.B1))


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
    return _finalize(_in_frame(f.V, B), UNITARY, pair, {"completion": B[:, f.rank :]})



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
    source_frame = _complete_orthonormal(f.V1)
    target_frame = _complete_orthonormal(_nearest_orthonormal(pair.Y @ f.W1 / f.sigma))
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


def _two_point(pair, lam, mu) -> np.ndarray:
    # lam I + (mu - lam) P, with P the projector onto col D for D = lam X - Y:
    # feasibility makes col D orthogonal to col(Y - mu X), so A X = Y.  D is
    # ranked against the pair, not against itself, so a D at rounding level
    # reads as rank 0 rather than as a noise range
    X, Y = pair.X, pair.Y
    scale = max(abs(lam) * _fro(X), _fro(Y))
    P = _partition(lam * X - Y, pair.tol, scale).projector()
    return lam * np.eye(X.shape[0]) + (mu - lam) * P


def solve_reflection(X, Y, tol: TolerancePolicy | None = None) -> TargetingSolution:
    """Reflection (Hermitian involution) targeting: ``A = I - 2 P``.

    ``P`` projects onto ``col(X - Y)``, ranked against the pair, so a
    difference at rounding level gives ``A = I``.  Feasibility makes
    ``col(X + Y)`` orthogonal to ``col(X - Y)``, so ``A`` fixes the sum
    and negates the difference.  That orthogonality is not re-asserted
    here: ``A X - Y = -P (X + Y)``, so the audit's targeting residual
    measures exactly how far it fails.  For a single column this is a
    scalar multiple pattern of the classical elementary reflector.
    """
    pair = _require_feasible(REFLECTION, X, Y, tol)
    return _finalize(_two_point(pair, 1.0, -1.0), REFLECTION, pair, {})


def solve_projection(X, Y, tol: TolerancePolicy | None = None) -> TargetingSolution:
    """Orthogonal-projection targeting: project onto the target's range."""
    pair = _require_feasible(ORTHOGONAL_PROJECTION, X, Y, tol)
    A = _partition(pair.Y, pair.tol).projector()
    return _finalize(A, ORTHOGONAL_PROJECTION, pair, {})


def solve_complex_symmetric(
    X, Y, G_free=None, tol: TolerancePolicy | None = None
) -> TargetingSolution:
    """Complex-symmetric targeting via the transposed coordinate frame.

    In the frame ``F = [[S1, S2^T], [S2, G]]`` with ``S1`` forced
    symmetric by feasibility, ``A = conj(V) F V*`` is symmetric and
    targets Y for every complex symmetric corner ``G`` (default 0).
    """
    pair = _require_feasible(COMPLEX_SYMMETRIC, X, Y, tol, svd_frame=True)
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
            sym_dev = _asymmetry(G, transpose=True)
            if sym_dev > pair.tol.sym_tol:
                raise BadFreeParameterError(
                    f"G_free must be complex symmetric (deviation {sym_dev:.3e})"
                )
        F = _block2(S1, S2.T, S2, G)
    A = f.V.conj() @ F @ f.V.conj().T
    return _finalize(A, COMPLEX_SYMMETRIC, pair, {"G": G})


def solve_normal_two_point(X, Y, lam, mu, tol: TolerancePolicy | None = None) -> TargetingSolution:
    """Normal targeting with spectrum in ``{lam, mu}``: ``A = lam I + (mu - lam) P``.

    ``P`` projects onto ``col(lam X - Y)``, the ``mu``-eigenspace; the
    rest of the space, which holds ``col(Y - mu X)`` by feasibility, gets
    the ``lam`` eigenvalue.  The range is ranked against the pair, so a
    difference at rounding level gives ``A = lam I``.  Real data with real
    eigenvalues stays real.  The square-invertible corner where the target
    is a scalar multiple of the source is refused with the forced scalar
    in the error payload.
    """
    prop = normal_two_point(lam, mu)
    pair = _require_feasible(prop, X, Y, tol)
    lam, mu = prop.lam, prop.mu
    if lam.imag == 0 and mu.imag == 0:
        lam, mu = lam.real, mu.real
    if pair.x_is_zero:
        return _degenerate_identity(prop, pair, scale=lam)
    return _finalize(_two_point(pair, lam, mu), prop, pair, {})


def solve_normal_vector(x, y, tol: TolerancePolicy | None = None) -> TargetingSolution:
    """Normal targeting for single-column data: a scaled unitary.

    Sends ``x/|x|`` to ``y/|y|`` unitarily and multiplies by the norm
    ratio; scalar multiples of unitaries are normal.
    """
    x = as_matrix(x, "x")  # so that bad input is reported as x or y
    y = as_matrix(y, "y")
    pair = _require_feasible(NORMAL_VECTOR, x, y, tol)
    norm_x, norm_y = _fro(x), _fro(y)
    if not (np.isfinite(norm_x) and np.isfinite(norm_y)):
        raise NumericFailureError(f"the norm of x or y overflows (|x| = {norm_x:.3e}, |y| = {norm_y:.3e})")
    # unit vectors have equal Gram matrices: solve_unitary's construction
    # applies without its certificate
    f, B = _unitary_completion(_Pair(x / norm_x, y / norm_y, pair.tol))
    U = as_matrix(_in_frame(f.V, B), "A")  # stored as a returned matrix is
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
    M = Bh @ B - B @ Bh + C.conj().T @ C
    return _herm(M), _semidefinite(M, tol, "gap-psd").satisfied
