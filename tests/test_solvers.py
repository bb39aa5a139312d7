import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import targetkit

from targetkit import (
    COMPLETION_GAP_NOTE,
    COMPLEX_SYMMETRIC,
    DEFAULT_TOL,
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
    BadFreeParameterError,
    InfeasibleError,
    LambdaSearchError,
    NumericFailureError,
    RankProvisoError,
    ShapeError,
    TargetkitError,
    TolerancePolicy,
    ZeroMatrixError,
    ZeroTargetError,
    ZeroVectorError,
    check,
    completion_blocks,
    completion_gap,
    normal_two_point,
    solve_complex_symmetric,
    solve_hermitian,
    solve_invertible,
    solve_invertible_hermitian,
    solve_normal_two_point,
    solve_normal_vector,
    solve_pd,
    solve_projection,
    solve_psd,
    solve_reflection,
    solve_unconstrained,
    solve_unitary,
    solve_unitary_polar,
    verify_property,
    verify_targeting,
)
from _cholesky_rule import decline_point
from targetkit import InstanceSpec, feasibility, generate_instance, solvers, sources
from targetkit.linalg import _partition, as_matrix
from targetkit.solvers import _bordered, _lambda_candidates, _psd_border, _searched_border, _sigma_min_bounds

COL = lambda *vals: np.array(vals, dtype=float).reshape(-1, 1)

E1 = COL(1, 0)
E2 = COL(0, 1)


def assert_solution(sol, X, Y, prop):
    assert verify_targeting(sol.A, X, Y) <= 1e-9
    assert verify_property(sol.A, prop).passed
    assert sol.residual <= 1e-9


def reflected_pair(field, tilt=0.0):
    # Y = (I - 2 v v*) X for a unit v orthogonal to col X, leaning into it
    # by tilt; at tilt 0, Y equals X up to rounding.  At tilt 1e-5 these
    # seeds leave rounding noise in X - Y above its own rank cutoff
    rng = np.random.default_rng(8 if field == "real" else 31)
    X = rng.standard_normal((6, 3))
    if field == "complex":
        X = X + 1j * rng.standard_normal((6, 3))
    Q = np.linalg.qr(X, mode="complete")[0]
    v = (Q[:, 3] + tilt * Q[:, 0]).reshape(-1, 1)
    v /= np.linalg.norm(v)
    return X, (np.eye(6) - 2 * v @ v.conj().T) @ X


def one_eigenspace_pair(field, c, lam, mu):
    # X = c G with col G inside one eigenspace of the witness, so Y = X up to
    # rounding and one of Y - lam X, Y - mu X is rounding noise.  The witness
    # is the projector Q Q* onto col [G, g] for spectrum {1, 0}, and the
    # reflector I - 2 v v* with v orthogonal to col G for {1, -1}; the class
    # of the same spectrum is the companion whose verdict must agree
    rng = np.random.default_rng(1)

    def draw(shape):
        G = rng.standard_normal(shape)
        return G + 1j * rng.standard_normal(shape) if field == "complex" else G

    G, g = draw((5, 2)), draw((5, 1))
    if {lam, mu} == {1, 0}:
        Q = np.linalg.qr(np.hstack([G, g]))[0]
        A, companion = Q @ Q.conj().T, ORTHOGONAL_PROJECTION
    else:
        v = np.linalg.qr(G, mode="complete")[0][:, 2:3]
        A, companion = np.eye(5) - 2 * v @ v.conj().T, REFLECTION
    X = c * G
    return X, A @ X, companion


class TestCompletionBlocks:
    def test_partition_shapes_and_rank_identity(self):
        rng = np.random.default_rng(1)
        for seed in range(25):
            m = int(rng.integers(1, 6))
            n = int(rng.integers(1, m + 1))
            spec = InstanceSpec(property=HERMITIAN, m=m, n=n, seed=seed, field="complex")
            X, Y, _ = generate_instance(spec)
            f, blocks = completion_blocks(X, Y)
            r = f.rank
            assert blocks.Z.shape == (m, r)
            assert blocks.H.shape == (r, r)
            assert blocks.L.shape == (m - r, r)
            # feasible pairs have equal null spaces, so the first block
            # carries the full rank of the target
            from targetkit import numerical_rank

            assert numerical_rank(blocks.B1) == numerical_rank(Y)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            completion_blocks(np.eye(2), np.eye(3))

    def test_zero_source_rejected(self):
        with pytest.raises(ZeroMatrixError):
            completion_blocks(np.zeros((2, 2)), np.zeros((2, 2)))


class TestUnconstrained:
    def test_minimal_norm_solution_frozen(self):
        X = np.array([[1.0, 0.0], [0.0, 0.0]])
        sol = solve_unconstrained(X, 2.0 * X)
        assert np.allclose(sol.A, np.array([[2.0, 0.0], [0.0, 0.0]]), atol=1e-14)

    def test_free_term_spans_null_range(self):
        rng = np.random.default_rng(2)
        X = np.array([[1.0], [0.0]])
        Y = np.array([[3.0], [4.0]])
        for _ in range(20):
            Z = rng.standard_normal((2, 2))
            sol = solve_unconstrained(X, Y, Z_free=Z)
            assert_solution(sol, X, Y, UNCONSTRAINED)

    def test_bad_free_parameter_shape(self):
        with pytest.raises(BadFreeParameterError):
            solve_unconstrained(E1, E2, Z_free=np.eye(3))

    def test_infeasible_raises_with_report(self):
        X = np.array([[1.0, 0.0], [0.0, 0.0]])
        Y = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(InfeasibleError) as exc:
            solve_unconstrained(X, Y)
        assert "null-space-inclusion" in str(exc.value)
        assert not exc.value.report.feasible

    def test_zero_source_zero_target(self):
        sol = solve_unconstrained(np.zeros((2, 2)), np.zeros((2, 2)))
        assert np.array_equal(sol.A, np.zeros((2, 2)))


class TestUnconstrainedCompleteness:
    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("m,n,rank", [(5, 3, 3), (5, 5, 5), (5, 4, 2)])
    def test_z_free_returns_every_solution(self, m, n, rank, field):
        # Y X† + Z (I - X X†) with Z = A gives back any A that targets Y
        rng = np.random.default_rng(3)

        def draw(shape):
            G = rng.standard_normal(shape)
            return G + 1j * rng.standard_normal(shape) if field == "complex" else G

        X = draw((m, rank)) @ draw((rank, n))
        for _ in range(5):
            A_true = draw((m, m))
            A = solve_unconstrained(X, A_true @ X, Z_free=A_true).A
            assert np.linalg.norm(A - A_true) <= 1e-10 * np.linalg.norm(A_true)


class TestInvertible:
    def test_rotation_frozen(self):
        sol = solve_invertible(E1, E2)
        assert np.allclose(sol.A, np.array([[0.0, -1.0], [1.0, 0.0]]), atol=1e-14)
        assert_solution(sol, E1, E2, INVERTIBLE)

    def test_rank_deficient_pairs(self):
        for seed in range(10):
            spec = InstanceSpec(
                property=INVERTIBLE, m=5, n=4, seed=seed, field="complex", rank_deficiency=2
            )
            X, Y, _ = generate_instance(spec)
            sol = solve_invertible(X, Y)
            assert_solution(sol, X, Y, INVERTIBLE)

    def test_vanishing_first_block_is_not_invalid_input(self):
        # a feasible finite pair whose first block B1 = 1e-170 reads as zero
        X, Y = np.diag([1e20, 0.0]), np.diag([1e-150, 0.0])
        assert check(INVERTIBLE, X, Y).feasible
        try:
            assert_solution(solve_invertible(X, Y), X, Y, INVERTIBLE)
        except NumericFailureError:
            pass


class TestHermitian:
    def test_swap_pair_frozen(self):
        sol = solve_hermitian(E1, E2)
        assert np.allclose(sol.A, np.array([[0.0, 1.0], [1.0, 0.0]]), atol=1e-14)
        assert sol.free_params["lam"] == 0.0

    def test_lambda_free_moves_border(self):
        for lam in [-2.0, 0.5, 3.0]:
            sol = solve_hermitian(E1, E2, lambda_free=lam)
            assert sol.A[1, 1] == pytest.approx(lam)
            assert_solution(sol, E1, E2, HERMITIAN)

    def test_complex_lambda_rejected(self):
        with pytest.raises(BadFreeParameterError):
            solve_hermitian(E1, E2, lambda_free=1.0j)

    def test_non_numeric_lambda_rejected(self):
        with pytest.raises(BadFreeParameterError, match="must be a real scalar"):
            solve_hermitian(np.eye(2), np.eye(2), lambda_free="abc")

    @pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf, complex(np.inf, 0.0)])
    def test_non_finite_lambda_rejected(self, lam):
        with pytest.raises(BadFreeParameterError):
            solve_hermitian(E1, E2, lambda_free=lam)

    def test_real_data_real_output(self):
        spec = InstanceSpec(property=HERMITIAN, m=4, n=2, seed=5, field="real")
        X, Y, _ = generate_instance(spec)
        sol = solve_hermitian(X, Y)
        assert not np.iscomplexobj(sol.A)


class TestInvertibleHermitian:
    def test_swap_pair_frozen_lambda_choice(self):
        sol = solve_invertible_hermitian(E1, E2)
        assert sol.free_params["lam"] == pytest.approx(0.5)
        assert np.allclose(sol.A, np.array([[0.0, 1.0], [1.0, 0.5]]), atol=1e-14)
        assert_solution(sol, E1, E2, INVERTIBLE_HERMITIAN)

    def test_full_rank_source_needs_no_border(self):
        X = np.eye(2)
        Y = np.array([[2.0, 1.0], [1.0, -1.0]])
        sol = solve_invertible_hermitian(X, Y)
        assert sol.free_params["lam"] is None
        assert np.allclose(sol.A, Y, atol=1e-14)

    def test_floor_failure_reported_not_hidden(self):
        loose = TolerancePolicy(residual_tol=1.0)
        with pytest.raises(LambdaSearchError):
            solve_invertible_hermitian(E1, E2, tol=loose)

    def test_vanishing_blocks_leave_no_candidate(self):
        # tolerances loose enough to certify a pair whose blocks H and L are both zero
        loose = TolerancePolicy(sym_tol=2, residual_tol=2)
        with pytest.raises(LambdaSearchError, match="no usable bordering scalar: both blocks vanish"):
            solve_invertible_hermitian(np.diag([1.0, 0.0]), np.array([[0.0, 1.0], [0.0, 0.0]]), tol=loose)

    def test_overflowing_block_norm_is_a_search_failure(self):
        # |L|^2 overflows as a float power; H itself is inf
        x, y = 1e-160 * np.ones((3, 1)), 1e153 * np.ones((3, 1))
        with np.errstate(over="ignore"), pytest.raises(LambdaSearchError, match="overflows"):
            solve_invertible_hermitian(x, y)


def _bordering_blocks(X, Y):
    # the blocks H and L that the Hermitian-family border rules read, and
    # the row count L stands for: None for the border block itself, in the
    # QR frame of a certified full-rank X or the SVD's; in the thin frame
    # of X's reduced QR, L is the n x n R factor of W = Q2 L, standing for
    # m - n rows (solvers._border_block)
    V, H, L = solvers._hermitian_blocks(feasibility._Pair(X, Y, None))
    return (H, *solvers._border_block(V, L))


def _score(H, L, lam, rows=None):
    """``sigma_min`` of the ``B`` whose blocks ``_bordering_blocks`` gives,
    by a full SVD: of ``_bordered(H, L, lam)``, and capped at ``|lam|``
    where ``rows`` puts ``lam`` into B's spectrum beyond the compressed
    block's, as the search scores it."""
    smin = float(np.linalg.svd(_bordered(H, L, lam), compute_uv=False)[-1])
    return min(smin, abs(lam)) if rows is not None and rows > len(L) else smin


def _exhaustive_lambda(H, L, r, rows=None):
    """Score every candidate with a full SVD; the first best one wins."""
    best, lam = -1.0, None
    for c in _lambda_candidates(H, L, r):
        smin = _score(H, L, c, rows)
        if smin > best:
            best, lam = smin, c
    return lam


def _c7_spec(t):
    # the pairs of acceptance criterion C7, seeds 70000-70199
    m = 2 + t % 6
    n, deficiency = [(m, 0), (m, 1), (m - 1, 0)][t % 3]
    return InstanceSpec(
        property=INVERTIBLE_HERMITIAN, m=m, n=n, seed=70_000 + t,
        field="complex" if t % 2 else "real", rank_deficiency=deficiency,
    )


def _small_border_pair(m, n, field, seed):
    # Hermitian witness whose off-diagonal block is small: |L| < |H| after completion
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((m, m))
    if field == "complex":
        G = G + 1j * rng.standard_normal((m, m))
    A = (G + G.conj().T) / 2
    A[n:, :n] *= 0.05
    A[:n, n:] *= 0.05
    X = np.vstack([np.diag(np.exp(rng.uniform(-0.7, 0.7, n))), np.zeros((m - n, n))])
    return X, A @ X


def assert_exhaustive_choice(X, Y):
    # the search's lam is the exhaustive choice on the same blocks, and its
    # A is the solver's own assembly from that lam, bit for bit
    sol = solve_invertible_hermitian(X, Y)
    V, H, W = solvers._hermitian_blocks(feasibility._Pair(X, Y, None))
    L, rows = solvers._border_block(V, W)
    if not len(L):
        assert sol.free_params["lam"] is None
        return
    lam = _exhaustive_lambda(H, L, len(H), rows)
    assert sol.free_params["lam"] == lam
    A = as_matrix(solvers._assemble(V, H, W, lam), "A")
    assert A.dtype == sol.A.dtype
    assert np.array_equal(sol.A, A)


class TestBorderingSearch:
    """The pruned search over ``_lambda_candidates`` against scoring every one."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(2, 16),
        data=st.data(),
        field=st.sampled_from(["real", "complex"]),
        scale=st.sampled_from([1e-6, 1.0, 1e6]),
    )
    def test_bound_holds_for_every_candidate(self, seed, m, data, field, scale):
        n = data.draw(st.integers(1, m), label="n")
        # a rank below m, so the border exists; n close to m gives m - r < r
        deficiency = data.draw(st.integers(1 if n == m else 0, n - 1), label="deficiency")
        spec = InstanceSpec(property=INVERTIBLE_HERMITIAN, m=m, n=n, seed=seed, field=field,
                            rank_deficiency=deficiency)
        X, Y, _ = generate_instance(spec)
        H, L, rows = _bordering_blocks(X, scale * Y)
        assert len(H) < m
        candidates = _lambda_candidates(H, L, len(H))
        bounds = _sigma_min_bounds(H, L, candidates, rows)
        assert bounds.shape == (len(candidates),)
        for lam, bound in zip(candidates, bounds):
            smin = _score(H, L, lam, rows)
            assert bound >= smin, (lam, bound, smin)

    def test_bound_holds_on_swap_pair(self):
        # H = 0: the pencil (L*L, H) has no finite eigenvalue
        H, L, _ = _bordering_blocks(E1, E2)
        assert np.array_equal(H, np.zeros((1, 1)))
        candidates = _lambda_candidates(H, L, len(H))
        bounds = _sigma_min_bounds(H, L, candidates)
        assert np.all(np.isfinite(bounds))
        for lam, bound in zip(candidates, bounds):
            assert bound >= np.linalg.svd(_bordered(H, L, lam), compute_uv=False)[-1]

    def test_c7_corpus_choice_unchanged(self):
        for t in range(200):
            X, Y, _ = generate_instance(_c7_spec(t))
            assert_exhaustive_choice(X, Y)

    @pytest.mark.parametrize("W", [np.diag([2.0, -1.0, 3.0]),
                                   np.array([[2.0, 1j, 0.0], [-1j, -1.0, 0.0], [0.0, 0.0, 3.0]])],
                             ids=["real", "complex"])
    def test_zero_border_keeps_choice(self, W):
        # W maps col X into itself, so L = 0: the pencil H x = nu L*L x has no
        # finite eigenvector, and with no more rows than columns in L every
        # candidate keeps the infinite cap, so the search scores them all
        X = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        Y = W @ X
        H, L, rows = _bordering_blocks(X, Y)
        assert (len(H), L.shape, rows) == (2, (1, 2), None) and not L.any()
        assert solvers._pencil_vectors(H, L) is None
        assert np.isinf(_sigma_min_bounds(H, L, _lambda_candidates(H, L, len(H)))).all()
        assert_exhaustive_choice(X, Y)

    def test_zero_pencil_eigenvalue_keeps_choice(self):
        # C7 seed 70146: m = 4, r = 3, so L is 1 x 3 and L*L has a null space;
        # its pencil pairs have mu ~ 0, L x ~ 0 and a test vector z ~ 0
        X, Y, _ = generate_instance(_c7_spec(146))
        H, L, _ = _bordering_blocks(X, Y)
        assert (len(H), L.shape) == (3, (1, 3))
        assert_exhaustive_choice(X, Y)

    @pytest.mark.parametrize(
        "n,field,deficiency",
        [(32, "real", 0), (32, "complex", 0), (48, "real", 0), (16, "complex", 0), (64, "real", 8)],
    )
    def test_m64_choice_unchanged(self, n, field, deficiency):
        spec = InstanceSpec(property=INVERTIBLE_HERMITIAN, m=64, n=n, seed=71_000 + n,
                            field=field, rank_deficiency=deficiency)
        X, Y, _ = generate_instance(spec)
        assert_exhaustive_choice(X, Y)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_m64_small_border_choice_unchanged(self, field):
        X, Y = _small_border_pair(64, 32, field, seed=72_064)
        H, L, _ = _bordering_blocks(X, Y)
        assert np.linalg.norm(L, 2) < np.linalg.norm(H, 2)
        assert_exhaustive_choice(X, Y)

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("scale", [1e-150, 1e150])
    def test_candidates_at_extreme_finite_scale(self, scale, field):
        # squared block norms near 1e-300 and 1e300 stay finite, and every
        # candidate scales with the pair
        spec = InstanceSpec(property=INVERTIBLE_HERMITIAN, m=4, n=2, seed=73_000, field=field,
                            rank_deficiency=1)
        X, Y, _ = generate_instance(spec)
        H, L, _ = _bordering_blocks(X, Y)
        H_s, L_s, _ = _bordering_blocks(X, scale * Y)
        candidates = _lambda_candidates(H, L, len(H))
        scaled = _lambda_candidates(H_s, L_s, len(H))
        assert len(scaled) == len(candidates) == 4 * (len(H) + 1)
        assert np.allclose(np.array(scaled) / scale, candidates, rtol=1e-12, atol=0)



class TestBorderingScale:
    """The search runs on the blocks divided by a power of two near their size."""

    @pytest.mark.parametrize("k", [-500, -200, 200, 500])
    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("seed", [73_000, 73_001, 73_002, 70_146])
    @pytest.mark.parametrize("m,n,deficiency", [(4, 2, 1), (6, 3, 1), (8, 8, 3), (16, 8, 0)])
    def test_power_of_two_scaling_is_exact(self, m, n, deficiency, seed, field, k):
        X, Y, _ = generate_instance(InstanceSpec(INVERTIBLE_HERMITIAN, m, n, seed, field, deficiency))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve_invertible_hermitian(X, Y)
            scaled = solve_invertible_hermitian(X, 2.0**k * Y)
        assert scaled.free_params["lam"] == 2.0**k * sol.free_params["lam"]
        assert np.array_equal(scaled.A, 2.0**k * sol.A)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_small_scale_keeps_the_best_candidate(self, field):
        # at 1e-150 the bounds computed on the raw blocks fell below the
        # candidates' sigma_min and pruned the best one; the exhaustive
        # scorer on the raw blocks may differ from the search in the last bit
        X, Y, _ = generate_instance(InstanceSpec(INVERTIBLE_HERMITIAN, 4, 2, 73_000, field, 1))
        H, L, _ = _bordering_blocks(X, 1e-150 * Y)
        lam = solve_invertible_hermitian(X, 1e-150 * Y).free_params["lam"]
        assert lam == pytest.approx(_exhaustive_lambda(H, L, len(H)), rel=1e-12, abs=0)

    @pytest.mark.parametrize("field,scale", [("real", 1e100), ("complex", 1e100), ("complex", 1e150)])
    def test_large_scale_raises_no_overflow_warning(self, field, scale):
        X, Y, _ = generate_instance(InstanceSpec(INVERTIBLE_HERMITIAN, 4, 2, 73_000, field, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_solution(solve_invertible_hermitian(X, scale * Y), X, scale * Y, INVERTIBLE_HERMITIAN)

    def test_border_block_past_squared_overflow_has_a_candidate(self):
        # |L|^2 = 1e320 is not a float, but |L| is; the search no longer refuses
        H, L, _ = _bordering_blocks(np.array([[1e-80], [0.0]]), np.array([[0.0], [1e80]]))
        lam = _searched_border(H, L, DEFAULT_TOL)
        s = np.linalg.svd(_bordered(H, L, lam), compute_uv=False)
        assert np.isfinite(lam) and s[-1] > DEFAULT_TOL.residual_tol * s[0]

    def test_block_entry_past_2_to_1023_is_searched(self):
        # 1e308 has binary exponent 1024, and 2.0**1024 is no float
        assert np.isfinite(_searched_border(np.array([[1.0]]), np.array([[1e308]]), DEFAULT_TOL))


def _bounds_against_svd(H, L, r, rows=None):
    """Every candidate's bound and its computed ``sigma_min`` (``_score``),
    checked to hold."""
    candidates = _lambda_candidates(H, L, r)
    bounds = _sigma_min_bounds(H, L, candidates, rows)
    for lam, bound in zip(candidates, bounds):
        smin = _score(H, L, lam, rows)
        assert bound >= smin, (lam, bound, smin)
    return candidates, bounds


class TestPencilBounds:
    """The pencil-vector bounds at the sizes and shapes the search prunes on."""

    @pytest.mark.parametrize("m,field,seed", [(64, "real", 74_064), (64, "complex", 74_065),
                                              (96, "real", 74_098), (96, "complex", 74_097)])
    def test_bound_holds_with_large_border(self, m, field, seed):
        X, Y, _ = generate_instance(InstanceSpec(INVERTIBLE_HERMITIAN, m, m // 2, seed, field, 0))
        H, L, rows = _bordering_blocks(X, Y)
        assert np.linalg.norm(L, 2) > np.linalg.norm(H, 2)
        _bounds_against_svd(H, L, len(H), rows)

    @pytest.mark.parametrize("m", [64, 96])
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_bound_holds_with_small_border(self, m, field):
        X, Y = _small_border_pair(m, m // 2, field, seed=74_000 + m)
        H, L, rows = _bordering_blocks(X, Y)
        assert np.linalg.norm(L, 2) < np.linalg.norm(H, 2)
        _bounds_against_svd(H, L, len(H), rows)

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("p,r,rank", [(6, 6, 3), (2, 5, 1), (8, 4, 2)])
    def test_bound_holds_with_exactly_singular_null_block(self, p, r, rank, field):
        # H = 0, so W2* H W2 = 0 on the null space of the rank-deficient L
        rng = np.random.default_rng(74_100 + 10 * p + r)

        def low_rank():
            return rng.standard_normal((p, rank)) @ rng.standard_normal((rank, r))

        L = low_rank() + 1j * low_rank() if field == "complex" else low_rank()
        H = np.zeros((r, r), dtype=L.dtype)
        _, bounds = _bounds_against_svd(H, L, r)
        assert np.all(np.isfinite(bounds))

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("m,n", [(32, 4), (32, 8), (64, 4), (64, 8)])
    def test_thin_source_caps_every_bound_at_lam(self, m, n, field):
        # L has m - n > n rows, so some y has L* y = 0 and |B [0; y]| = |lam| |y|:
        # B holds lam with multiplicity m - 2n beside the compressed block of
        # the thin frame's n x n L~, and |lam| caps every bound and every
        # score of the compressed search
        X, Y, _ = generate_instance(InstanceSpec(INVERTIBLE_HERMITIAN, m, n, 74_200 + m + n, field, 0))
        H, L, rows = _bordering_blocks(X, Y)
        assert L.shape == (n, n) and rows == m - n > n
        candidates, bounds = _bounds_against_svd(H, L, len(H), rows)
        lams = np.abs(candidates)
        margin = 32 * m * np.finfo(float).eps * (np.linalg.norm(H) + np.linalg.norm(L) + lams)
        assert np.all(bounds <= lams + margin * (1 + 1e-12))
        assert_exhaustive_choice(X, Y)

    def test_scored_candidates_stay_pinned(self, monkeypatch):
        # _bordered calls (each scored candidate plus the construction in a
        # unitary frame) on the C7 corpus and the m = 64 instances above; a
        # looser bound raises them, and so does listing a candidate's last-bit
        # twin.  The five thin-frame pairs (64 x 32 and 64 x 16 of full rank)
        # assemble A without a bordered matrix, and score the 140 candidates
        # of the seven pairs as before
        calls = Counter()
        bordered = solvers._bordered

        def counted(H, L, lam):
            calls[corpus] += 1
            return bordered(H, L, lam)

        monkeypatch.setattr(solvers, "_bordered", counted)
        corpus = "C7"
        for t in range(200):
            solve_invertible_hermitian(*generate_instance(_c7_spec(t))[:2])
        corpus = "m64"
        for n, field, deficiency in [(32, "real", 0), (32, "complex", 0), (48, "real", 0),
                                     (16, "complex", 0), (64, "real", 8)]:
            spec = InstanceSpec(INVERTIBLE_HERMITIAN, 64, n, 71_000 + n, field, deficiency)
            solve_invertible_hermitian(*generate_instance(spec)[:2])
        for field in ("real", "complex"):
            solve_invertible_hermitian(*_small_border_pair(64, 32, field, seed=72_064))
        assert calls == {"C7": 978, "m64": 142}


def _scores_against_bounds(H, L, r, rows=None):
    """Each candidate's ``eigvalsh`` score under its bound, and within the
    bound's margin of the SVD score (both capped as ``_score`` caps)."""
    candidates = _lambda_candidates(H, L, r)
    bounds = _sigma_min_bounds(H, L, candidates, rows)
    m = r + (len(L) if rows is None else rows)
    for lam, bound in zip(candidates, bounds):
        score = np.abs(np.linalg.eigvalsh(_bordered(H, L, lam))).min()
        if rows is not None and rows > len(L):
            score = min(score, abs(lam))
        smin = _score(H, L, lam, rows)
        margin = 32 * m * np.finfo(float).eps * (np.linalg.norm(H) + np.linalg.norm(L) + abs(lam))
        assert bound >= score, (lam, bound, score)
        assert abs(score - smin) <= margin, (lam, score, smin, margin)


class TestEigvalshScore:
    """The search scores a candidate by the eigenvalue moduli of the Hermitian ``B``."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(2, 16),
        data=st.data(),
        field=st.sampled_from(["real", "complex"]),
        scale=st.sampled_from([1e-6, 1.0, 1e6]),
    )
    def test_bound_covers_the_score(self, seed, m, data, field, scale):
        # the draws of TestBorderingSearch.test_bound_holds_for_every_candidate
        n = data.draw(st.integers(1, m), label="n")
        deficiency = data.draw(st.integers(1 if n == m else 0, n - 1), label="deficiency")
        spec = InstanceSpec(property=INVERTIBLE_HERMITIAN, m=m, n=n, seed=seed, field=field,
                            rank_deficiency=deficiency)
        X, Y, _ = generate_instance(spec)
        H, L, rows = _bordering_blocks(X, scale * Y)
        _scores_against_bounds(H, L, len(H), rows)

    @pytest.mark.parametrize("m,field,seed", [(64, "real", 74_064), (64, "complex", 74_065),
                                              (96, "real", 74_098), (96, "complex", 74_097)])
    def test_bound_covers_the_score_with_large_border(self, m, field, seed):
        X, Y, _ = generate_instance(InstanceSpec(INVERTIBLE_HERMITIAN, m, m // 2, seed, field, 0))
        H, L, rows = _bordering_blocks(X, Y)
        _scores_against_bounds(H, L, len(H), rows)

    @pytest.mark.parametrize("m", [64, 96])
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_bound_covers_the_score_with_small_border(self, m, field):
        X, Y = _small_border_pair(m, m // 2, field, seed=74_000 + m)
        H, L, rows = _bordering_blocks(X, Y)
        _scores_against_bounds(H, L, len(H), rows)

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("m,n,deficiency", [(4, 2, 1), (16, 8, 0), (64, 32, 0), (64, 48, 0)])
    def test_bordered_block_is_exactly_hermitian(self, m, n, deficiency, field):
        # eigvalsh reads one triangle, so the other must be its exact mirror;
        # == also holds where conj turns a diagonal imaginary 0.0 into -0.0
        X, Y, _ = generate_instance(InstanceSpec(INVERTIBLE_HERMITIAN, m, n, 75_000 + m, field, deficiency))
        H, L, _ = _bordering_blocks(X, Y)
        assert np.array_equal(H, H.conj().T)
        for lam in _lambda_candidates(H, L, len(H)):
            B = _bordered(H, L, lam)
            assert B.dtype == (complex if field == "complex" else float)
            assert np.array_equal(B, B.conj().T)
            assert B.real.tobytes() == B.real.T.copy().tobytes()

    def test_no_bordered_matrix_takes_an_svd(self, monkeypatch):
        # on the m = 64 corpus of TestPencilBounds.test_scored_candidates_stay_pinned:
        # the singular values of H and of L for the two spectral norms of
        # _lambda_candidates, and the pencil's frame of L where L has fewer
        # rows than columns; no bordered m x m matrix.  X and Y take an SVD
        # only where X is rank-deficient: a full-rank X is certified by one
        # Cholesky of its Gram matrix and framed by its QR, and leaves the
        # rank certificate of Y to one Cholesky of Y's Gram matrix
        pairs = [generate_instance(InstanceSpec(INVERTIBLE_HERMITIAN, 64, n, 71_000 + n, field, deficiency))[:2]
                 for n, field, deficiency in [(32, "real", 0), (32, "complex", 0), (48, "real", 0),
                                              (16, "complex", 0), (64, "real", 8)]]
        pairs += [_small_border_pair(64, 32, field, seed=72_064) for field in ("real", "complex")]
        ranks = [completion_blocks(X, Y)[0].rank for X, Y in pairs]
        calls = Counter()
        svd, norm = np.linalg.svd, np.linalg.norm

        def counting_svd(a, *args, **kwargs):
            if np.shape(a) == X.shape and np.array_equal(a, X):
                calls["X"] += 1
            elif np.shape(a) == Y.shape and np.array_equal(a, Y):
                calls["Y"] += 1
            elif not kwargs.get("compute_uv", True):
                calls["spectral norm"] += 1
            elif np.shape(a) == (64 - r, r):
                calls["L"] += 1
            else:
                calls[np.shape(a)] += 1
            return svd(a, *args, **kwargs)

        def counting_norm(x, ord=None, *args, **kwargs):
            if ord == 2 and np.ndim(x) == 2:
                calls["norm(ord=2)"] += 1
            return norm(x, ord, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        monkeypatch.setattr(np.linalg, "norm", counting_norm)
        for (X, Y), r in zip(pairs, ranks):
            calls.clear()
            solve_invertible_hermitian(X, Y)
            expected = {"spectral norm": 2, **({"L": 1} if 64 - r < r else {})}
            if r < min(X.shape):
                expected.update(X=1, Y=1)
            assert calls == expected, calls
        assert ranks == [32, 32, 48, 16, 56, 32, 32]


def _count_svds(monkeypatch, named):
    """A Counter of the SVDs taken while it is live, each under the name of
    the array in ``named`` that it factors, or under its shape."""
    calls = Counter()
    svd = np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        name = next((k for k, v in named.items() if np.shape(a) == v.shape and np.array_equal(a, v)), np.shape(a))
        calls[name] += 1
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    return calls


class TestCertificateFactorizations:
    """Which SVDs the rank certificates take: none in a check, when X and
    the product are of full rank, where one Cholesky certifies X at every
    size; X's in a solve below feasibility._QR_MIN_ROWS rows, whose
    construction reads it, and none from there up, where X's QR frames it;
    the fallback SVD otherwise."""

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("m,n", [(64, 32), (8, 8), (8, 4)])
    def test_full_rank_psd_check_takes_no_svd(self, monkeypatch, m, n, field):
        X, Y, _ = generate_instance(InstanceSpec(POSITIVE_SEMIDEFINITE, m, n, 76_000 + m + n, field, 0))
        calls = _count_svds(monkeypatch, {"X": X, "Y": Y})
        assert check(POSITIVE_SEMIDEFINITE, X, Y).feasible
        assert calls == {}

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("m,n", [(64, 32), (8, 8), (8, 4)])
    def test_full_rank_psd_solve_takes_only_x(self, monkeypatch, m, n, field):
        X, Y, _ = generate_instance(InstanceSpec(POSITIVE_SEMIDEFINITE, m, n, 76_000 + m + n, field, 0))
        calls = _count_svds(monkeypatch, {"X": X, "Y": Y})
        solve_psd(X, Y)
        assert calls == ({} if m >= feasibility._QR_MIN_ROWS else {"X": 1})

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("prop", [INVERTIBLE, INVERTIBLE_HERMITIAN, POSITIVE_DEFINITE])
    @pytest.mark.parametrize("m,n", [(64, 32), (8, 8), (8, 4)])
    def test_full_rank_invertible_check_takes_only_x(self, monkeypatch, prop, m, n, field):
        X, Y, _ = generate_instance(InstanceSpec(prop, m, n, 77_000 + m + n, field, 0))
        calls = _count_svds(monkeypatch, {"X": X, "Y": Y})
        assert check(prop, X, Y).feasible
        assert calls == {}

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("prop,expected", [
        (INVERTIBLE, {"X": 1, "Y": 1}),
        (INVERTIBLE_HERMITIAN, {"X": 1, "Y": 1}),
        (POSITIVE_SEMIDEFINITE, {"X* Y": 1}),
        (POSITIVE_DEFINITE, {"X": 1, "X* Y": 1, "Y": 1}),
    ])
    def test_rank_deficient_pair_takes_the_fallback_svd(self, monkeypatch, prop, expected, field):
        X, Y, _ = generate_instance(InstanceSpec(prop, 8, 4, 78_000, field, 1))
        calls = _count_svds(monkeypatch, {"X": X, "Y": Y, "X* Y": X.conj().T @ Y})
        assert check(prop, X, Y).feasible
        assert calls == expected


_HERMITIAN_FAMILY = [
    (HERMITIAN, solve_hermitian, lambda H, L, tol: 0.0),
    (INVERTIBLE_HERMITIAN, solve_invertible_hermitian, solvers._searched_border),
    (POSITIVE_SEMIDEFINITE, solve_psd, solvers._psd_border),
    (POSITIVE_DEFINITE, solve_pd, solvers._pd_border),
]


def _svd_frame_solution(X, Y, border):
    # A = V B V* in the frame of X's SVD, from completion_blocks and the
    # class's border rule, as the solvers built it before the QR frame
    f, blocks = completion_blocks(X, Y)
    H, L = solvers._herm(blocks.H), blocks.L
    B = _bordered(H, L, border(H, L, DEFAULT_TOL)) if len(L) else H
    return f.V @ B @ f.V.conj().T


def _outcome(solve, X, Y):
    try:
        return solve(X, Y)
    except TargetkitError as exc:
        return type(exc)


def _assert_matches_svd_frame(monkeypatch, X, Y, key):
    # each of the four solves against the SVD frame: the same error type,
    # or an A within 1e-10 relative of the SVD frame's.  The SVD frame is
    # the solver with the size rule out of reach, and its A is rebuilt
    # from completion_blocks
    for prop, solve, border in _HERMITIAN_FAMILY:
        with monkeypatch.context() as patched:
            patched.setattr(feasibility, "_QR_MIN_ROWS", X.shape[0] + 1)
            reference = _outcome(solve, X, Y)
        got = _outcome(solve, X, Y)
        if isinstance(reference, type):
            assert got is reference, (key, prop.kind)
            continue
        A = _svd_frame_solution(X, Y, border)
        assert np.array_equal(reference.A, A), (key, prop.kind)
        assert not isinstance(got, type), (key, prop.kind, got)
        assert got.A.dtype == A.dtype
        assert np.linalg.norm(got.A - A) <= 1e-10 * np.linalg.norm(A), (key, prop.kind)


class TestQrFrame:
    """From feasibility._QR_MIN_ROWS rows up, a full-rank X that one
    Cholesky certifies is framed by its QR; the solutions agree with the
    SVD frame's to rounding, and every other X keeps the SVD frame."""

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("m,n", [(16, 8), (24, 12), (24, 24), (64, 32), (64, 8)])
    def test_solutions_match_the_svd_frame(self, monkeypatch, m, n, field):
        # each pair is drawn for one class and solved under all four, so
        # infeasible pairs compare their refusals too
        qr_framed = 0
        for deficiency in (0, 1):
            for draw, *_ in _HERMITIAN_FAMILY:
                X0, Y0, _ = generate_instance(InstanceSpec(draw, m, n, 81_000 + m + n + deficiency, field, deficiency))
                for c in (1e-6, 1.0, 1e6):
                    qr_framed += feasibility._Pair(c * X0, c * Y0, None).qr_framed
                    _assert_matches_svd_frame(monkeypatch, c * X0, c * Y0, (draw.kind, deficiency, c))
        # the size rule: only the full-rank pairs at m >= 24 take the QR frame
        assert qr_framed == (12 if m >= feasibility._QR_MIN_ROWS else 0)

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("m,n,deficiency,svds", [(24, 12, 0, 0), (24, 24, 0, 0), (64, 32, 0, 0), (64, 8, 0, 0),
                                                     (64, 32, 1, 1), (24, 24, 3, 1), (16, 8, 0, 1)])
    def test_svds_of_x_per_call(self, monkeypatch, m, n, deficiency, svds, field):
        # a certified X takes no SVD in check at any size, nor at m >= 24
        # in any of the four solves; a rank-deficient X takes one per call,
        # and so does a solve below the size rule, except the psd check,
        # which reads no rank of X
        pairs = [generate_instance(InstanceSpec(prop, m, n, 82_000 + 10 * i + m + n, field, deficiency))[:2]
                 for i, (prop, *_) in enumerate(_HERMITIAN_FAMILY)]
        calls = _count_svds(monkeypatch, {f"X{i}": X for i, (X, _) in enumerate(pairs)})
        for i, ((prop, solve, _), (X, Y)) in enumerate(zip(_HERMITIAN_FAMILY, pairs)):
            for name, call in (("check", lambda: check(prop, X, Y)), ("solve", lambda: solve(X, Y))):
                calls.clear()
                call()
                expected = 0 if name == "check" and (prop is POSITIVE_SEMIDEFINITE or not deficiency) else svds
                assert calls[f"X{i}"] == expected, (name, prop.kind, calls)

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("prop,solve", [(UNCONSTRAINED, solve_unconstrained), (INVERTIBLE, solve_invertible),
                                            (COMPLEX_SYMMETRIC, solve_complex_symmetric)])
    def test_svd_framed_solves_skip_the_certificate_of_x(self, monkeypatch, prop, solve, field):
        # these constructions read X's SVD, so their solves read X's rank
        # off it and never certify X by Cholesky; a check alone does, and
        # takes no SVD of X
        X, Y, _ = generate_instance(InstanceSpec(prop, 64, 32, 84_000, field, 0))
        certified = []
        full_rank_certified = feasibility._full_rank_certified

        def recording(A, tol):
            certified.append(np.array_equal(A, X))
            return full_rank_certified(A, tol)

        monkeypatch.setattr(feasibility, "_full_rank_certified", recording)
        calls = _count_svds(monkeypatch, {"X": X})
        solve(X, Y)
        assert True not in certified and calls["X"] == 1
        certified.clear()
        calls.clear()
        assert check(prop, X, Y).feasible
        assert True in certified and calls["X"] == 0

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("factor,certified", [(4.0, True), (1.05, True), (0.95, False), (0.25, False)])
    def test_rank_at_the_certificate_decline_point(self, monkeypatch, factor, certified, field):
        # sigma_min(X) / |X|_F at factor times the threshold of the Cholesky
        # certificate, at m = 64: either side is full rank for the SVD, and
        # only the certified side takes the QR frame
        m, n = 64, 32
        X, Y = _pair_at_decline_point(m, n, factor, field)
        pair = feasibility._Pair(X, Y, None)
        assert pair.qr_framed is certified
        assert pair.rank == _partition(pair.X, DEFAULT_TOL).rank == n
        assert pair.null_basis.shape == (n, 0)
        _assert_matches_svd_frame(monkeypatch, X, Y, factor)

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("m,n", [(8, 4), (16, 8)])
    @pytest.mark.parametrize("factor,certified", [(1.05, True), (0.95, False)])
    def test_rank_below_the_size_rule(self, monkeypatch, m, n, factor, certified, field):
        # the same pairs below feasibility._QR_MIN_ROWS rows: check ranks X
        # by the certificate, and only the declined side takes X's SVD; on
        # either side the SVD ranks X n, and each verdict and deviation is
        # the SVD-ranked pair's.  No solve certifies X here, because its
        # construction reads X's SVD
        X, Y = _pair_at_decline_point(m, n, factor, field)
        svd_ranked = feasibility._Pair(X, Y, None, svd_frame=True)
        assert svd_ranked.rank == n
        references = {prop.kind: feasibility._check(prop, svd_ranked).to_dict()
                      for prop in (HERMITIAN, INVERTIBLE, POSITIVE_DEFINITE)}
        full_rank_certified = feasibility._full_rank_certified
        certificates = []

        def recording(A, tol):
            certificates.append(np.array_equal(A, X))
            return full_rank_certified(A, tol)

        monkeypatch.setattr(feasibility, "_full_rank_certified", recording)
        calls = _count_svds(monkeypatch, {"X": X})
        for prop in (HERMITIAN, INVERTIBLE, POSITIVE_DEFINITE):
            calls.clear()
            pair = feasibility._Pair(X, Y, None)
            assert feasibility._check(prop, pair).to_dict() == references[prop.kind]
            assert pair.full_rank is certified and not pair.qr_framed
            assert pair.rank == n and pair.null_basis.shape == (n, 0)
            assert calls["X"] == (0 if certified else 1), prop.kind
            assert check(prop, X, Y).to_dict() == references[prop.kind]
        certificates.clear()
        for _, solve, _ in _HERMITIAN_FAMILY:
            _outcome(solve, X, Y)
        assert True not in certificates


def _pair_at_decline_point(m, n, factor, field):
    # an m x n X with sigma_min(X) / |X|_F at factor times the decline
    # point of the Cholesky rank certificate, and Y = A X for a positive
    # definite A
    h = factor * decline_point(m, n, DEFAULT_TOL.rank_rel_cutoff * m, gram=True)
    rng = np.random.default_rng(83_000)
    s = rng.uniform(0.5, 1.0, n)
    s[-1] = h * np.sqrt(np.sum(s[:-1] ** 2) / (1 - h * h))
    U, V = (np.linalg.qr(G + 1j * rng.standard_normal(G.shape) if field == "complex" else G)[0]
            for G in (rng.standard_normal((m, n)), rng.standard_normal((n, n))))
    X = (U * s) @ V.conj().T
    G = rng.standard_normal((m, m))
    return X, (G @ G.T + np.eye(m)) @ X


_THIN_SHAPES = [(24, 12), (48, 8), (64, 32), (96, 16), (512, 16)]


def _complete_frame_blocks(X, Y):
    # the uncompressed blocks in the frame of X's complete QR,
    # [H; L] = Q* Y R1^-1, as the solvers built them before the thin frame
    n = X.shape[1]
    Q, R = np.linalg.qr(X, mode="complete")
    B1 = Q.conj().T @ (Y @ np.linalg.inv(R[:n]))
    return Q, solvers._herm(B1[:n]), B1[n:]


def _thin_pair(X, Y):
    # a pair the thin frame serves: X certified of full rank, m - n >= n
    pair = feasibility._Pair(X, Y, None)
    assert pair.qr_framed and pair.qr[0].shape == X.shape
    return pair


def _uncompressed_choice(H, L):
    """The candidate that scoring every one by the eigenvalue moduli of the
    uncompressed m x m ``B`` picks, the first best one on a tie."""
    best, lam = -1.0, None
    for c in _lambda_candidates(H, L, len(H)):
        smin = float(np.abs(np.linalg.eigvalsh(_bordered(H, L, c))).min())
        if smin > best:
            best, lam = smin, c
    return lam


def _record_linalg(monkeypatch):
    """A list of (kernel, qr mode, shapes of the operands and results) for
    every numpy.linalg factorization or solve while it is live, with an
    ("audit", peak, []) entry where the solver hands A to its audit, peak
    the traced peak of memory then, where tracemalloc traces."""
    calls = []
    for name in ("qr", "inv", "solve", "eigh", "eigvalsh", "svd", "cholesky"):
        kernel = getattr(np.linalg, name)

        def recording(a, *args, _name=name, _kernel=kernel, **kwargs):
            out = _kernel(a, *args, **kwargs)
            arrays = (a, *args, *(out if isinstance(out, tuple) else (out,)))
            calls.append((_name, kwargs.get("mode", "reduced"), [x.shape for x in arrays if isinstance(x, np.ndarray)]))
            return out

        monkeypatch.setattr(np.linalg, name, recording)
    finalize = solvers._finalize

    def auditing(*args):
        calls.append(("audit", tracemalloc.get_traced_memory()[1] if tracemalloc.is_tracing() else None, []))
        return finalize(*args)

    monkeypatch.setattr(solvers, "_finalize", auditing)
    return calls


# Invertible-Hermitian pairs of TestThinFrame whose lam is the negative of
# the one the uncompressed blocks give: +lam and -lam both score exactly
# |lam| at the cap, an exact tie that the first listed, +lam, wins, where
# the m x m eigvalsh of the uncompressed B breaks it by rounding.  Keyed by
# test, shape, field, scale and seed
_CAP_TIES = {
    ("complete-frame", 512, 16, "real", 1e-6, 85_528),
    ("complete-frame", 512, 16, "real", 1.0, 85_528),
    ("uncompressed-choice", 48, 8, "real", 1e-6, 1),
}


def _assert_cap_tie(X, Y, lam, other, key):
    # lam = -other, and +lam and -lam both reach the cap |lam| in the
    # compressed search, so each scores exactly |lam|
    assert key in _CAP_TIES and abs(lam + other) <= 1e-8 * abs(other), key
    H, L, rows = _bordering_blocks(X, Y)
    assert rows > len(H), key
    for sign in (1, -1):
        assert np.abs(np.linalg.eigvalsh(_bordered(H, L, sign * lam))).min() >= abs(lam), key


class TestThinFrame:
    """A certified full-rank X with m - n >= n frames the Hermitian family
    by its reduced QR, X = Q1 R1: no m x m Q, and A assembled as
    lam I + T + T*."""

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("m,n", _THIN_SHAPES)
    def test_solutions_match_the_complete_frame(self, m, n, field):
        # each class on a pair drawn for it: the thin frame's A within 1e-10
        # of the complete frame's, and equal to its conjugate transpose.  On
        # a listed exact tie the complete frame's A is the one from the thin
        # frame's lam
        seed = 85_000 + m + n
        for prop, solve, border in _HERMITIAN_FAMILY:
            X0, Y0, _ = generate_instance(InstanceSpec(prop, m, n, seed, field, 0))
            for c in (1e-6, 1.0, 1e6):
                X, Y = c * X0, c * Y0
                _thin_pair(X, Y)
                sol = solve(X, Y)
                A, lam = sol.A, sol.free_params["lam"]
                Q, H, L = _complete_frame_blocks(X, Y)
                other = border(H, L, DEFAULT_TOL)
                if prop == INVERTIBLE_HERMITIAN and abs(lam - other) > 1e-8 * abs(other):
                    _assert_cap_tie(X, Y, lam, other, ("complete-frame", m, n, field, c, seed))
                    other = lam
                reference = Q @ _bordered(H, L, other) @ Q.conj().T
                assert A.dtype == reference.dtype
                assert np.linalg.norm(A - reference) <= 1e-10 * np.linalg.norm(reference), (prop.kind, c)
                assert np.array_equal(A, A.conj().T), (prop.kind, c)

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("m,n", _THIN_SHAPES)
    def test_no_square_factor_before_the_audit(self, monkeypatch, m, n, field):
        # QR only in reduced or "r" mode, and nothing square above the
        # compressed search's 2n x 2n among the numpy.linalg operands and
        # results until the audit.  At 512 x 16, where m x m dwarfs m x n,
        # the traced peak up to the audit holds T and A and little else,
        # where the complete frame's Q B Q* held four or five m x m matrices
        pairs = [generate_instance(InstanceSpec(prop, m, n, 86_000 + m + n, field, 0))[:2]
                 for prop, *_ in _HERMITIAN_FAMILY]
        calls = _record_linalg(monkeypatch)
        item = 16 if field == "complex" else 8
        for (prop, solve, _), (X, Y) in zip(_HERMITIAN_FAMILY, pairs):
            _thin_pair(X, Y)
            calls.clear()
            tracemalloc.start()
            try:
                solve(X, Y)
            finally:
                tracemalloc.stop()
            audit = next(i for i, (name, *_) in enumerate(calls) if name == "audit")
            before, peak = calls[:audit], calls[audit][1]
            assert {mode for name, mode, _ in calls if name == "qr"} <= {"reduced", "r"}, prop.kind
            assert ("qr", "reduced", [X.shape, X.shape, (n, n)]) in before
            square = [c for c in before if any(len(a) == 2 and a[0] == a[1] > 2 * n for a in c[2])]
            assert not square, (prop.kind, square)
            if (m, n) == (512, 16):
                assert peak < 2.5 * m * m * item, (prop.kind, peak / (m * m * item))

    def test_search_picks_the_uncompressed_choice(self):
        # invertible-Hermitian on thin pairs of both bordering branches: the
        # compressed search picks the lam that scoring every candidate on
        # the uncompressed m x m B picks, except the listed exact ties
        flips, branches = set(), Counter()
        samples = [(m, n, field, c, seed, branch) for m, n in _THIN_SHAPES[:4] for field in ("real", "complex")
                   for c in (1e-6, 1.0, 1e6) for seed in range(4) for branch in ("drawn", "small")]
        samples += [(512, 16, "real", 1.0, 0, "drawn"), (512, 16, "complex", 1.0, 0, "small")]
        for m, n, field, c, seed, branch in samples:
            if branch == "drawn":
                X, Y, _ = generate_instance(InstanceSpec(INVERTIBLE_HERMITIAN, m, n, seed, field, 0))
            else:
                X, Y = _small_border_pair(m, n, field, seed)
            Y = c * Y
            _thin_pair(X, Y)
            lam = solve_invertible_hermitian(X, Y).free_params["lam"]
            _, H, L = _complete_frame_blocks(X, Y)
            branches[(m, np.linalg.norm(L, 2) > np.linalg.norm(H, 2))] += 1
            choice = _uncompressed_choice(H, L)
            if abs(lam - choice) > 1e-8 * abs(choice):
                flips.add(("uncompressed-choice", m, n, field, c, seed))
                _assert_cap_tie(X, Y, lam, choice, ("uncompressed-choice", m, n, field, c, seed))
        assert flips == {key for key in _CAP_TIES if key[0] == "uncompressed-choice"}
        assert {m for m, _ in branches} == {m for m, _ in _THIN_SHAPES}
        assert all(branches[(m, True)] and branches[(m, False)] for m, _ in _THIN_SHAPES[:4]), branches


def _record_kernels(monkeypatch, names=("eigvalsh", "svd", "cholesky")):
    """A list of (name, argument) for every call of the named
    ``numpy.linalg`` kernels while it is live."""
    calls = []
    for name in names:
        kernel = getattr(np.linalg, name)

        def recording(a, *args, _name=name, _kernel=kernel, **kwargs):
            calls.append((_name, np.array(a)))
            return _kernel(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    return calls


class TestAuditCertificates:
    """The pd and invertible-Hermitian audits certify a well-conditioned A
    with one Cholesky; a singular or ill-conditioned A takes the measured
    eigvalsh or SVD, with its verdict."""

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("prop,solve", [(POSITIVE_DEFINITE, solve_pd),
                                            (INVERTIBLE_HERMITIAN, solve_invertible_hermitian)])
    @pytest.mark.parametrize("m,n,deficiency", [(8, 4, 0), (8, 4, 1), (16, 16, 0), (64, 32, 0)])
    def test_well_conditioned_solve_audits_without_a_spectrum(self, monkeypatch, prop, solve, m, n, deficiency, field):
        X, Y, _ = generate_instance(InstanceSpec(prop, m, n, 79_000 + m + n, field, deficiency))
        calls = _record_kernels(monkeypatch)
        A = solve(X, Y).A
        of_a = [name for name, a in calls if a.shape == A.shape and
                (np.array_equal(a, A) or np.array_equal(a, (A + A.conj().T) / 2))]
        assert of_a == []
        assert calls[-1][0] == "cholesky" and calls[-1][1].shape == A.shape

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("prop", [POSITIVE_DEFINITE, INVERTIBLE_HERMITIAN])
    @pytest.mark.parametrize("least", [0.0, 1e-9])
    def test_singular_or_ill_conditioned_a_takes_the_measure(self, monkeypatch, prop, least, field):
        # eigenvalues 1, ..., 1 and least, all positive or of alternating sign
        m = 128
        G = np.random.default_rng(80_000).standard_normal((2, m, m))
        Q = np.linalg.qr(G[0] + 1j * G[1] if field == "complex" else G[0])[0]
        d = np.ones(m)
        d[-1] = least
        if prop == INVERTIBLE_HERMITIAN:
            d *= (-1.0) ** np.arange(m)
        A = (Q * d) @ Q.conj().T
        A = (A + A.conj().T) / 2
        if prop == POSITIVE_DEFINITE:
            measured, kernel = feasibility._semidefinite(A, DEFAULT_TOL, "positive-definite", definite=True), "eigvalsh"
        else:
            measured, kernel = feasibility._audit_invertible(A, prop, DEFAULT_TOL), "svd"
        calls = _record_kernels(monkeypatch, ("eigvalsh", "svd"))
        cond = verify_property(A, prop).conditions[1]
        assert [name for name, _ in calls] == [kernel]
        assert cond == measured and cond.deviation.hex() == measured.deviation.hex()
        assert cond.satisfied == (least > 0)


def _candidates_with_twins(H, L, r):
    """The candidate list that also lists ``±1/s`` when ``|L|_2 <= |H|_2``."""
    norm_h = float(np.linalg.norm(H, 2)) if H.size else 0.0
    norm_l = float(np.linalg.norm(L, 2)) if L.size else 0.0
    denominator = max(norm_l**2, norm_h**2)
    candidates = []
    for k in range(1, r + 2):
        if norm_h > 0.0 and denominator > 0.0:
            s = k * norm_h / denominator
            candidates += [1.0 / s, -1.0 / s]
        base = max(norm_h, norm_l) / k
        if base > 0.0:
            candidates += [base, -base]
    seen = set()
    return [c for c in candidates if not (c in seen or seen.add(c))]


# pairs on each branch of the bordering candidates: |L|_2 <= |H|_2, and above it
_SMALL_BORDER_PAIRS = {
    "m64-real": lambda: _small_border_pair(64, 32, "real", seed=72_064),
    "m64-complex": lambda: _small_border_pair(64, 32, "complex", seed=72_064),
    "C7-70004": lambda: generate_instance(_c7_spec(4))[:2],
    "C7-70005": lambda: generate_instance(_c7_spec(5))[:2],
}
_LARGE_BORDER_PAIRS = {
    "C7-70007": lambda: generate_instance(_c7_spec(7))[:2],
    "C7-70038": lambda: generate_instance(_c7_spec(38))[:2],
    "m64-real": lambda: generate_instance(InstanceSpec(INVERTIBLE_HERMITIAN, 64, 32, 74_064, "real", 0))[:2],
    "m64-complex": lambda: generate_instance(InstanceSpec(INVERTIBLE_HERMITIAN, 64, 32, 74_065, "complex", 0))[:2],
    "swap": lambda: (E1, E2),
}


class TestLambdaCandidates:
    """Each distinct bordering magnitude is listed once, on both branches."""

    @pytest.mark.parametrize("name", sorted(_SMALL_BORDER_PAIRS))
    def test_small_border_lists_each_magnitude_once(self, name):
        H, L, _ = _bordering_blocks(*_SMALL_BORDER_PAIRS[name]())
        assert np.linalg.norm(L, 2) <= np.linalg.norm(H, 2)
        candidates = _lambda_candidates(H, L, len(H))
        assert len(candidates) == 2 * (len(H) + 1)
        values = np.sort(candidates)
        assert np.all(np.diff(values) > 4 * np.spacing(np.maximum(np.abs(values[1:]), np.abs(values[:-1]))))
        # the twins are gone, and what remains keeps its order
        assert [c for c in _candidates_with_twins(H, L, len(H)) if c in candidates] == candidates

    @pytest.mark.parametrize("name", sorted(_LARGE_BORDER_PAIRS))
    def test_large_border_list_is_unchanged(self, name):
        H, L, _ = _bordering_blocks(*_LARGE_BORDER_PAIRS[name]())
        assert np.linalg.norm(L, 2) > np.linalg.norm(H, 2)
        candidates = _lambda_candidates(H, L, len(H))
        assert [c.hex() for c in candidates] == [c.hex() for c in _candidates_with_twins(H, L, len(H))]


class TestSemidefinite:
    def test_psd_boundary_frozen(self):
        X, Y = E1, COL(1, 1)
        sol = solve_psd(X, Y)
        assert np.allclose(sol.A, np.ones((2, 2)), atol=1e-14)
        eigs = np.linalg.eigvalsh(sol.A)
        assert eigs[0] == pytest.approx(0.0, abs=1e-14)
        assert eigs[1] == pytest.approx(2.0)

    def test_pd_margin_frozen(self):
        X, Y = E1, COL(1, 1)
        sol = solve_pd(X, Y)
        assert np.allclose(sol.A, np.array([[1.0, 1.0], [1.0, 3.0]]), atol=1e-14)
        assert np.linalg.eigvalsh(sol.A)[0] > 0.5

    def test_pd_full_rank_shortcut(self):
        Y = np.array([[2.0, 1.0], [1.0, 2.0]])
        sol = solve_pd(np.eye(2), Y)
        assert np.allclose(sol.A, Y, atol=1e-14)

    def test_psd_infeasible_negative_product(self):
        with pytest.raises(InfeasibleError):
            solve_psd(E1, -E1)

    def test_underflowed_leading_block_is_a_numeric_failure(self):
        # X*Y = 1 is positive definite, but H = 1e-200 / 1e200 underflows to 0
        with np.errstate(over="ignore"), pytest.raises(NumericFailureError, match="exactly singular"):
            solve_pd(COL(1e200, 0), COL(1e-200, 0))


def _psd_head(r, rank, field, seed):
    # Hermitian r x r with `rank` positive eigenvalues and r - rank exact
    # zeros, and a border L with components in its null space
    rng = np.random.default_rng(seed)

    def draw(shape):
        G = rng.standard_normal(shape)
        return G + 1j * rng.standard_normal(shape) if field == "complex" else G

    Q = np.linalg.qr(draw((r, r)))[0][:, :rank]
    H = solvers._herm((Q * rng.uniform(0.5, 2.0, rank)) @ Q.conj().T)
    return H, draw((r + 2, r))


def _pinv_border(H, L):
    """The psd border from the pseudoinverse of H's partitioned SVD."""
    M = L @ _partition(H, DEFAULT_TOL).pinv() @ L.conj().T
    return max(0.0, float(np.linalg.eigvalsh((M + M.conj().T) / 2)[-1]))


def _eigh_border(H, L):
    """The psd border by the eigh route alone, and whether it kept every
    eigenpair of H."""
    w, E = np.linalg.eigh(H)
    moduli = np.abs(w)
    keep = moduli > DEFAULT_TOL.rank_cutoff(float(moduli.max()), *H.shape)
    K = L @ E[:, keep]
    M = solvers._herm((K / w[keep]) @ K.conj().T)
    return max(0.0, float(np.linalg.eigvalsh(M)[-1])), bool(keep.all())


class TestPsdBorder:
    """The psd border from one ``eigh`` of ``H``, or from ``H^-1`` where one
    Cholesky certifies that eigh would keep every eigenpair, against
    ``_partition(H).pinv()``."""

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("r,seed", [(1, 76_001), (4, 76_004), (16, 76_016)])
    def test_full_rank_head(self, r, seed, field):
        H, L = _psd_head(r, r, field, seed)
        assert _partition(H, DEFAULT_TOL).rank == r
        assert _psd_border(H, L, DEFAULT_TOL) == pytest.approx(_pinv_border(H, L), rel=1e-12, abs=0)

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("r,rank,seed", [(2, 1, 76_102), (6, 3, 76_106), (16, 11, 76_116)])
    def test_head_with_exact_zero_eigenvalues(self, monkeypatch, r, rank, seed, field):
        # L reaches into null H, so keeping a rounding-level eigenvalue would
        # put its reciprocal into lam
        H, L = _psd_head(r, rank, field, seed)
        assert _partition(H, DEFAULT_TOL).rank == rank
        spectra = []
        eigh = np.linalg.eigh

        def recording(a, *args, **kwargs):
            spectra.append(eigh(a, *args, **kwargs)[0])
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recording)
        lam = _psd_border(H, L, DEFAULT_TOL)
        (w,) = spectra
        kept = np.abs(w) > DEFAULT_TOL.rank_cutoff(np.abs(w).max(), r, r)
        assert np.count_nonzero(kept) == rank
        assert lam == pytest.approx(_pinv_border(H, L), rel=1e-12, abs=0)

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        field=st.sampled_from(["real", "complex"]),
        n=st.sampled_from([2, 6, 16, 64]),
        k=st.sampled_from([-400, 400]),
        factor=st.sampled_from([0.5, 1.0, 2.0, 1000.0]),
    )
    def test_certificate_is_sound(self, seed, field, n, k, factor):
        # H of spectral norm 2**k whose least eigenvalue sits at factor times
        # the rank cutoff 1e-12 n.  Where the Cholesky certificate answers,
        # eigh would have kept every eigenpair, and lam is the eigh route's
        # to the conditioning of H: both routes are backward stable, so
        # they differ by up to about kappa(H) eps (5.9e-5 relative at n = 2
        # and factor 2, kappa near 2.5e11), and by 1e-12 where H is well
        # conditioned.  Where it declines, lam is the eigh route's bit for bit
        rng = np.random.default_rng(seed)

        def draw(shape):
            G = rng.standard_normal(shape)
            return G + 1j * rng.standard_normal(shape) if field == "complex" else G

        Q = np.linalg.qr(draw((n, n)))[0]
        w = np.concatenate([[1.0], rng.uniform(0.1, 1.0, n - 2), [factor * 1e-12 * n]])
        H = 2.0**k * solvers._herm((Q * w) @ Q.conj().T)
        L = 2.0**k * draw((n + 1, n))
        certified = feasibility._cholesky_bound(H, DEFAULT_TOL.rank_rel_cutoff * n, DEFAULT_TOL) is not None
        lam = _psd_border(H, L, DEFAULT_TOL)
        reference, kept_all = _eigh_border(H, L)
        if not certified:
            assert lam.hex() == reference.hex()
            return
        assert kept_all
        spectrum = np.linalg.eigvalsh(H)
        kappa = spectrum[-1] / spectrum[0]
        assert abs(lam - reference) <= (1e-12 + 16 * n * np.finfo(float).eps * kappa) * reference

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("n", [2, 6, 16, 64])
    @pytest.mark.parametrize("k", [-400, 0, 400])
    def test_well_conditioned_head_takes_no_eigh(self, monkeypatch, n, k, field):
        # H with eigenvalues in [0.5, 2]: the certificate answers, no eigh
        # runs, and lam is the eigh route's within 1e-12 relative
        H, L = _psd_head(n, n, field, 76_300 + n)
        H, L = 2.0**k * H, 2.0**k * L
        reference, kept_all = _eigh_border(H, L)
        assert kept_all
        calls = _record_kernels(monkeypatch, ("eigh",))
        lam = _psd_border(H, L, DEFAULT_TOL)
        assert calls == []
        assert lam == pytest.approx(reference, rel=1e-12, abs=0)

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("scale", [0.0, 1e-310])
    def test_numerically_zero_head(self, scale, field):
        # 1e-310 is subnormal: its reciprocal overflows, and the SVD reads it as rank 0
        H, L = _psd_head(4, 4, field, 76_200)
        H = scale * H
        assert _partition(H, DEFAULT_TOL).rank == 0 and H.any() == bool(scale)
        assert _psd_border(H, L, DEFAULT_TOL) == _pinv_border(H, L) == 0.0


class TestUnitary:
    def test_swap_pair_frozen(self):
        sol = solve_unitary(E1, E2)
        assert np.allclose(sol.A, np.array([[0.0, 1.0], [1.0, 0.0]]), atol=1e-14)

    def test_polar_route_identity_on_equal_pair(self):
        X = np.array([[3.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        sol = solve_unitary_polar(X, X)
        assert np.allclose(sol.A, np.eye(3), atol=1e-14)

    def test_routes_agree_on_verdict_not_necessarily_matrix(self):
        for seed in range(10):
            spec = InstanceSpec(property=UNITARY, m=4, n=2, seed=seed, field="complex")
            X, Y, _ = generate_instance(spec)
            a = solve_unitary(X, Y)
            b = solve_unitary_polar(X, Y)
            assert_solution(a, X, Y, UNITARY)
            assert_solution(b, X, Y, UNITARY)

    def test_infeasible_gram_mismatch(self):
        with pytest.raises(InfeasibleError):
            solve_unitary(E1, 2 * E1)

    @pytest.mark.parametrize("solver", [solve_unitary, solve_unitary_polar])
    def test_tolerance_below_rounding_is_a_numeric_failure(self, solver):
        # the completed frames are orthonormal only to about 1e-15
        X, Y, _ = generate_instance(InstanceSpec(UNITARY, m=6, n=3, seed=1, field="complex"))
        with pytest.raises(NumericFailureError, match="failed its own audit"):
            solver(X, Y, tol=TolerancePolicy(sym_tol=1e-16))


class TestReflection:
    def test_sign_flip_frozen(self):
        sol = solve_reflection(E1, -E1)
        assert np.allclose(sol.A, np.diag([-1.0, 1.0]), atol=1e-14)

    def test_swap_frozen(self):
        sol = solve_reflection(E1, E2)
        assert np.allclose(sol.A, np.array([[0.0, 1.0], [1.0, 0.0]]), atol=1e-12)

    def test_fixed_pair_gives_identity(self):
        X = COL(1, 2)
        sol = solve_reflection(X, X)
        assert np.allclose(sol.A, np.eye(2), atol=1e-14)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_fixed_space_gives_identity(self, field):
        # X - Y is rounding noise; ranked against the pair it has rank 0
        X, Y = reflected_pair(field)
        sol = solve_reflection(X, Y)
        assert_solution(sol, X, Y, REFLECTION)
        assert np.array_equal(sol.A, np.eye(6))

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_tilted_pair(self, field):
        X, Y = reflected_pair(field, tilt=1e-5)
        assert_solution(solve_reflection(X, Y), X, Y, REFLECTION)

    def test_sum_not_orthogonal_to_difference_fails_the_audit(self):
        # a loose sym_tol certifies a small rotation, whose X*Y is not
        # Hermitian; A X - Y = -P (X + Y), so the residual shows it
        t = 1e-3
        R = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
        with pytest.raises(NumericFailureError, match="failed its own audit"):
            solve_reflection(np.eye(2), R, tol=TolerancePolicy(sym_tol=1e-2))


class TestProjection:
    def test_projects_onto_target_range_frozen(self):
        sol = solve_projection(COL(1, 1), COL(1, 0))
        assert np.allclose(sol.A, np.diag([1.0, 0.0]), atol=1e-14)

    def test_zero_target_rejected(self):
        with pytest.raises(ZeroTargetError):
            solve_projection(COL(1, 0), COL(0, 0))


class TestComplexSymmetric:
    def test_imaginary_diagonal_frozen(self):
        sol = solve_complex_symmetric(COL(1, 0), np.array([[1j], [0.0]]))
        assert np.allclose(sol.A, np.diag([1j, 0.0]), atol=1e-14)

    def test_free_corner_soundness(self):
        rng = np.random.default_rng(4)
        spec = InstanceSpec(property=COMPLEX_SYMMETRIC, m=5, n=2, seed=1, field="complex")
        X, Y, _ = generate_instance(spec)
        r = 2
        for _ in range(20):
            G = rng.standard_normal((5 - r, 5 - r)) + 1j * rng.standard_normal((5 - r, 5 - r))
            G = (G + G.T) / 2
            sol = solve_complex_symmetric(X, Y, G_free=G)
            assert_solution(sol, X, Y, COMPLEX_SYMMETRIC)

    def test_non_symmetric_corner_rejected(self):
        spec = InstanceSpec(property=COMPLEX_SYMMETRIC, m=4, n=2, seed=2, field="complex")
        X, Y, _ = generate_instance(spec)
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(BadFreeParameterError):
            solve_complex_symmetric(X, Y, G_free=bad)

    def test_corner_of_wrong_shape_rejected(self):
        spec = InstanceSpec(property=COMPLEX_SYMMETRIC, m=4, n=2, seed=2, field="complex")
        X, Y, _ = generate_instance(spec)
        with pytest.raises(BadFreeParameterError, match="G_free must be 2x2"):
            solve_complex_symmetric(X, Y, G_free=np.zeros((3, 3)))

    def test_full_rank_source_leaves_no_corner(self):
        X = np.eye(2)
        Y = np.array([[1.0, 2.0], [2.0, -1.0]])
        sol = solve_complex_symmetric(X, Y)
        assert np.allclose(sol.A, Y, atol=1e-14)
        with pytest.raises(BadFreeParameterError):
            solve_complex_symmetric(X, Y, G_free=np.zeros((1, 1)))


class TestNormalTwoPoint:
    def test_projector_eigenvalues_frozen(self):
        sol = solve_normal_two_point(COL(1, 1), COL(1, 0), 1.0, 0.0)
        assert np.allclose(sol.A, np.diag([1.0, 0.0]), atol=1e-12)

    def test_reflection_eigenvalues_frozen(self):
        sol = solve_normal_two_point(E1, E2, 1.0, -1.0)
        assert np.allclose(sol.A, np.array([[0.0, 1.0], [1.0, 0.0]]), atol=1e-12)

    def test_leftover_space_gets_first_eigenvalue(self):
        X = COL(1, 0, 0)
        Y = 2.0 * X
        sol = solve_normal_two_point(X, Y, 2.0, 5.0)
        eigs = np.sort_complex(np.linalg.eigvals(sol.A))
        assert np.allclose(eigs, [2.0, 2.0, 2.0], atol=1e-12)

    def test_complex_eigenvalues(self):
        spec = InstanceSpec(
            property=normal_two_point(1j, -1j), m=4, n=3, seed=7, field="complex"
        )
        X, Y, _ = generate_instance(spec)
        sol = solve_normal_two_point(X, Y, 1j, -1j)
        assert_solution(sol, X, Y, normal_two_point(1j, -1j))

    def test_real_data_real_output(self):
        spec = InstanceSpec(
            property=normal_two_point(1.0, -2.0), m=5, n=3, seed=8, field="real"
        )
        X, Y, _ = generate_instance(spec)
        sol = solve_normal_two_point(X, Y, 1.0, -2.0)
        assert not np.iscomplexobj(sol.A)

    def test_rank_proviso_error_carries_forced_scale(self):
        with pytest.raises(RankProvisoError) as exc:
            solve_normal_two_point(np.eye(2), 2.0 * np.eye(2), 2.0, 0.0)
        assert exc.value.unique_solution_scale == pytest.approx(2.0)
        assert exc.value.report is not None
        with pytest.raises(RankProvisoError) as exc:
            solve_normal_two_point(np.eye(2), np.zeros((2, 2)), 2.0, 0.0)
        assert exc.value.unique_solution_scale == pytest.approx(0.0)

    def test_plain_infeasibility_still_infeasible_error(self):
        with pytest.raises(InfeasibleError):
            solve_normal_two_point(E1, 2 * E1, 1.0, 0.0)

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("lam,mu", [(1, 0), (0, 1), (1, -1)])
    @pytest.mark.parametrize("c", [1.0, 1e4, 1e6, 1e9])
    def test_one_eigenspace_source_at_scale(self, c, lam, mu, field):
        # the orthogonality deviation is measured against the pair, not
        # against |Y - mu X| |Y - lam X|, one factor of which is rounding
        # noise here; so the verdict is the companion class's at every scale
        X, Y, companion = one_eigenspace_pair(field, c, lam, mu)
        prop = normal_two_point(lam, mu)
        assert check(companion, X, Y).feasible
        assert check(prop, X, Y).feasible
        assert_solution(solve_normal_two_point(X, Y, lam, mu), X, Y, prop)

    @pytest.mark.parametrize("tilt", [0.0, 1e-5])
    @pytest.mark.parametrize("lam,mu", [(1.0, -1.0), (-1.0, 1.0)])
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_reflected_pairs(self, field, lam, mu, tilt):
        # at tilt 0 the pair is Y = X up to rounding, and A = I solves it
        X, Y = reflected_pair(field, tilt)
        prop = normal_two_point(lam, mu)
        assert_solution(solve_normal_two_point(X, Y, lam, mu), X, Y, prop)

    @pytest.mark.parametrize("deficiency", [0, 1])
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_one_svd_no_qr(self, monkeypatch, field, deficiency):
        spec = InstanceSpec(TWO_POINT, m=6, n=3, seed=23, field=field, rank_deficiency=deficiency)
        X, Y, _ = generate_instance(spec)
        counts = Counter()

        def counting(name):
            fn = getattr(np.linalg, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in ("svd", "qr"):
            monkeypatch.setattr(np.linalg, name, counting(name))
        solve_normal_two_point(X, Y, TWO_POINT.lam, TWO_POINT.mu)
        assert counts == {"svd": 1}


class TestNormalVector:
    def test_scaled_unitary(self):
        x = COL(3, 4)
        y = np.array([[0.0], [10.0]])
        sol = solve_normal_vector(x, y)
        s = np.linalg.svd(sol.A, compute_uv=False)
        assert np.allclose(s, [2.0, 2.0], atol=1e-12)
        assert_solution(sol, x, y, NORMAL_VECTOR)

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVectorError):
            solve_normal_vector(COL(0, 0), COL(1, 0))

    @pytest.mark.parametrize("x,y", [(COL(1e300, 1e300), COL(1, 0)), (COL(1, 0), COL(1e300, 1e300)),
                                     (COL(1e300, 1e300), COL(1e300, -1e300))])
    def test_overflowing_norm_is_a_numeric_failure(self, x, y):
        # the norm of a finite vector can overflow; dividing by it would hand
        # a zero vector to the unitary construction
        with np.errstate(over="ignore"), pytest.raises(NumericFailureError, match="overflows"):
            solve_normal_vector(x, y)

    def test_overflowing_construction_is_a_numeric_failure(self):
        # both norms are finite, but every solution (|y| / |x|) U overflows
        with np.errstate(all="ignore"), pytest.raises(NumericFailureError, match="non-finite"):
            solve_normal_vector(1e-160 * np.ones(3), 1e153 * np.ones(3))


class TestDegenerateZeroSource:
    @pytest.mark.parametrize(
        "solver,prop",
        [
            (solve_invertible, INVERTIBLE),
            (solve_hermitian, HERMITIAN),
            (solve_invertible_hermitian, INVERTIBLE_HERMITIAN),
            (solve_psd, POSITIVE_SEMIDEFINITE),
            (solve_pd, POSITIVE_DEFINITE),
            (solve_unitary, UNITARY),
            (solve_unitary_polar, UNITARY),
            (solve_complex_symmetric, COMPLEX_SYMMETRIC),
        ],
        ids=lambda x: getattr(x, "__name__", getattr(x, "kind", "")),
    )
    def test_identity_witness(self, solver, prop):
        Z = np.zeros((3, 2))
        sol = solver(Z, Z)
        assert np.array_equal(sol.A, np.eye(3))
        assert sol.free_params == {"degenerate_zero_source": True}
        assert verify_property(sol.A, prop).passed

    def test_two_point_scales_identity(self):
        Z = np.zeros((2, 2))
        sol = solve_normal_two_point(Z, Z, 3.0, 1.0)
        assert np.allclose(sol.A, 3.0 * np.eye(2))

    def test_real_scale_gives_a_real_witness(self):
        # lam stays complex when mu is not real; the witness is still real
        Z = np.zeros((2, 2))
        sol = solve_normal_two_point(Z, Z, 3.0, 1j)
        assert sol.A.dtype == np.float64
        assert np.array_equal(sol.A, 3.0 * np.eye(2))

    def test_zero_source_nonzero_target_infeasible(self):
        with pytest.raises(InfeasibleError):
            solve_hermitian(np.zeros((2, 2)), np.eye(2))


class TestDeterminism:
    def test_bitwise_repeatability(self):
        spec = InstanceSpec(property=UNITARY, m=5, n=3, seed=99, field="complex")
        X, Y, _ = generate_instance(spec)
        a = solve_unitary(X, Y).A
        b = solve_unitary(X.copy(), Y.copy()).A
        assert np.array_equal(a, b)


def _eigenvalue_rule(H, tol):
    # the test completion_gap made itself before it used feasibility._semidefinite
    scale = float(np.linalg.norm(H, 2))
    return True if scale == 0.0 else float(np.linalg.eigvalsh(H)[0]) >= -tol.psd_tol * scale


class TestCompletionGap:
    def test_nilpotent_block_obstructed(self):
        B = np.array([[0.0, 1.0], [0.0, 0.0]])
        H, psd = completion_gap(B, np.zeros((2, 2)))
        assert np.allclose(H, np.diag([-1.0, 1.0]), atol=1e-15)
        assert not psd

    def test_cyclic_shift_gap_equals_corner(self):
        B = np.roll(np.eye(3), 1, axis=0)
        C = np.zeros((3, 3))
        C[0, 0] = 1.0
        H, psd = completion_gap(B, C)
        assert np.allclose(H, C, atol=1e-15)
        assert psd

    def test_normal_block_with_zero_corner_has_zero_gap(self):
        B = np.array([[1.0, 2.0], [2.0, -1.0]])
        H, psd = completion_gap(B, np.zeros((2, 2)))
        assert np.allclose(H, 0, atol=1e-15)
        assert psd

    @pytest.mark.parametrize("shortfall, psd", [(0.0, True), (0.5, True), (2.0, False)])
    def test_psd_tolerance_margin(self, shortfall, psd):
        # B*B - BB* = diag(-1, 1) and C*C = diag(c^2, 0) leave a gap of unit
        # norm whose least eigenvalue is c^2 - 1 = -shortfall * psd_tol
        B = np.array([[0.0, 1.0], [0.0, 0.0]])
        C = np.diag([np.sqrt(1.0 - shortfall * DEFAULT_TOL.psd_tol), 0.0])
        H, verdict = completion_gap(B, C)
        assert verdict is psd
        assert verdict is _eigenvalue_rule(H, DEFAULT_TOL)

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("corner, psd", [(0.1, False), (10.0, True)])
    def test_verdict_matches_eigenvalue_rule(self, field, corner, psd):
        rng = np.random.default_rng(6)
        B, C = rng.standard_normal((2, 4, 4))
        if field == "complex":
            B, C = B + 1j * rng.standard_normal((4, 4)), C + 1j * rng.standard_normal((4, 4))
        C *= corner
        M = B.conj().T @ B - B @ B.conj().T + C.conj().T @ C
        H, verdict = completion_gap(B, C)
        assert np.array_equal(H, (M + M.conj().T) / 2)
        assert verdict is psd
        assert verdict is _eigenvalue_rule(H, DEFAULT_TOL)

    def test_nan_gap_is_a_numeric_failure(self):
        # B*B overflows to inf - inf = NaN, which eigvalsh would read as zero
        B = np.array([[-0.0, 0.0], [5e-324, 1e308]])
        with np.errstate(all="ignore"), pytest.raises(NumericFailureError, match="NaN"):
            completion_gap(B, B)

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            completion_gap(np.ones((2, 3)), np.ones((2, 3)))
        with pytest.raises(ShapeError):
            completion_gap(np.eye(2), np.eye(3))

    def test_note_documents_row_column_obstruction(self):
        assert "first row" in COMPLETION_GAP_NOTE
        assert "first column" in COMPLETION_GAP_NOTE
        assert "not sufficient" in COMPLETION_GAP_NOTE.lower()


class TestSolutionAudit:
    def test_returned_solutions_carry_their_own_deviations(self):
        spec = InstanceSpec(property=POSITIVE_DEFINITE, m=4, n=2, seed=3, field="real")
        X, Y, _ = generate_instance(spec)
        sol = solve_pd(X, Y)
        assert sol.residual <= 1e-12
        assert sol.property_deviation <= 1e-12
        assert sol.property.kind == "positive-definite"


SCIPY_ON_FIRST_FILE = """
import contextlib, io, json, os, sys, tempfile
import numpy as np
import targetkit as tk
import targetkit.cli

def loaded(*prefixes):
    return sorted(name for name in sys.modules if name.startswith(prefixes))

seen = {"import": loaded("scipy", "numpy.random")}
classes = [
    (tk.UNCONSTRAINED, tk.solve_unconstrained),
    (tk.INVERTIBLE, tk.solve_invertible),
    (tk.HERMITIAN, tk.solve_hermitian),
    (tk.INVERTIBLE_HERMITIAN, tk.solve_invertible_hermitian),
    (tk.POSITIVE_SEMIDEFINITE, tk.solve_psd),
    (tk.POSITIVE_DEFINITE, tk.solve_pd),
    (tk.UNITARY, tk.solve_unitary),
    (tk.UNITARY, tk.solve_unitary_polar),
    (tk.REFLECTION, tk.solve_reflection),
    (tk.ORTHOGONAL_PROJECTION, tk.solve_projection),
    (tk.COMPLEX_SYMMETRIC, tk.solve_complex_symmetric),
    (tk.NORMAL_VECTOR, tk.solve_normal_vector),
]
for prop, solver in classes:
    n = 1 if prop is tk.NORMAL_VECTOR else 3
    X, Y, _ = tk.generate_instance(tk.InstanceSpec(property=prop, m=6, n=n, seed=5, field="complex"))
    solver(X, Y)
two_point = tk.normal_two_point(1.5, -0.5)
X, Y, _ = tk.generate_instance(tk.InstanceSpec(property=two_point, m=6, n=3, seed=5, field="real"))
tk.solve_normal_two_point(X, Y, two_point.lam, two_point.mu)
seen["solve"] = loaded("scipy")
with contextlib.redirect_stderr(io.StringIO()):
    seen["usage_code"] = tk.cli.main(["check"])
seen["usage"] = loaded("scipy")
A = np.array([[1 / 3 + 0.1j, -2.5e-300], [np.pi, -0.0 + 7e300j]])
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "a.mtx")
    tk.write_matrix(path, A)
    B = tk.read_matrix(path)
seen["round_trip"] = B.dtype == A.dtype and B.tobytes() == A.tobytes()
seen["file"] = "scipy.io" in sys.modules
print(json.dumps(seen))
"""


def test_scipy_loads_only_for_matrix_market_files():
    # scipy.io and scipy.sparse take about 0.26 s to import and scipy.linalg
    # about 7 MB of resident memory: importing targetkit, solving every class
    # and a usage error load none of scipy, and numpy.random waits for a draw
    package_root = str(Path(targetkit.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (package_root, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", SCIPY_ON_FIRST_FILE],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    seen = json.loads(done.stdout.strip().splitlines()[-1])
    assert seen == {"import": [], "solve": [], "usage_code": 3, "usage": [],
                    "round_trip": True, "file": True}


TWO_POINT = normal_two_point(1.5, -0.5)

ENTRY_POINTS = [
    (solve_unconstrained, UNCONSTRAINED),
    (solve_invertible, INVERTIBLE),
    (solve_hermitian, HERMITIAN),
    (solve_invertible_hermitian, INVERTIBLE_HERMITIAN),
    (solve_psd, POSITIVE_SEMIDEFINITE),
    (solve_pd, POSITIVE_DEFINITE),
    (solve_unitary, UNITARY),
    (solve_unitary_polar, UNITARY),
    (solve_reflection, REFLECTION),
    (solve_projection, ORTHOGONAL_PROJECTION),
    (solve_complex_symmetric, COMPLEX_SYMMETRIC),
    (solve_normal_two_point, TWO_POINT),
    (solve_normal_vector, NORMAL_VECTOR),
]


def _call(solver, prop, X, Y):
    if prop.kind == "normal-two-point":
        return solver(X, Y, prop.lam, prop.mu)
    return solver(X, Y)


# every class through its own solver: the two-point class with real and
# with complex eigenvalues, the latter on complex data only
BY_CLASS = [
    (solver, prop, field)
    for solver, prop in ENTRY_POINTS + [(solve_normal_two_point, normal_two_point(1j, -2.0))]
    if solver is not solve_unitary_polar
    for field in ("real", "complex")
    if field == "complex" or prop.kind != "normal-two-point" or prop.lam.imag == 0
]


class TestSolveByClass:
    @pytest.mark.parametrize(
        "solver,prop,field",
        BY_CLASS,
        ids=[f"{p.kind}{'-imaginary' if p.lam and p.lam.imag else ''}-{f}" for _, p, f in BY_CLASS],
    )
    def test_same_solution_as_the_class_solver(self, solver, prop, field):
        n = 1 if prop is NORMAL_VECTOR else 3
        spec = InstanceSpec(prop, m=6, n=n, seed=29, field=field, rank_deficiency=0 if n == 1 else 1)
        X, Y, _ = generate_instance(spec)
        loose = TolerancePolicy(rank_rel_cutoff=1e-10, residual_tol=1e-8, sym_tol=1e-8, psd_tol=1e-8)
        for tol in (None, loose):
            sol = solvers.solve(prop, X, Y, tol)
            if prop.kind == "normal-two-point":
                direct = solver(X, Y, prop.lam, prop.mu, tol=tol)
            else:
                direct = solver(X, Y, tol=tol)
            assert sol.A.dtype == direct.A.dtype
            assert sol.A.tobytes() == direct.A.tobytes()
            assert sol.residual.hex() == direct.residual.hex()
            assert sol.property_deviation.hex() == direct.property_deviation.hex()
            assert sol.property == direct.property == prop

    def test_runs_the_module_attribute(self, monkeypatch):
        # a wrapper bound after import, as a tracer binds one, is what runs
        calls = []
        original = solvers.solve_psd

        def wrapper(X, Y, tol=None):
            calls.append((X, Y))
            return original(X, Y, tol=tol)

        monkeypatch.setattr(solvers, "solve_psd", wrapper)
        X, Y, _ = generate_instance(InstanceSpec(POSITIVE_SEMIDEFINITE, m=4, n=2, seed=3))
        sol = solvers.solve(POSITIVE_SEMIDEFINITE, X, Y)
        assert len(calls) == 1 and calls[0][0] is X and calls[0][1] is Y
        assert sol.A.tobytes() == original(X, Y).A.tobytes()


class TestSharedFactorization:
    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize(
        "solver,prop,deficiency",
        # a nonzero single column has full rank
        [(s, p, d) for s, p in ENTRY_POINTS for d in ((0,) if p is NORMAL_VECTOR else (0, 1))],
        ids=lambda x: getattr(x, "__name__", getattr(x, "kind", str(x))),
    )
    def test_one_svd_of_x_one_certificate_one_audit(self, monkeypatch, solver, prop, deficiency, field):
        n = 1 if prop is NORMAL_VECTOR else 3
        spec = InstanceSpec(prop, m=6, n=n, seed=23, field=field, rank_deficiency=deficiency)
        X, Y, _ = generate_instance(spec)
        coerced = as_matrix(X)
        counts = Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        svd = np.linalg.svd

        def svd_counting_x(a, *args, **kwargs):
            if np.shape(a) == coerced.shape and np.array_equal(a, coerced):
                counts["svd of X"] += 1
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", svd_counting_x)
        for kind, cls in list(feasibility._CLASSES.items()):
            counted = dataclasses.replace(cls, conditions=counting("certificate", cls.conditions))
            monkeypatch.setitem(feasibility._CLASSES, kind, counted)
        for name in ("verify_property", "_targeting_residual"):
            monkeypatch.setattr(solvers, name, counting(name, getattr(solvers, name)))
        _call(solver, prop, X, Y)
        assert counts["svd of X"] <= 1
        assert counts["certificate"] == 1
        assert counts["verify_property"] == 1 and counts["_targeting_residual"] == 1

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize(
        "solver,prop,svds",
        [(solve_psd, POSITIVE_SEMIDEFINITE, 2), (solve_pd, POSITIVE_DEFINITE, 3), (solve_invertible, INVERTIBLE, 4)],
        ids=lambda x: getattr(x, "__name__", getattr(x, "kind", str(x))),
    )
    def test_svds_per_solve(self, monkeypatch, solver, prop, svds, field):
        # every SVD of the solve, the one inside a spectral norm included:
        # definiteness is read off eigenvalues, so no spectral norm is taken
        X, Y, _ = generate_instance(InstanceSpec(prop, m=6, n=3, seed=23, field=field, rank_deficiency=1))
        calls = []
        svd, norm = np.linalg.svd, np.linalg.norm

        def counting_svd(*args, **kwargs):
            calls.append("svd")
            return svd(*args, **kwargs)

        def counting_norm(x, ord=None, *args, **kwargs):
            if ord == 2 and np.ndim(x) == 2:
                calls.append("spectral norm")
            return norm(x, ord, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        monkeypatch.setattr(np.linalg, "norm", counting_norm)
        solver(X, Y)
        assert calls == ["svd"] * svds

    @staticmethod
    def _count_coercions(monkeypatch, of=None) -> Counter:
        # as_matrix calls in every targetkit module, keyed by the calling
        # function; given ``of``, only the calls that coerce a copy of it
        callers = Counter()

        def counting(a, *args, **kwargs):
            if of is None or (np.shape(a) == np.shape(of) and np.array_equal(a, of)):
                frame = sys._getframe(1)
                callers[f"{frame.f_globals['__name__']}.{frame.f_code.co_name}"] += 1
            return as_matrix(a, *args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.partition(".")[0] == "targetkit" and getattr(module, "as_matrix", None) is as_matrix:
                monkeypatch.setattr(module, "as_matrix", counting)
        return callers

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize(
        "prop,deficiency",
        [(p, d) for p in {p.kind: p for _, p in ENTRY_POINTS}.values()
         for d in ((0,) if p is NORMAL_VECTOR else (0, 1))],
        ids=lambda x: getattr(x, "kind", str(x)),
    )
    def test_check_coerces_x_and_y_once(self, monkeypatch, prop, deficiency, field):
        n = 1 if prop is NORMAL_VECTOR else 3
        spec = InstanceSpec(prop, m=6, n=n, seed=23, field=field, rank_deficiency=deficiency)
        X, Y, _ = generate_instance(spec)
        callers = self._count_coercions(monkeypatch)
        check(prop, X, Y)
        assert callers == {"targetkit.feasibility.__init__": 2}

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize(
        "solver,prop,deficiency",
        # normal-vector takes single columns and is pinned on its own below
        [(s, p, d) for s, p in ENTRY_POINTS for d in (0, 1) if s is not solve_normal_vector],
        ids=lambda x: getattr(x, "__name__", getattr(x, "kind", str(x))),
    )
    def test_solvers_coerce_only_in_the_pair_and_the_audit(self, monkeypatch, solver, prop, deficiency, field):
        spec = InstanceSpec(prop, m=6, n=3, seed=23, field=field, rank_deficiency=deficiency)
        X, Y, _ = generate_instance(spec)
        callers = self._count_coercions(monkeypatch)
        _call(solver, prop, X, Y)
        pair = {"targetkit.feasibility.__init__": 2}
        audit = {"targetkit.solvers._finalize", "targetkit.verify.verify_property", "targetkit.verify.verify_targeting"}
        assert {k: v for k, v in callers.items() if k not in audit} == pair

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_normal_vector_coercions_are_pinned(self, monkeypatch, field):
        # beyond the pair and the audit, normal-vector coerces x and y up
        # front (so that bad input is named x or y), the unit vectors it hands
        # to the unitary construction, and the unitary factor it stores; the
        # audit coerces A once in _finalize and once in verify_property
        X, Y, _ = generate_instance(InstanceSpec(NORMAL_VECTOR, m=6, n=1, seed=23, field=field))
        callers = self._count_coercions(monkeypatch)
        solve_normal_vector(X, Y)
        assert callers["targetkit.solvers.solve_normal_vector"] == 3
        assert callers["targetkit.feasibility.__init__"] == 4
        assert sum(callers.values()) == 9

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("deficiency", [0, 1])
    @pytest.mark.parametrize("kind", ["hermitian", "reflection", "orthogonal-projection"])
    def test_source_builders_coerce_y_once(self, monkeypatch, kind, deficiency, field):
        Y = generate_instance(InstanceSpec(HERMITIAN, m=6, n=3, seed=23, field=field,
                                           rank_deficiency=deficiency))[1]
        blocks, _ = sources._random_source(kind, Y, 5, None)
        build = getattr(sources, "build_source_" + kind.rpartition("-")[2])
        callers = self._count_coercions(monkeypatch, of=Y)
        before_check = []

        def confirming(*args, **kwargs):
            before_check.append(sum(callers.values()))
            return check(*args, **kwargs)

        monkeypatch.setattr(sources, "check", confirming)
        build(Y, **blocks)
        assert before_check == [1], dict(callers)

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("deficiency", [0, 1])
    @pytest.mark.parametrize("kind", ["hermitian", "reflection", "orthogonal-projection"])
    def test_random_source_factors_y_once(self, monkeypatch, kind, deficiency, field):
        # the seeded draw and the builder share one partitioned SVD of Y
        Y = as_matrix(generate_instance(InstanceSpec(HERMITIAN, m=6, n=3, seed=23, field=field,
                                                     rank_deficiency=deficiency))[1])
        blocks, X = sources._random_source(kind, Y, 5, None)
        calls = []
        svd = np.linalg.svd

        def counting(a, *args, **kwargs):
            calls.append(np.shape(a) == Y.shape and np.array_equal(a, Y))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        again, X_again = sources._random_source(kind, Y, 5, None)
        assert calls.count(True) == 1
        assert np.array_equal(X_again, X) and all(np.array_equal(again[k], blocks[k]) for k in blocks)

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize(
        "solver,prop",
        # a nonzero pair of vectors always passes the normal-vector certificate
        [entry for entry in ENTRY_POINTS if entry[1] is not NORMAL_VECTOR],
        ids=lambda x: getattr(x, "__name__", getattr(x, "kind", "")),
    )
    def test_refusal_carries_the_public_certificate(self, solver, prop, field):
        rng = np.random.default_rng(29)

        def draw(shape):
            G = rng.standard_normal(shape)
            return G + 1j * rng.standard_normal(shape) if field == "complex" else G

        # rank-2 X: Y is not zero on its null space, and no product of the
        # pair has the structure any class asks for
        X = draw((5, 2)) @ draw((2, 3))
        Y = draw((5, 3))
        report = check(prop, X, Y)
        assert not report.feasible
        with pytest.raises(InfeasibleError) as exc:
            _call(solver, prop, X, Y)
        assert exc.value.report.to_dict() == report.to_dict()

    @pytest.mark.parametrize("scale", [2.0, 0.5j])
    def test_rank_proviso_payload(self, scale):
        X = np.array([[2.0, 1.0], [0.0, 3.0]])
        prop = normal_two_point(scale, -1.0)
        with pytest.raises(RankProvisoError) as exc:
            solve_normal_two_point(X, scale * X, prop.lam, prop.mu)
        assert exc.value.unique_solution_scale == scale
        assert type(exc.value.unique_solution_scale) is type(scale)
        assert exc.value.report.to_dict() == check(prop, X, scale * X).to_dict()
        assert str(exc.value) == (
            "the source is square and invertible with the target a scalar "
            f"multiple of it, so A = {scale} * I is the unique solution and "
            "no targeting matrix with a genuinely two-point spectrum exists"
        )


class TestAuditFailsClosed:
    @pytest.mark.parametrize(
        "solver,prop",
        ENTRY_POINTS,
        ids=lambda x: getattr(x, "__name__", getattr(x, "kind", "")),
    )
    def test_overflowing_pair_never_returns_a_nan_residual(self, solver, prop):
        # X = Y = 1e300 G: the residual of any candidate overflows to NaN
        X = 1e300 * np.random.default_rng(37).standard_normal((4, 2))
        with np.errstate(all="ignore"):
            try:
                sol = _call(solver, prop, X, X)
            except TargetkitError:
                return
        assert np.isfinite(sol.residual) and sol.residual <= 1e-9
