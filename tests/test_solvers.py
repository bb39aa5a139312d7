import dataclasses
import os
import subprocess
import sys
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
    RankProvisoError,
    ShapeError,
    TolerancePolicy,
    ZeroTargetError,
    ZeroVectorError,
    check,
    completion_blocks,
    completion_gap,
    normal_two_point,
    solution_family,
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
from targetkit import InstanceSpec, feasibility, generate_instance, solvers
from targetkit.linalg import as_matrix
from targetkit.solvers import _bordered, _lambda_candidates, _sigma_min_bounds

COL = lambda *vals: np.array(vals, dtype=float).reshape(-1, 1)

E1 = COL(1, 0)
E2 = COL(0, 1)


def assert_solution(sol, X, Y, prop):
    assert verify_targeting(sol.A, X, Y) <= 1e-9
    assert verify_property(sol.A, prop).passed
    assert sol.residual <= 1e-9


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


class TestSolutionFamily:
    def test_family_describes_all_solutions(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((4, 2))
        A_true = rng.standard_normal((4, 4))
        Y = A_true @ X
        A0, N = solution_family(X, Y)
        assert np.allclose(A0 @ X, Y, atol=1e-12)
        assert np.allclose(N @ X, 0, atol=1e-12)
        assert np.allclose(N @ N, N, atol=1e-12)
        for _ in range(5):
            Z = rng.standard_normal((4, 4))
            assert np.allclose((A0 + Z @ N) @ X, Y, atol=1e-11)
        # the true generator is recoverable from the family
        Z = A_true - A0
        assert np.allclose(A0 + (Z @ N), A_true @ (X @ np.linalg.pinv(X)) + Z @ N, atol=1e-11)


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


def _bordering_blocks(X, Y):
    f, blocks = completion_blocks(X, Y)
    return f, (blocks.H + blocks.H.conj().T) / 2, blocks.L


def _exhaustive_lambda(H, L, r):
    """Score every candidate with a full SVD; the first best one wins."""
    best, lam = -1.0, None
    for c in _lambda_candidates(H, L, r):
        s = np.linalg.svd(_bordered(H, L, c), compute_uv=False)
        if float(s[-1]) > best:
            best, lam = float(s[-1]), c
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
    sol = solve_invertible_hermitian(X, Y)
    f, H, L = _bordering_blocks(X, Y)
    if f.rank == X.shape[0]:
        assert sol.free_params["lam"] is None
        return
    lam = _exhaustive_lambda(H, L, f.rank)
    assert sol.free_params["lam"] == lam
    A = as_matrix(f.V @ _bordered(H, L, lam) @ f.V.conj().T, "A")
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
        f, H, L = _bordering_blocks(X, scale * Y)
        assert f.rank < m
        candidates = _lambda_candidates(H, L, f.rank)
        bounds = _sigma_min_bounds(H, L, candidates)
        assert bounds.shape == (len(candidates),)
        for lam, bound in zip(candidates, bounds):
            smin = np.linalg.svd(_bordered(H, L, lam), compute_uv=False)[-1]
            assert bound >= smin, (lam, bound, smin)

    def test_bound_holds_on_swap_pair(self):
        # H = 0: the pencil (L*L, H) has no finite eigenvalue
        f, H, L = _bordering_blocks(E1, E2)
        assert np.array_equal(H, np.zeros((1, 1)))
        candidates = _lambda_candidates(H, L, f.rank)
        bounds = _sigma_min_bounds(H, L, candidates)
        assert np.all(np.isfinite(bounds))
        for lam, bound in zip(candidates, bounds):
            assert bound >= np.linalg.svd(_bordered(H, L, lam), compute_uv=False)[-1]

    def test_c7_corpus_choice_unchanged(self):
        for t in range(200):
            X, Y, _ = generate_instance(_c7_spec(t))
            assert_exhaustive_choice(X, Y)

    def test_zero_pencil_eigenvalue_keeps_choice(self):
        # C7 seed 70146: m = 4, r = 3, so L is 1 x 3 and L*L has a null space;
        # its pencil pairs have mu ~ 0, L x ~ 0 and a test vector z ~ 0
        X, Y, _ = generate_instance(_c7_spec(146))
        f, H, L = _bordering_blocks(X, Y)
        assert (f.rank, L.shape) == (3, (1, 3))
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
        f, H, L = _bordering_blocks(X, Y)
        assert np.linalg.norm(L, 2) < np.linalg.norm(H, 2)
        assert_exhaustive_choice(X, Y)


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


SOLVE_EVERY_CLASS = """
import sys
import targetkit as tk

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
print(sorted(name for name in sys.modules if name.startswith("scipy.linalg")))
"""


def test_solving_every_class_leaves_scipy_linalg_unloaded():
    # scipy.linalg costs about 7 MB of resident memory; no solve path needs it
    package_root = str(Path(targetkit.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (package_root, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", SOLVE_EVERY_CLASS],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip() == "[]"


TWO_POINT = normal_two_point(1.5, -0.5)

ENTRY_POINTS = [
    (solve_unconstrained, UNCONSTRAINED),
    (solution_family, UNCONSTRAINED),
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
        for name in ("verify_property", "verify_targeting"):
            monkeypatch.setattr(solvers, name, counting(name, getattr(solvers, name)))
        _call(solver, prop, X, Y)
        audits = 0 if solver is solution_family else 1
        assert counts["svd of X"] <= 1
        assert counts["certificate"] == 1
        assert counts["verify_property"] == audits and counts["verify_targeting"] == audits

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
