import numpy as np
import pytest

from targetkit import (
    HERMITIAN,
    ORTHOGONAL_PROJECTION,
    REFLECTION,
    ConditionViolatedError,
    InstanceSpec,
    ShapeError,
    build_source_hermitian,
    build_source_projection,
    build_source_reflection,
    check,
    generate_instance,
    solve_hermitian,
    solve_projection,
    solve_reflection,
    svd_partitioned,
    target_frame_blocks,
)


def random_target(seed, m, n, field="complex", rank_deficiency=0):
    spec = InstanceSpec(
        property=HERMITIAN, m=m, n=n, seed=seed, field=field, rank_deficiency=rank_deficiency
    )
    _, Y, _ = generate_instance(spec)
    return Y


def zeros_block(rows, cols):
    # zero-width blocks must be omitted, not passed as empty arrays
    if rows == 0 or cols == 0:
        return None
    return np.zeros((rows, cols))


def random_block(rng, rows, cols, field="complex"):
    if rows == 0 or cols == 0:
        return None
    b = rng.standard_normal((rows, cols))
    if field == "complex":
        b = b + 1j * rng.standard_normal((rows, cols))
    return b


class TestHermitianBuilder:
    def test_identity_blocks_recover_target(self):
        Y = random_target(1, 4, 3)
        f = svd_partitioned(Y)
        r = f.rank
        X = build_source_hermitian(
            Y, np.diag(f.sigma), zeros_block(4 - r, r), zeros_block(4 - r, 3 - r)
        )
        assert np.allclose(X, Y, atol=1e-12)

    def test_column_example_frozen(self):
        Y = np.array([[1.0], [0.0]])
        X = build_source_hermitian(Y, np.array([[2.0]]), np.array([[0.0]]), None)
        assert np.allclose(X, np.array([[2.0], [0.0]]), atol=1e-14)
        sol = solve_hermitian(X, Y)
        assert sol.residual <= 1e-12

    def test_zero_corner_is_admissible(self):
        # the intersection hypothesis holds when the free corner vanishes:
        # span of Z22 is trivial, so a singular Z11 with full stacked rank
        # still yields a feasible source
        Y = np.diag([1.0, 0.0])
        X = build_source_hermitian(
            Y, np.array([[0.0]]), np.array([[1.0]]), np.array([[0.0]])
        )
        assert np.allclose(np.abs(X), np.array([[0.0, 0.0], [1.0, 0.0]]), atol=1e-14)
        assert check(HERMITIAN, X, Y).feasible

    def test_nonzero_corner_violates_intersection(self):
        Y = np.diag([1.0, 0.0])
        with pytest.raises(ConditionViolatedError, match="intersect"):
            build_source_hermitian(Y, np.array([[0.0]]), np.array([[1.0]]), np.array([[1.0]]))

    def test_twisted_symmetry_enforced(self):
        Y = random_target(2, 3, 2)
        r = svd_partitioned(Y).rank
        bad = np.triu(np.ones((r, r)), 1) + np.eye(r)
        with pytest.raises(ConditionViolatedError, match="Sigma"):
            build_source_hermitian(Y, bad, zeros_block(3 - r, r), zeros_block(3 - r, 2 - r))

    def test_stacked_rank_enforced(self):
        Y = np.diag([1.0, 0.0])
        with pytest.raises(ConditionViolatedError, match="rank"):
            build_source_hermitian(Y, np.array([[0.0]]), np.array([[0.0]]), np.array([[0.0]]))

    def test_invertible_head_fast_path(self):
        Y = random_target(3, 4, 2)
        f = svd_partitioned(Y)
        r = f.rank
        rng = np.random.default_rng(5)
        K = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
        K = (K + K.conj().T) / 2
        Z11 = K / f.sigma[:, None]
        X = build_source_hermitian(
            Y, Z11, random_block(rng, 4 - r, r), random_block(rng, 4 - r, 2 - r)
        )
        assert check(HERMITIAN, X, Y).feasible
        assert solve_hermitian(X, Y).residual <= 1e-9

    def test_block_shape_validation(self):
        Y = np.diag([1.0, 0.0])
        with pytest.raises(ShapeError):
            build_source_hermitian(Y, np.eye(2))
        with pytest.raises(ShapeError):
            build_source_hermitian(Y, np.array([[1.0]]))  # Z21 required but missing
        with pytest.raises(ShapeError):
            build_source_hermitian(
                Y, np.array([[1.0]]), np.array([[1.0]]), np.array([[1.0, 2.0]])
            )

    def test_zero_width_corner_must_be_omitted(self):
        Y = random_target(4, 3, 3)
        r = svd_partitioned(Y).rank
        if r < 3:
            pytest.skip("needs a full-rank draw")
        with pytest.raises(ShapeError, match="omitted"):
            build_source_hermitian(Y, np.eye(r), np.zeros((0, r)), None)


class TestReflectionBuilder:
    def test_identity_gives_target_itself(self):
        Y = random_target(7, 4, 2)
        r = svd_partitioned(Y).rank
        X = build_source_reflection(Y, np.eye(r), zeros_block(4 - r, r))
        assert np.allclose(X, Y, atol=1e-12)

    def test_negated_identity_gives_negated_target(self):
        Y = random_target(8, 3, 2)
        r = svd_partitioned(Y).rank
        X = build_source_reflection(Y, -np.eye(r), zeros_block(3 - r, r))
        assert np.allclose(X, -Y, atol=1e-12)

    def test_rotated_column_frozen(self):
        Y = np.array([[1.0], [0.0]])
        X = build_source_reflection(Y, np.array([[0.0]]), np.array([[1.0]]))
        assert np.linalg.norm(X) == pytest.approx(np.linalg.norm(Y))
        assert abs((X.conj().T @ Y)[0, 0]) <= 1e-14
        sol = solve_reflection(X, Y)
        assert sol.residual <= 1e-12

    def test_orthonormality_enforced(self):
        Y = np.diag([1.0, 0.0])
        with pytest.raises(ConditionViolatedError, match="orthonormal"):
            build_source_reflection(Y, np.array([[0.5]]), np.array([[0.1]]))

    def test_hermitian_corner_enforced(self):
        Y = random_target(9, 4, 3, field="complex")
        r = svd_partitioned(Y).rank
        U11 = np.zeros((r, r), dtype=complex)
        U11[0, -1] = 1j  # not Hermitian
        with pytest.raises(ConditionViolatedError, match="Hermitian"):
            build_source_reflection(Y, U11, zeros_block(4 - r, r))


class TestProjectionBuilder:
    def test_zero_blocks_recover_target(self):
        Y = random_target(10, 4, 2)
        r = svd_partitioned(Y).rank
        X = build_source_projection(Y, zeros_block(4 - r, r), zeros_block(4 - r, 2 - r))
        assert np.allclose(X, Y, atol=1e-12)

    def test_column_example_frozen(self):
        Y = np.array([[1.0], [0.0]])
        X = build_source_projection(Y, np.array([[5.0]]), None)
        assert np.allclose(np.abs(X), np.array([[1.0], [5.0]]), atol=1e-14)
        assert (Y.conj().T @ X)[0, 0] == pytest.approx((Y.conj().T @ Y)[0, 0])

    def test_any_blocks_feasible(self):
        rng = np.random.default_rng(11)
        Y = random_target(12, 4, 3)
        r = svd_partitioned(Y).rank
        for _ in range(10):
            X = build_source_projection(
                Y, random_block(rng, 4 - r, r), random_block(rng, 4 - r, 3 - r)
            )
            assert check(ORTHOGONAL_PROJECTION, X, Y).feasible
            assert solve_projection(X, Y).residual <= 1e-9


def hermitian_block_conditions(X, Y, tol=1e-8):
    """The complete characterization in the target frame: top-right block
    vanishes and the head block twists Hermitian against the singular
    values."""
    blocks = target_frame_blocks(X, Y)
    f = svd_partitioned(Y)
    ok = True
    if "Z12" in blocks:
        ok &= np.linalg.norm(blocks["Z12"]) <= tol * max(1, np.linalg.norm(X))
    Z11 = blocks["Z11"]
    twisted = f.sigma[:, None] * Z11
    ok &= np.linalg.norm(twisted - Z11.conj().T * f.sigma[None, :]) <= tol * max(
        1, np.linalg.norm(twisted)
    )
    return bool(ok)


class TestCompleteness:
    """Every feasible pair decomposes into conforming blocks, so the
    builders reach all sources, not just some."""

    def test_hermitian_feasible_pairs_have_conforming_blocks(self):
        for seed in range(1, 201):
            m = 2 + seed % 4
            n = 1 + seed % m
            spec = InstanceSpec(
                property=HERMITIAN,
                m=m,
                n=n,
                seed=seed,
                field="complex" if seed % 2 else "real",
                rank_deficiency=seed % 2 if min(m, n) > 1 else 0,
            )
            X, Y, _ = generate_instance(spec)
            assert hermitian_block_conditions(X, Y), f"seed={seed}"

    def test_reflection_feasible_pairs_have_conforming_blocks(self):
        for seed in range(1, 201):
            m = 2 + seed % 4
            n = 1 + seed % m
            spec = InstanceSpec(
                property=REFLECTION, m=m, n=n, seed=seed,
                field="complex" if seed % 2 else "real",
            )
            X, Y, _ = generate_instance(spec)
            blocks = target_frame_blocks(X, Y)
            f = svd_partitioned(Y)
            scale = max(1.0, float(np.linalg.norm(X)))
            if "Z12" in blocks:
                assert np.linalg.norm(blocks["Z12"]) <= 1e-8 * scale, f"seed={seed}"
            if "Z22" in blocks:
                assert np.linalg.norm(blocks["Z22"]) <= 1e-8 * scale, f"seed={seed}"
            U11 = blocks["Z11"] / f.sigma[None, :]
            stack = [U11]
            if "Z21" in blocks:
                stack.append(blocks["Z21"] / f.sigma[None, :])
            U1 = np.vstack(stack)
            assert np.linalg.norm(U11 - U11.conj().T) <= 1e-8, f"seed={seed}"
            assert np.linalg.norm(U1.conj().T @ U1 - np.eye(f.rank)) <= 1e-8, f"seed={seed}"

    def test_projection_feasible_pairs_have_conforming_blocks(self):
        for seed in range(1, 201):
            m = 2 + seed % 4
            n = 1 + seed % m
            spec = InstanceSpec(
                property=ORTHOGONAL_PROJECTION, m=m, n=n, seed=seed,
                field="complex" if seed % 2 else "real",
            )
            X, Y, _ = generate_instance(spec)
            blocks = target_frame_blocks(X, Y)
            f = svd_partitioned(Y)
            scale = max(1.0, float(np.linalg.norm(X)))
            assert np.allclose(blocks["Z11"], np.diag(f.sigma), atol=1e-8 * scale), f"seed={seed}"
            if "Z12" in blocks:
                assert np.linalg.norm(blocks["Z12"]) <= 1e-8 * scale, f"seed={seed}"

    def test_rebuild_from_frame_blocks_round_trips(self):
        # extract the blocks of a feasible pair and feed them back through
        # the builder: the same source must come out
        for seed in (21, 22, 23, 24, 25):
            spec = InstanceSpec(property=HERMITIAN, m=4, n=3, seed=seed, field="complex")
            X, Y, _ = generate_instance(spec)
            blocks = target_frame_blocks(X, Y)
            f = svd_partitioned(Y)
            r = f.rank
            rebuilt = build_source_hermitian(
                Y,
                blocks["Z11"],
                blocks.get("Z21") if 4 - r else None,
                blocks.get("Z22") if (4 - r) and (3 - r) else None,
            )
            assert np.allclose(rebuilt, X, atol=1e-9 * max(1, np.linalg.norm(X))), f"seed={seed}"
