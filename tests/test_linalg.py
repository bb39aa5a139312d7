import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from targetkit import (
    DEFAULT_TOL,
    ShapeError,
    TolerancePolicy,
    ZeroMatrixError,
    numerical_rank,
    schur_congruence,
    svd_partitioned,
)
from targetkit.errors import BadVariantPreconditionError
from targetkit.linalg import (
    _complete_orthonormal,
    _fro,
    _nearest_orthonormal,
    _partition,
    as_matrix,
    is_zero_matrix,
)

SHAPES = [(1, 1), (3, 1), (4, 3), (5, 5), (2, 4), (6, 2)]


def random_matrix(rng, m, n, field="complex", rank=None):
    def draw():
        G = rng.standard_normal((m, n))
        if field == "complex":
            G = G + 1j * rng.standard_normal((m, n))
        return G

    if rank is None:
        return draw()
    G = draw()
    u, s, vh = np.linalg.svd(G, full_matrices=False)
    s = np.linspace(2.0, 1.0, len(s))
    s[rank:] = 0.0
    return (u * s) @ vh


def corpus(field):
    rng = np.random.default_rng(20240601)
    for m, n in SHAPES:
        yield random_matrix(rng, m, n, field)
        if min(m, n) > 1:
            yield random_matrix(rng, m, n, field, rank=min(m, n) - 1)


class TestAsMatrix:
    def test_column_from_1d(self):
        out = as_matrix([1.0, 2.0])
        assert out.shape == (2, 1)
        assert out.dtype == np.float64

    def test_complex_with_zero_imag_demotes_to_real(self):
        out = as_matrix(np.array([[1 + 0j, 2 + 0j]]))
        assert out.dtype == np.float64

    def test_complex_stays_complex(self):
        assert as_matrix(np.array([[1j]])).dtype == np.complex128

    def test_rejects_empty_and_high_rank(self):
        with pytest.raises(ShapeError):
            as_matrix(np.zeros((0, 2)))
        with pytest.raises(ShapeError):
            as_matrix(np.zeros((2, 2, 2)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            as_matrix(np.array([[np.nan]]))
        with pytest.raises(ValueError):
            as_matrix(np.array([[np.inf, 1.0]]))

    def test_rejects_non_numeric(self):
        with pytest.raises(ValueError):
            as_matrix(np.array([["a"]]))

    # one case per dtype kind the coercion branches on: (input, result dtype)
    @pytest.mark.parametrize(
        "a, dtype",
        [
            (np.array([[1, 2]], dtype="m8[s]"), np.float64),
            (np.array([[1.5, 2.0]], dtype=np.float16), np.float64),
            (np.array([[1.5, 2.0]], dtype=np.float32), np.float64),
            (np.array([[1.5, 2.0]], dtype=np.longdouble), np.float64),
            (np.array([[1.5, 2j]], dtype=np.complex64), np.complex128),
            (np.array([[1.5, 2j]], dtype=np.clongdouble), np.complex128),
            (np.array([[1, -2]], dtype=np.int8), np.float64),
            (np.array([[1, 2]], dtype=np.uint64), np.float64),
            ([[1, 2], [3, 4]], np.float64),
        ],
        ids=["timedelta64", "float16", "float32", "longdouble", "complex64", "clongdouble",
             "int8", "uint64", "nested-int-list"],
    )
    def test_widens_every_numeric_kind(self, a, dtype):
        out = as_matrix(a)
        assert out.dtype == dtype
        assert np.array_equal(out, np.asarray(a).astype(dtype))

    @pytest.mark.parametrize(
        "a",
        [
            np.eye(2, dtype=bool),
            np.array([[1.0, 2.0]], dtype=object),
            np.array([["2026-10-19"]], dtype="datetime64[D]"),
            np.array([["a"]]),
        ],
        ids=["bool", "object", "datetime64", "str"],
    )
    def test_refuses_non_numeric_kinds(self, a):
        with pytest.raises(ValueError, match=re.escape(f"A must be numeric, got dtype {a.dtype}")):
            as_matrix(a, "A")

    @pytest.mark.parametrize("imag", [0.0, -0.0], ids=["zero", "negative-zero"])
    def test_exactly_real_complex_becomes_c_ordered_float64(self, imag):
        a = np.asfortranarray(np.array([[1.0, 2.0], [3.0, 4.0]]) + 1j * imag)
        out = as_matrix(a)
        assert out.dtype == np.float64 and out.flags.c_contiguous
        assert np.array_equal(out, a.real)

    @pytest.mark.parametrize("imag", [np.nan, np.inf], ids=["nan", "inf"])
    def test_refuses_non_finite_imaginary_part(self, imag):
        with pytest.raises(ValueError, match="^A contains non-finite entries$"):
            as_matrix(np.array([[1.0 + 1j * imag]]), "A")

    def test_keeps_the_memory_order_of_a_real_input(self):
        assert as_matrix(np.asfortranarray(np.ones((3, 2)))).flags.f_contiguous

    @pytest.mark.parametrize(
        "a",
        [np.ones((2, 2)), np.ones(3), np.ones((2, 2), dtype=complex), np.ones((2, 2)) + 1j,
         np.ones((2, 2), dtype=np.float32), np.ones((4, 4))[::2, 1::2]],
        ids=["float64", "float64-1d", "complex-real", "complex", "float32", "strided-view"],
    )
    def test_result_never_aliases_the_input(self, a):
        out = as_matrix(a)
        before = out.copy()
        a[...] = 7
        assert not np.shares_memory(out, a)
        assert np.array_equal(out, before)


@st.composite
def _norm_arrays(draw):
    # real or complex, C or F ordered, a strided view or empty, with entries
    # of magnitude up to 1e-150 to 1e150.  Whether a norm of entries below
    # about 1e-154 underflows is not pinned: item 1 of the ROADMAP mends it
    m, n = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    magnitude = st.floats(-150, 150).map(lambda e: 10.0**e)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.uniform(-1.0, 1.0, (2 * m + 1, 2 * n + 2)) * draw(magnitude)
    if draw(st.booleans()):
        a = a + 1j * rng.uniform(-1.0, 1.0, a.shape) * draw(magnitude)
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    if layout == "F":
        return np.asfortranarray(a[:m, :n])
    if layout == "strided":
        return a[::2, 1::2][:m, :n]
    return np.ascontiguousarray(a[:m, :n])


class TestFrobeniusNorm:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_norm_arrays())
    def test_equals_numpy_norm_bit_for_bit(self, a):
        expected = float(np.linalg.norm(a))
        assert _fro(a).hex() == expected.hex()
        tol = TolerancePolicy(zero_matrix_tol=expected if expected > 0 else 1e-300)
        assert is_zero_matrix(a, tol)
        assert is_zero_matrix(a) == (expected <= DEFAULT_TOL.zero_matrix_tol)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_inf_and_nan_propagate(self, value, dtype):
        a = np.ones((3, 2), dtype=dtype)
        a[1, 1] = value
        b = np.ones((3, 2), dtype=complex)
        b[0, 1] = complex(0.0, value)
        for m in (a, b):
            expected = float(np.linalg.norm(m))
            assert not np.isfinite(expected)
            assert _fro(m).hex() == expected.hex()
            assert not is_zero_matrix(m)


class TestTolerancePolicy:
    def test_defaults(self):
        assert DEFAULT_TOL.rank_rel_cutoff == 1e-12
        assert DEFAULT_TOL.residual_tol == 1e-9

    @pytest.mark.parametrize("field", ["rank_rel_cutoff", "sym_tol", "psd_tol", "residual_tol"])
    def test_rejects_non_positive(self, field):
        with pytest.raises(ValueError):
            TolerancePolicy(**{field: 0.0})
        with pytest.raises(ValueError):
            TolerancePolicy(**{field: -1.0})

    def test_rank_cutoff_scales_with_dimension(self):
        tol = TolerancePolicy()
        assert tol.rank_cutoff(2.0, 3, 5) == pytest.approx(1e-12 * 2.0 * 5)


class TestSvdPartitioned:
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_reconstruction_and_orthogonality(self, field):
        for X in corpus(field):
            f = svd_partitioned(X)
            m, n = X.shape
            assert f.V.shape == (m, m) and f.W.shape == (n, n)
            assert np.allclose((f.V1 * f.sigma) @ f.W1.conj().T, X, atol=1e-12)
            assert np.allclose(f.V.conj().T @ f.V, np.eye(m), atol=1e-12)
            assert np.allclose(f.W.conj().T @ f.W, np.eye(n), atol=1e-12)
            assert np.all(np.diff(f.sigma) <= 0)
            assert len(f.sigma) == f.rank

    def test_rank_partition_splits_v_and_w(self):
        rng = np.random.default_rng(3)
        X = random_matrix(rng, 5, 4, "complex", rank=2)
        f = svd_partitioned(X)
        assert f.rank == 2
        assert f.V1.shape == (5, 2) and f.V2.shape == (5, 3)
        assert f.W1.shape == (4, 2) and f.W2.shape == (4, 2)
        assert np.allclose(X @ f.W2, 0, atol=1e-12)

    def test_zero_matrix_rejected(self):
        with pytest.raises(ZeroMatrixError):
            svd_partitioned(np.zeros((2, 2)))


class TestNumericalRank:
    @pytest.mark.parametrize(
        "X,expected",
        [
            (np.eye(3), 3),
            (np.diag([1.0, 1e-20]), 1),
            (np.zeros((2, 3)), 0),
            (np.array([[1.0, 1.0], [1.0, 1.0]]), 1),
        ],
    )
    def test_frozen_cases(self, X, expected):
        assert numerical_rank(X) == expected

    def test_respects_cutoff_policy(self):
        X = np.diag([1.0, 1e-6])
        assert numerical_rank(X) == 2
        assert numerical_rank(X, TolerancePolicy(rank_rel_cutoff=1e-3)) == 1


class TestNullSpaceBasis:
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_annihilates_and_orthonormal(self, field):
        for X in corpus(field):
            N = svd_partitioned(X).W2
            n = X.shape[1]
            assert N.shape == (n, n - numerical_rank(X))
            assert np.allclose(X @ N, 0, atol=1e-12 * max(1, np.linalg.norm(X)))
            assert np.allclose(N.conj().T @ N, np.eye(N.shape[1]), atol=1e-12)

    def test_zero_matrix_has_full_null_space(self):
        # the zero-matrix conventions of _partition, which the prepared pair
        # of every solver call relies on
        assert np.array_equal(_partition(np.zeros((2, 3)), DEFAULT_TOL).W2, np.eye(3))


class TestPseudoinverse:
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_penrose_identities(self, field):
        for X in corpus(field):
            P = svd_partitioned(X).pinv()
            scale = max(1.0, np.linalg.norm(X))
            assert np.allclose(X @ P @ X, X, atol=1e-11 * scale)
            assert np.allclose(P @ X @ P, P, atol=1e-11 * scale)
            assert np.allclose((X @ P).conj().T, X @ P, atol=1e-11)
            assert np.allclose((P @ X).conj().T, P @ X, atol=1e-11)

    def test_agrees_with_numpy_on_well_conditioned_input(self):
        rng = np.random.default_rng(11)
        X = random_matrix(rng, 5, 3, "complex")
        assert np.allclose(svd_partitioned(X).pinv(), np.linalg.pinv(X), atol=1e-10)

    def test_zero_matrix_maps_to_zero(self):
        assert np.array_equal(_partition(np.zeros((2, 3)), DEFAULT_TOL).pinv(), np.zeros((3, 2)))

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 5))
    def test_penrose_holds_for_arbitrary_seeds(self, seed, m, n):
        rng = np.random.default_rng(seed)
        X = random_matrix(rng, m, n, "complex")
        P = svd_partitioned(X).pinv()
        scale = max(1.0, np.linalg.norm(X))
        assert np.allclose(X @ P @ X, X, atol=1e-10 * scale)
        assert np.allclose(P @ X @ P, P, atol=1e-10 * scale)


class TestOrthogonalProjector:
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_projects_onto_column_space(self, field):
        for X in corpus(field):
            P = svd_partitioned(X).projector()
            assert np.allclose(P, P.conj().T, atol=1e-13)
            assert np.allclose(P @ P, P, atol=1e-13)
            assert np.allclose(P @ X, X, atol=1e-12 * max(1, np.linalg.norm(X)))
            assert numerical_rank(P) == numerical_rank(X) or numerical_rank(X) == 0

    def test_zero_matrix(self):
        assert np.array_equal(_partition(np.zeros((3, 2)), DEFAULT_TOL).projector(), np.zeros((3, 3)))


class TestNearestOrthonormal:
    def test_result_is_orthonormal(self):
        rng = np.random.default_rng(7)
        B = random_matrix(rng, 5, 3, "complex")
        Q = _nearest_orthonormal(B)
        assert np.allclose(Q.conj().T @ Q, np.eye(3), atol=1e-13)

    def test_orthonormal_input_is_fixed_point(self):
        rng = np.random.default_rng(8)
        Q0 = np.linalg.qr(random_matrix(rng, 4, 2, "complex"))[0]
        assert np.allclose(_nearest_orthonormal(Q0), Q0, atol=1e-13)


class TestCompleteOrthonormal:
    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("m,r", [(1, 1), (3, 1), (4, 2), (5, 5)])
    def test_completes_to_unitary_keeping_prefix(self, field, m, r):
        rng = np.random.default_rng(100 * m + r)
        B1 = np.linalg.qr(random_matrix(rng, m, r, field))[0]
        U = _complete_orthonormal(B1)
        assert U.shape == (m, m)
        assert np.array_equal(U[:, :r], B1)
        assert np.allclose(U.conj().T @ U, np.eye(m), atol=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        B1 = np.linalg.qr(random_matrix(rng, 6, 2, "complex"))[0]
        U1 = _complete_orthonormal(B1)
        U2 = _complete_orthonormal(B1.copy())
        assert np.array_equal(U1, U2)

    def test_phase_convention_on_new_columns(self):
        rng = np.random.default_rng(10)
        B1 = np.linalg.qr(random_matrix(rng, 5, 2, "complex"))[0]
        U = _complete_orthonormal(B1)
        for j in range(2, 5):
            col = U[:, j]
            i = int(np.argmax(np.abs(col) > 1e-8 * np.abs(col).max()))
            pivot = col[i]
            assert abs(pivot.imag) < 1e-12
            assert pivot.real > 0


class TestSchurCongruence:
    def test_eliminate_corner_frozen(self):
        S, D = schur_congruence(np.array([[1.0]]), np.array([[1.0]]), 2.0, "eliminate-corner")
        assert np.allclose(D, np.diag([0.5, 2.0]))
        assert np.allclose(S, np.array([[1.0, 0.0], [-0.5, 1.0]]))

    def test_eliminate_head_frozen(self):
        S, D = schur_congruence(np.array([[1.0]]), np.array([[1.0]]), 2.0, "eliminate-head")
        assert np.allclose(D, np.eye(2))
        assert np.allclose(S, np.array([[1.0, -1.0], [0.0, 1.0]]))

    def test_eliminate_head_pseudo_frozen(self):
        H = np.diag([1.0, 0.0])
        L = np.array([[1.0, 0.0]])
        S, D = schur_congruence(H, L, 3.0, "eliminate-head-pseudo")
        assert np.allclose(D, np.diag([1.0, 0.0, 2.0]))

    @pytest.mark.parametrize(
        "variant", ["eliminate-corner", "eliminate-head", "eliminate-head-pseudo"]
    )
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_congruence_identity_random(self, variant, field):
        rng = np.random.default_rng(hash((variant, field)) % 2**32)
        for _ in range(30):
            r, p = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            H = random_matrix(rng, r, r, field)
            H = (H + H.conj().T) / 2
            if variant == "eliminate-head":
                H = H + (np.abs(np.linalg.eigvalsh(H)).max() + 1.0) * np.eye(r)
            L = random_matrix(rng, p, r, field)
            if variant == "eliminate-head-pseudo":
                H[:, -1] = 0
                H[-1, :] = 0
                L = L @ H  # forces null H inside null L
            lam = float(rng.uniform(0.5, 2.0)) * (1 if rng.uniform() < 0.5 else -1)
            S, D = schur_congruence(H, L, lam, variant)
            B = np.zeros((r + p, r + p), dtype=np.result_type(H, L))
            B[:r, :r] = H
            B[:r, r:] = L.conj().T
            B[r:, :r] = L
            B[r:, r:] = lam * np.eye(p)
            scale = max(1.0, np.linalg.norm(B))
            assert np.linalg.norm(S.conj().T @ B @ S - D) <= 1e-10 * scale

    def test_precondition_errors(self):
        H = np.array([[1.0]])
        L = np.array([[1.0]])
        with pytest.raises(BadVariantPreconditionError):
            schur_congruence(H, L, 0.0, "eliminate-corner")
        with pytest.raises(BadVariantPreconditionError):
            schur_congruence(np.array([[0.0]]), L, 1.0, "eliminate-head")
        with pytest.raises(BadVariantPreconditionError):
            schur_congruence(np.array([[0.0]]), L, 1.0, "eliminate-head-pseudo")
        with pytest.raises(BadVariantPreconditionError):
            schur_congruence(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2), 1.0, "eliminate-head")
        with pytest.raises(BadVariantPreconditionError):
            schur_congruence(H, L, 1.0 + 1.0j, "eliminate-corner")
        with pytest.raises(ValueError):
            schur_congruence(H, L, 1.0, "no-such-variant")

    def test_shape_errors(self):
        with pytest.raises(ShapeError, match="H must be square"):
            schur_congruence(np.ones((2, 3)), np.ones((1, 3)), 1.0, "eliminate-corner")
        with pytest.raises(ShapeError, match="L must have 2 columns"):
            schur_congruence(np.eye(2), np.ones((1, 3)), 1.0, "eliminate-corner")

    @pytest.mark.parametrize(
        "variant", ["eliminate-corner", "eliminate-head", "eliminate-head-pseudo"]
    )
    def test_complex_scalar_with_zero_imaginary_part_is_real(self, variant):
        H, L = np.diag([2.0, 1.0]), np.array([[1.0, 0.5]])
        S, D = schur_congruence(H, L, complex(2, 0), variant)
        S_real, D_real = schur_congruence(H, L, 2.0, variant)
        assert S.dtype == S_real.dtype and np.array_equal(S, S_real)
        assert D.dtype == D_real.dtype and np.array_equal(D, D_real)

    @pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "variant", ["eliminate-corner", "eliminate-head", "eliminate-head-pseudo"]
    )
    def test_non_finite_scalar_rejected(self, variant, lam):
        with pytest.raises(BadVariantPreconditionError):
            schur_congruence(np.array([[1.0]]), np.array([[1.0]]), lam, variant)
