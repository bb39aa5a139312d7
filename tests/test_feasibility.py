import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from targetkit import (
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
    DEFAULT_TOL,
    InstanceSpec,
    NumericFailureError,
    PropertyClass,
    ShapeError,
    TolerancePolicy,
    ZeroTargetError,
    ZeroVectorError,
    Condition,
    check,
    feasibility,
    generate_instance,
    normal_two_point,
)
from _cholesky_rule import decline_point
from targetkit.feasibility import _CLASSES
from targetkit.linalg import _fro, _partition, _rank

PROPERTY_KINDS = frozenset(_CLASSES)
COL = lambda *vals: np.array(vals, dtype=complex).reshape(-1, 1)


def condition_map(report):
    return {c.name: c for c in report.conditions}


class TestPropertyClass:
    def test_all_kinds_constructible(self):
        for kind in PROPERTY_KINDS - {"normal-two-point"}:
            assert PropertyClass(kind).label() == kind

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            PropertyClass("almost-hermitian")

    def test_two_point_needs_distinct_eigenvalues(self):
        with pytest.raises(ValueError):
            normal_two_point(1.0, 1.0)
        with pytest.raises(ValueError):
            PropertyClass("normal-two-point", lam=2.0)

    @pytest.mark.parametrize("lam,mu", [(np.nan, 1.0), (np.inf, 1.0), (1.0, complex(1.0, np.nan)), (0.0, -np.inf)])
    def test_two_point_eigenvalues_must_be_finite(self, lam, mu):
        with pytest.raises(ValueError, match="finite"):
            normal_two_point(lam, mu)
        with pytest.raises(ValueError, match="finite"):
            PropertyClass("normal-two-point", lam=lam, mu=mu)

    def test_eigenvalues_only_for_two_point(self):
        with pytest.raises(ValueError):
            PropertyClass("hermitian", lam=1.0)

    def test_two_point_label_mentions_eigenvalues(self):
        label = normal_two_point(1.0, -1.0).label()
        assert "normal-two-point" in label
        assert "1" in label and "-1" in label


class TestUnconstrained:
    def test_null_inclusion_counterexample(self):
        X = np.array([[1.0, 0.0], [0.0, 0.0]])
        Y = np.array([[0.0, 1.0], [0.0, 0.0]])
        report = check(UNCONSTRAINED, X, Y)
        assert not report.feasible
        cond = condition_map(report)["null-space-inclusion"]
        assert not cond.satisfied
        assert cond.deviation == pytest.approx(1.0)

    def test_full_rank_source_always_feasible(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((4, 3))
        Y = rng.standard_normal((4, 3))
        assert check(UNCONSTRAINED, X, Y).feasible

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            check(UNCONSTRAINED, np.eye(2), np.eye(3))


class TestZeroSource:
    def test_zero_to_zero_feasible(self):
        report = check(HERMITIAN, np.zeros((2, 2)), np.zeros((2, 2)))
        assert report.feasible
        assert "zero-source-zero-target" in condition_map(report)

    def test_zero_to_nonzero_infeasible(self):
        report = check(UNITARY, np.zeros((2, 2)), np.eye(2))
        assert not report.feasible


class TestHermitian:
    def test_swap_pair_feasible(self):
        assert check(HERMITIAN, COL(1, 0), COL(0, 1)).feasible

    def test_imaginary_scaling_infeasible(self):
        report = check(HERMITIAN, COL(1, 0), COL(1j, 0))
        assert not report.feasible
        cond = condition_map(report)["hermitian-product"]
        assert cond.deviation == pytest.approx(2.0)

    def test_rank_gap_allowed_without_invertibility(self):
        X = np.eye(2)
        Y = np.diag([1.0, 0.0])
        assert check(HERMITIAN, X, Y).feasible
        report = check(INVERTIBLE_HERMITIAN, X, Y)
        assert not report.feasible
        assert not condition_map(report)["rank-equality"].satisfied


class TestInvertible:
    def test_needs_equal_ranks_and_null(self):
        X = np.array([[1.0, 0.0], [0.0, 0.0]])
        assert check(INVERTIBLE, X, X).feasible
        report = check(INVERTIBLE, X, np.zeros((2, 2)))
        assert not report.feasible


class TestSemidefinite:
    def test_negative_product_infeasible_for_psd(self):
        report = check(POSITIVE_SEMIDEFINITE, COL(1, 0), COL(-1, 0))
        assert not report.feasible
        assert condition_map(report)["psd-product"].deviation == pytest.approx(1.0)

    def test_psd_product_null_condition(self):
        # X*Y = 0 but Y != 0: a PSD targeting matrix would have to kill Y
        X = COL(1, 0)
        Y = COL(0, 1)
        report = check(POSITIVE_SEMIDEFINITE, X, Y)
        assert not report.feasible
        assert not condition_map(report)["product-null-equality"].satisfied

    def test_pd_full_rank_shortcut(self):
        X = np.eye(2)
        assert check(POSITIVE_DEFINITE, X, np.array([[2.0, 1.0], [1.0, 2.0]])).feasible
        report = check(POSITIVE_DEFINITE, X, np.ones((2, 2)))
        assert not report.feasible
        assert not condition_map(report)["pd-product"].satisfied

    def test_overflowed_product_is_not_certified(self):
        # the eigenvalues of a matrix holding inf are NaN, and so is the deviation
        with np.errstate(all="ignore"):
            for definite in (False, True):
                cond = feasibility._semidefinite(np.diag([1.0, np.inf]), DEFAULT_TOL, "psd-product", definite)
                assert not cond.satisfied
                assert np.isnan(cond.deviation)

    @pytest.mark.parametrize("prop", [POSITIVE_SEMIDEFINITE, POSITIVE_DEFINITE])
    def test_nan_product_is_a_numeric_failure(self, prop):
        # X*Y = 1e200 [[1, 1e200], [-1e200, 1]] overflows to +-inf, and its
        # Hermitian part holds inf - inf = NaN, which eigvalsh would read as zero
        X, Y = 1e200 * np.eye(2), np.array([[1.0, 1e200], [-1e200, 1.0]])
        with np.errstate(all="ignore"), pytest.raises(NumericFailureError, match="NaN"):
            check(prop, X, Y)

    def test_nan_product_fails_before_any_svd(self, monkeypatch):
        # the psd test's eigenvalues, which the null-equality certificate
        # reads, are where a NaN product raises, as it did before the
        # certificate: no SVD runs first
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kwargs: calls.append(a) or svd(a, *args, **kwargs))
        X, Y = 1e200 * np.eye(2), np.array([[1.0, 1e200], [-1e200, 1.0]])
        with np.errstate(all="ignore"), pytest.raises(NumericFailureError, match="NaN"):
            check(POSITIVE_SEMIDEFINITE, X, Y)
        assert calls == []

    def test_pd_strictness_encoded_as_negative_threshold(self):
        report = check(POSITIVE_DEFINITE, np.eye(2), np.eye(2))
        cond = condition_map(report)["pd-product"]
        assert cond.threshold < 0
        assert cond.satisfied


class TestUnitary:
    def test_gram_mismatch_deviation_frozen(self):
        report = check(UNITARY, COL(1, 0), COL(2, 0))
        assert not report.feasible
        assert condition_map(report)["gram-equality"].deviation == pytest.approx(3.0)

    def test_rotation_pair_feasible(self):
        assert check(UNITARY, COL(1, 0), COL(0, 1)).feasible


class TestReflection:
    def test_swap_feasible(self):
        assert check(REFLECTION, COL(1, 0), COL(0, 1)).feasible

    def test_stretch_infeasible(self):
        report = check(REFLECTION, COL(1, 0), COL(2, 0))
        assert not report.feasible
        assert not condition_map(report)["gram-equality"].satisfied


class TestProjection:
    def test_compatible_pair_feasible(self):
        assert check(ORTHOGONAL_PROJECTION, COL(1, 1), COL(1, 0)).feasible

    def test_orthogonal_target_infeasible(self):
        report = check(ORTHOGONAL_PROJECTION, COL(1, 0), COL(0, 1))
        assert not report.feasible
        assert condition_map(report)["target-gram-equality"].deviation == pytest.approx(1.0)

    def test_zero_target_rejected(self):
        with pytest.raises(ZeroTargetError):
            check(ORTHOGONAL_PROJECTION, COL(1, 0), COL(0, 0))


class TestComplexSymmetric:
    def test_imaginary_scaling_feasible(self):
        # contrast with the Hermitian verdict on the same pair
        assert check(COMPLEX_SYMMETRIC, COL(1, 0), COL(1j, 0)).feasible

    def test_antisymmetric_product_infeasible(self):
        Y = np.array([[0.0, 1.0], [-1.0, 0.0]])
        report = check(COMPLEX_SYMMETRIC, np.eye(2), Y)
        assert not report.feasible
        assert condition_map(report)["symmetric-product"].deviation == pytest.approx(2.0)


class TestNormalVector:
    def test_any_nonzero_pair_feasible(self):
        assert check(NORMAL_VECTOR, COL(1, 2), COL(3j, 4)).feasible

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVectorError):
            check(NORMAL_VECTOR, COL(0, 0), COL(1, 0))
        with pytest.raises(ZeroVectorError):
            check(NORMAL_VECTOR, COL(1, 0), COL(0, 0))

    def test_multi_column_rejected(self):
        with pytest.raises(ShapeError):
            check(NORMAL_VECTOR, np.eye(2), np.eye(2))


class TestNormalTwoPoint:
    def test_orthogonality_condition(self):
        prop = normal_two_point(1.0, 0.0)
        assert check(prop, COL(1, 1), COL(1, 0)).feasible
        report = check(prop, COL(1, 0), COL(2, 0))
        assert not report.feasible
        assert not condition_map(report)["two-point-orthogonality"].satisfied

    def test_rank_proviso_trips_on_invertible_scalar_multiple(self):
        prop = normal_two_point(2.0, 0.0)
        report = check(prop, np.eye(2), 2.0 * np.eye(2))
        assert not report.feasible
        cmap = condition_map(report)
        assert cmap["two-point-orthogonality"].satisfied
        assert not cmap["rank-proviso"].satisfied
        assert cmap["rank-proviso"].deviation == pytest.approx(1.0)

    def test_proviso_silent_when_source_singular(self):
        prop = normal_two_point(2.0, 0.0)
        X = np.diag([1.0, 0.0])
        assert check(prop, X, 2.0 * X).feasible

    def test_proviso_silent_for_rectangular_source(self):
        prop = normal_two_point(2.0, 0.0)
        X = COL(1, 0)
        assert check(prop, X, 2 * X).feasible

    def test_overflowing_pair_is_no_scalar_multiple(self):
        # |Y - s X| and |Y| both overflow, so their ratio is NaN and Y does
        # not read as a multiple of X; the NaN orthogonality deviation keeps
        # the verdict infeasible
        X, Y = 1e200 * np.eye(2), np.array([[1.0, 1e200], [-1e200, 1.0]])
        with np.errstate(all="ignore"):
            report = check(normal_two_point(1.5, -0.5), X, Y)
        cmap = condition_map(report)
        assert not report.feasible
        assert cmap["rank-proviso"].satisfied
        assert np.isnan(cmap["two-point-orthogonality"].deviation)
        assert not cmap["two-point-orthogonality"].satisfied


MONOTONE_PAIRS = [
    (INVERTIBLE_HERMITIAN, HERMITIAN),
    (INVERTIBLE_HERMITIAN, INVERTIBLE),
    (HERMITIAN, UNCONSTRAINED),
    (POSITIVE_DEFINITE, POSITIVE_SEMIDEFINITE),
    (POSITIVE_SEMIDEFINITE, HERMITIAN),
    (REFLECTION, UNITARY),
    (REFLECTION, HERMITIAN),
    (ORTHOGONAL_PROJECTION, HERMITIAN),
    (UNITARY, INVERTIBLE),
]


class TestMonotonicity:
    @pytest.mark.parametrize("stronger,weaker", MONOTONE_PAIRS, ids=lambda p: p.kind)
    def test_feasible_for_stronger_implies_weaker(self, stronger, weaker):
        count = 0
        seed = 0
        while count < 500:
            seed += 1
            m = 1 + (seed % 5)
            n = 1 + (seed % max(1, m))
            spec = InstanceSpec(
                property=stronger,
                m=m,
                n=min(n, m),
                seed=seed,
                field="complex" if seed % 2 else "real",
                rank_deficiency=(seed % 2) if min(m, min(n, m)) > 1 else 0,
            )
            X, Y, _ = generate_instance(spec)
            if not check(stronger, X, Y).feasible:
                continue
            assert check(weaker, X, Y).feasible, f"seed={seed} {stronger.kind}->{weaker.kind}"
            count += 1


class TestScalingRobustness:
    @pytest.mark.parametrize(
        "prop", [UNCONSTRAINED, INVERTIBLE, HERMITIAN, COMPLEX_SYMMETRIC], ids=lambda p: p.kind
    )
    def test_verdict_invariant_under_positive_scaling(self, prop):
        rng = np.random.default_rng(77)
        for trial in range(40):
            m, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            m, n = max(m, n), min(m, n)
            X = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
            if trial % 2:
                Y = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
            else:
                spec = InstanceSpec(property=prop, m=m, n=n, seed=trial, field="complex")
                X, Y, _ = generate_instance(spec)
            base = check(prop, X, Y).feasible
            s, t = float(rng.uniform(0.1, 10)), float(rng.uniform(0.1, 10))
            assert check(prop, s * X, t * Y).feasible == base


class TestPerturbationSharpness:
    @pytest.mark.parametrize("prop", [UNITARY, REFLECTION], ids=lambda p: p.kind)
    def test_small_noise_flips_verdict(self, prop):
        rng = np.random.default_rng(123)
        for seed in range(10):
            spec = InstanceSpec(property=prop, m=4, n=3, seed=seed, field="complex")
            X, Y, _ = generate_instance(spec)
            assert check(prop, X, Y).feasible
            noise = rng.standard_normal(Y.shape) + 1j * rng.standard_normal(Y.shape)
            noise *= 100 * DEFAULT_TOL.residual_tol * np.linalg.norm(Y) / np.linalg.norm(noise)
            assert not check(prop, X, Y + noise).feasible


class TestCondition:
    @pytest.mark.parametrize("deviation,satisfied", [(0.5, True), (1.0, True), (1.5, False), (np.nan, False)])
    def test_satisfied_is_derived(self, deviation, satisfied):
        cond = Condition("c", np.float64(deviation), 1)
        assert cond.satisfied is satisfied
        assert list(cond.to_dict()) == ["name", "satisfied", "deviation", "threshold"]
        assert type(cond.deviation) is float and type(cond.threshold) is float

    def test_satisfied_cannot_be_passed(self):
        with pytest.raises(TypeError):
            Condition("c", True, 0.0, 1.0)


class TestReportShape:
    def test_to_dict_round_trip(self):
        report = check(HERMITIAN, COL(1, 0), COL(0, 1))
        d = report.to_dict()
        assert d["property"] == "hermitian"
        assert d["verdict"] == "feasible"
        names = {c["name"] for c in d["conditions"]}
        assert names == {"null-space-inclusion", "hermitian-product"}
        for c in d["conditions"]:
            assert set(c) == {"name", "satisfied", "deviation", "threshold"}


_EPS = np.finfo(float).eps
SCALES = st.integers(-500, 500)
FACTORS = st.sampled_from([0.0, 0.5, 0.99, 1.0, 1.01, 2.0, 1e3])


def _orthonormal(rng, rows, cols, field):
    G = rng.standard_normal((rows, cols))
    if field == "complex":
        G = G + 1j * rng.standard_normal((rows, cols))
    return np.linalg.qr(G)[0]


def _with_sigma_min(rng, m, n, field, sigma_min=None, relative_to_norm=None):
    # an m x n matrix with singular values in [0.5, 1], the largest 1, and
    # the smallest set to sigma_min, or to relative_to_norm times |Y|_F
    r = min(m, n)
    s = rng.uniform(0.5, 1.0, r)
    s[0] = 1.0
    if r > 1 and sigma_min is not None:
        s[-1] = sigma_min
    elif r > 1 and relative_to_norm is not None:
        h = relative_to_norm
        s[-1] = h * np.sqrt(np.sum(s[:-1] ** 2) / (1 - h * h))
    return (_orthonormal(rng, m, r, field) * s) @ _orthonormal(rng, n, r, field).conj().T


class TestRankCertificates:
    """The Cholesky rank certificate of rank-equality and the Weyl
    certificate of product-null-equality answer "full rank" only where the
    SVD they stand in for agrees, and decline NaN, infinite and zero input."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 10), n=st.integers(1, 10),
           field=st.sampled_from(["real", "complex"]), k=SCALES,
           edge=st.sampled_from(["svd cutoff", "certificate"]), factor=FACTORS)
    def test_cholesky_certificate_agrees_with_the_svd(self, seed, m, n, field, k, edge, factor):
        rng = np.random.default_rng(seed)
        if edge == "svd cutoff":
            Y = _with_sigma_min(rng, m, n, field, sigma_min=factor * DEFAULT_TOL.rank_rel_cutoff * max(m, n))
        else:
            # sigma_min / |Y|_F at factor times the rank certificate's decline point
            h = factor * decline_point(m, n, DEFAULT_TOL.rank_rel_cutoff * max(m, n), gram=True)
            Y = _with_sigma_min(rng, m, n, field, relative_to_norm=h)
        if min(m, n) == 1:
            Y = factor * Y
        X, Y = 2.0**k * _with_sigma_min(rng, m, n, field), 2.0**k * Y
        # norms that square their entries overflow or underflow at the ends
        # of the scale range (ROADMAP item 1)
        with np.errstate(over="ignore", under="ignore"):
            pair = feasibility._Pair(X, Y, None)
            if feasibility._full_rank_certified(pair.Y, DEFAULT_TOL):
                assert _rank(pair.Y, DEFAULT_TOL) == min(m, n)
            # the condition check reports is the one Y's SVD gives
            expected = Condition("rank-equality", abs(pair.factors.rank - _rank(pair.Y, DEFAULT_TOL)), 0.0)
            assert condition_map(check(INVERTIBLE, X, Y))["rank-equality"] == expected

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 10), extra=st.integers(0, 3),
           field=st.sampled_from(["real", "complex"]), k=SCALES,
           edge=st.sampled_from(["svd cutoff", "certificate"]), factor=FACTORS,
           sign=st.sampled_from([1.0, -1.0]),
           skew=st.sampled_from([0.0, 1e-15, 1e-12, 5e-11, 1e-10, 2e-10, 1e-6]))
    def test_weyl_certificate_agrees_with_the_svd(self, seed, n, extra, field, k, edge, factor, sign, skew):
        # X*Y = 4**k (herm + skew part), the Hermitian part of spectral norm
        # 1 with its least |eigenvalue| placed at factor times _partition's
        # cutoff or the certificate's, and the skew part of relative size
        # skew, from 0 to above sym_tol
        rng = np.random.default_rng(seed)
        h = rng.uniform(0.5, 1.0, n) * rng.choice([-1.0, 1.0], n)
        h[0] = 1.0
        ratio = DEFAULT_TOL.rank_rel_cutoff * n
        if n == 1:
            h[0] = factor
        elif edge == "svd cutoff":
            h[-1] = sign * factor * ratio
        else:
            norm = np.linalg.norm(h)
            slack = skew * norm / 2 + 8 * n * _EPS * norm
            h[-1] = sign * factor * (ratio + (1 + ratio) * slack)
        Q = _orthonormal(rng, n, n, field)
        H = (Q * h) @ Q.conj().T
        H = (H + H.conj().T) / 2
        K = rng.standard_normal((n, n)) + (1j * rng.standard_normal((n, n)) if field == "complex" else 0)
        K = K - K.conj().T
        if K.any():
            K *= skew * np.linalg.norm(H) / (2 * np.linalg.norm(K))
        V = _orthonormal(rng, n + extra, n, field)
        X, Y = 2.0**k * V, 2.0**k * V @ (H + K)
        with np.errstate(over="ignore", under="ignore"):
            pair = feasibility._Pair(X, Y, None)
            M = pair.xy
            w = feasibility._spectrum(M, "psd-product")
            if feasibility._nonsingular_by_weyl(w, _fro(M - M.conj().T), _fro(M), DEFAULT_TOL):
                assert _partition(M, DEFAULT_TOL).rank == n
            # the condition check reports is the one M's SVD gives
            expected = feasibility._null_inclusion(_partition(M, DEFAULT_TOL).W2, pair, "product-null-equality")
            assert condition_map(check(POSITIVE_SEMIDEFINITE, X, Y))["product-null-equality"] == expected

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("m,n", [(64, 32), (8, 8), (3, 5), (6, 1)])
    @pytest.mark.parametrize("k", [-400, 0, 400])
    def test_cholesky_certificate_decides_clear_cases(self, m, n, field, k):
        # it certifies sigma_min / |Y|_F at 4 times its threshold, and
        # declines a quarter of it, where the SVD still finds full rank
        rng = np.random.default_rng(79_000 + m + n)
        threshold = decline_point(m, n, DEFAULT_TOL.rank_rel_cutoff * max(m, n), gram=True)
        for factor, certified in ((4.0, True), (0.25, min(m, n) == 1)):
            Y = 2.0**k * _with_sigma_min(rng, m, n, field, relative_to_norm=factor * threshold)
            assert feasibility._full_rank_certified(Y, DEFAULT_TOL) is certified
            assert _rank(Y, DEFAULT_TOL) == min(m, n)

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("n", [1, 8, 64])
    @pytest.mark.parametrize("k", [-400, 0, 400])
    def test_weyl_certificate_decides_clear_cases(self, n, field, k):
        # a Hermitian M with least |eigenvalue| 1e-6 is certified; one
        # whose skew part is as large as its Hermitian part is not
        rng = np.random.default_rng(80_000 + n)
        h = rng.uniform(0.5, 1.0, n)
        h[-1] = 1e-6 if n > 1 else h[-1]
        Q = _orthonormal(rng, n, n, field)
        M = 2.0**k * (Q * h) @ Q.conj().T
        for skewed, certified in ((False, True), (True, False)):
            if skewed:
                M = M + np.triu(M, 1) - np.tril(M, -1) if n > 1 else M * (1 + 1j)
            w = feasibility._spectrum(M, "psd-product")
            assert feasibility._nonsingular_by_weyl(w, _fro(M - M.conj().T), _fro(M), DEFAULT_TOL) is certified
            assert _partition(M, DEFAULT_TOL).rank == n

    def test_certificates_decline_nan_inf_and_zero(self):
        for Y in (np.full((3, 2), np.nan), np.array([[1.0, np.inf], [0.0, 1.0], [0.0, 0.0]]), np.zeros((3, 2)),
                  1e300 * np.eye(3, 2), 1e-200 * np.eye(3, 2)):
            with np.errstate(all="ignore"):
                assert not feasibility._full_rank_certified(Y, DEFAULT_TOL)
        assert feasibility._full_rank_certified(np.eye(3, 2), DEFAULT_TOL)
        # numerically zero under the policy, and so rank 0 for the SVD too
        assert not feasibility._full_rank_certified(np.eye(3, 2), TolerancePolicy(zero_matrix_tol=2.0))

        w, norm = np.array([1.0, 2.0]), np.sqrt(5.0)
        assert feasibility._nonsingular_by_weyl(w, 0.0, norm, DEFAULT_TOL)
        for w_, skew, norm_ in ((np.array([np.nan, 2.0]), 0.0, norm), (np.array([1.0, np.inf]), 0.0, norm),
                                (w, np.nan, norm), (w, np.inf, norm), (w, 0.0, np.nan), (w, 0.0, np.inf),
                                (w, 0.0, 0.0)):
            with np.errstate(all="ignore"):
                assert not feasibility._nonsingular_by_weyl(w_, skew, norm_, DEFAULT_TOL)
        assert not feasibility._nonsingular_by_weyl(w, 0.0, norm, TolerancePolicy(zero_matrix_tol=3.0))


def test_one_function_calls_cholesky():
    # every Cholesky certificate goes through the one rule, so a new
    # certificate takes its shift from _cholesky_bound's derivation
    kernels = {"cholesky", "cho_factor", "cho_solve", "cholesky_banded"}
    callers, uses = set(), 0
    for path in sorted(Path(feasibility.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                assert not kernels & {alias.name for alias in node.names}, path.name
            uses += isinstance(node, ast.Attribute) and node.attr in kernels
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(isinstance(inner, ast.Attribute) and inner.attr in kernels for inner in ast.walk(node)):
                    callers.add((path.stem, node.name))
    assert callers == {("feasibility", "_cholesky_bound")} and uses == 1
