import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from targetkit import (
    COMPLEX_SYMMETRIC,
    DEFAULT_TOL,
    HERMITIAN,
    INVERTIBLE,
    INVERTIBLE_HERMITIAN,
    NORMAL_VECTOR,
    ORTHOGONAL_PROJECTION,
    POSITIVE_DEFINITE,
    POSITIVE_SEMIDEFINITE,
    PROPERTY_NAMES,
    REFLECTION,
    UNCONSTRAINED,
    UNITARY,
    BadSpecError,
    InstanceSpec,
    PropertyClass,
    ShapeError,
    TooLargeError,
    check,
    generate_instance,
    normal_two_point,
    numerical_rank,
    oracle_feasible_subspace,
    solve_invertible_hermitian,
    verify_property,
    verify_targeting,
    write_matrix,
)
from _cholesky_rule import decline_point
from targetkit.cli import main
from targetkit.feasibility import (
    _CLASSES,
    _audit_invertible,
    _audit_invertible_hermitian,
    _audit_pd,
    _cholesky_bound,
    _semidefinite,
)
from targetkit.linalg import _fro, _herm
from targetkit.verify import _ORACLE_MAX_DIM

PROPERTY_KINDS = frozenset(_CLASSES)

ALL_PARAMETERLESS = [
    UNCONSTRAINED,
    INVERTIBLE,
    HERMITIAN,
    INVERTIBLE_HERMITIAN,
    POSITIVE_SEMIDEFINITE,
    POSITIVE_DEFINITE,
    UNITARY,
    REFLECTION,
    ORTHOGONAL_PROJECTION,
    COMPLEX_SYMMETRIC,
    NORMAL_VECTOR,
]


class TestVerifyProperty:
    @pytest.mark.parametrize("prop", ALL_PARAMETERLESS, ids=lambda p: p.kind)
    def test_identity_belongs_to_every_parameterless_class(self, prop):
        report = verify_property(np.eye(3), prop)
        assert report.passed
        assert all(c.satisfied for c in report.conditions)

    def test_identity_under_two_point_spectrum_with_one_matching(self):
        assert verify_property(np.eye(3), normal_two_point(1.0, 0.0)).passed
        assert not verify_property(np.eye(3), normal_two_point(2.0, 3.0)).passed

    def test_unconstrained_has_no_conditions(self):
        report = verify_property(np.zeros((2, 2)), UNCONSTRAINED)
        assert report.passed
        assert report.conditions == ()

    def test_jordan_block_is_not_normal(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        report = verify_property(A, NORMAL_VECTOR)
        assert not report.passed
        (cond,) = report.conditions
        assert cond.name == "normal"
        assert cond.deviation == pytest.approx(np.sqrt(2.0))

    def test_swap_is_a_reflection(self):
        report = verify_property(np.array([[0.0, 1.0], [1.0, 0.0]]), REFLECTION)
        assert report.passed
        assert [c.name for c in report.conditions] == ["hermitian", "involution"]

    def test_two_point_spectrum_passes_and_fails(self):
        prop = normal_two_point(1.0, 0.0)
        assert verify_property(np.diag([1.0, 0.0, 1.0]), prop).passed
        report = verify_property(np.diag([1.0, 0.5]), prop)
        assert not report.passed
        spectral = {c.name: c for c in report.conditions}["spectrum-two-point"]
        assert spectral.deviation == pytest.approx(0.5)

    def test_complex_two_point_spectrum(self):
        prop = normal_two_point(1j, -1j)
        A = np.array([[0.0, -1.0], [1.0, 0.0]])  # rotation, eigenvalues +-i
        assert verify_property(A, prop).passed

    def test_skew_matrix_fails_hermitian(self):
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        report = verify_property(A, HERMITIAN)
        assert not report.passed
        assert report.conditions[0].deviation == pytest.approx(2.0)

    def test_complex_symmetric_accepts_what_hermitian_rejects(self):
        A = np.array([[1j, 2.0], [2.0, 0.0]])
        assert verify_property(A, COMPLEX_SYMMETRIC).passed
        assert not verify_property(A, HERMITIAN).passed

    def test_singular_matrix_fails_invertible(self):
        report = verify_property(np.diag([1.0, 0.0]), INVERTIBLE)
        assert not report.passed
        # strictness is encoded as a negative threshold
        assert report.conditions[0].threshold < 0

    def test_semidefinite_boundary(self):
        assert verify_property(np.diag([1.0, 0.0]), POSITIVE_SEMIDEFINITE).passed
        assert not verify_property(np.diag([1.0, 0.0]), POSITIVE_DEFINITE).passed
        assert not verify_property(np.diag([1.0, -1.0]), POSITIVE_SEMIDEFINITE).passed

    def test_rectangular_input_rejected(self):
        with pytest.raises(ShapeError):
            verify_property(np.ones((2, 3)), HERMITIAN)

    def test_report_dict_shape(self):
        d = verify_property(np.eye(2), REFLECTION).to_dict()
        assert d["property"] == "reflection"
        assert d["passed"] is True
        assert {"name", "satisfied", "deviation", "threshold"} == set(d["conditions"][0])


class TestVerifyTargeting:
    def test_exact_solution_has_zero_residual(self):
        X = np.arange(6, dtype=float).reshape(3, 2)
        assert verify_targeting(np.eye(3), X, X) == 0.0

    def test_identity_residual_is_relative_difference(self):
        X = np.eye(2)
        Y = np.array([[0.0, 0.0], [0.0, 3.0]])
        expected = np.linalg.norm(X - Y) / max(1.0, np.linalg.norm(Y))
        assert verify_targeting(np.eye(2), X, Y) == pytest.approx(expected)

    def test_small_targets_switch_to_absolute_scale(self):
        # denominator saturates at 1 so tiny targets are judged absolutely
        X = np.array([[1e-8]])
        Y = np.array([[3e-8]])
        assert verify_targeting(np.array([[1.0]]), X, Y) == pytest.approx(2e-8)

    def test_shape_mismatches_rejected(self):
        with pytest.raises(ShapeError):
            verify_targeting(np.ones((2, 3)), np.eye(3), np.eye(3))
        with pytest.raises(ShapeError):
            verify_targeting(np.eye(2), np.eye(3), np.eye(3))
        with pytest.raises(ShapeError):
            verify_targeting(np.eye(2), np.eye(2), np.ones((2, 3)))


class TestInstanceSpec:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(m=0, n=1),
            dict(m=2, n=0),
            dict(m=2, n=3),
            dict(m=2, n=2, field="rational"),
            dict(m=2, n=2, rank_deficiency=2),
            dict(m=3, n=2, rank_deficiency=-1),
            dict(m=2, n=2, seed=-1),
            dict(m=2, n=2, seed=2**64),
        ],
    )
    def test_bad_specs_rejected(self, kwargs):
        base = dict(property=HERMITIAN, seed=0)
        base.update(kwargs)
        with pytest.raises(BadSpecError):
            InstanceSpec(**base)

    def test_normal_vector_requires_single_column(self):
        with pytest.raises(BadSpecError, match="n = 1"):
            InstanceSpec(property=NORMAL_VECTOR, m=3, n=2, seed=0)
        InstanceSpec(property=NORMAL_VECTOR, m=3, n=1, seed=0)

    def test_two_point_needs_room_for_both_eigenvalues(self):
        prop = normal_two_point(1.0, -1.0)
        with pytest.raises(BadSpecError, match="m >= 2"):
            InstanceSpec(property=prop, m=1, n=1, seed=0)
        InstanceSpec(property=prop, m=2, n=1, seed=0)

    def test_real_field_demands_real_eigenvalues(self):
        prop = normal_two_point(1j, -1j)
        with pytest.raises(BadSpecError, match="real"):
            InstanceSpec(property=prop, m=2, n=2, seed=0, field="real")
        InstanceSpec(property=prop, m=2, n=2, seed=0, field="complex")


class TestGenerateInstance:
    def test_bitwise_determinism(self):
        spec = InstanceSpec(property=UNITARY, m=5, n=3, seed=99, field="complex")
        X1, Y1, A1 = generate_instance(spec)
        X2, Y2, A2 = generate_instance(spec)
        assert X1.tobytes() == X2.tobytes()
        assert Y1.tobytes() == Y2.tobytes()
        assert A1.tobytes() == A2.tobytes()

    def test_different_seeds_differ(self):
        s1 = InstanceSpec(property=HERMITIAN, m=4, n=4, seed=1)
        s2 = InstanceSpec(property=HERMITIAN, m=4, n=4, seed=2)
        assert not np.array_equal(generate_instance(s1)[0], generate_instance(s2)[0])

    @pytest.mark.parametrize("prop", ALL_PARAMETERLESS, ids=lambda p: p.kind)
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_witness_carries_property_and_product_holds(self, prop, field):
        n = 1 if prop.kind == "normal-vector" else 3
        spec = InstanceSpec(property=prop, m=4, n=n, seed=7, field=field)
        X, Y, A = generate_instance(spec)
        assert verify_property(A, prop).passed
        assert np.array_equal(Y, A @ X)
        assert verify_targeting(A, X, Y) == 0.0
        if field == "real":
            assert not np.iscomplexobj(X) and not np.iscomplexobj(Y)
            assert not np.iscomplexobj(A)

    def test_two_point_witness(self):
        prop = normal_two_point(2.0, -1.0)
        spec = InstanceSpec(property=prop, m=4, n=2, seed=3, field="real")
        X, Y, A = generate_instance(spec)
        assert verify_property(A, prop).passed
        eigs = np.linalg.eigvals(A)
        assert all(min(abs(e - 2.0), abs(e + 1.0)) < 1e-9 for e in eigs)

    @pytest.mark.parametrize("deficiency", [0, 1, 2])
    def test_rank_deficiency_honored(self, deficiency):
        spec = InstanceSpec(
            property=UNCONSTRAINED, m=5, n=4, seed=11, rank_deficiency=deficiency
        )
        X, _, _ = generate_instance(spec)
        assert numerical_rank(X) == 4 - deficiency

    def test_generated_pairs_are_feasible(self):
        for seed in range(10):
            spec = InstanceSpec(property=REFLECTION, m=4, n=3, seed=seed)
            X, Y, _ = generate_instance(spec)
            assert check(REFLECTION, X, Y).feasible, f"seed={seed}"

    def test_singular_values_stay_in_band(self):
        spec = InstanceSpec(property=UNCONSTRAINED, m=6, n=6, seed=17)
        X, _, _ = generate_instance(spec)
        s = np.linalg.svd(X, compute_uv=False)
        assert np.exp(-0.7) - 1e-12 <= s.min() and s.max() <= np.exp(0.7) + 1e-12


class TestOracle:
    def test_null_space_obstruction(self):
        X = np.diag([1.0, 0.0])
        Y = np.eye(2)
        assert not oracle_feasible_subspace(X, Y, "any-matrix")

    def test_hermitian_diagonal_must_be_real(self):
        X = np.array([[1.0], [0.0]])
        assert oracle_feasible_subspace(X, np.array([[0.0], [1.0]]), "hermitian")
        assert not oracle_feasible_subspace(X, np.array([[1j], [0.0]]), "hermitian")
        assert oracle_feasible_subspace(X, np.array([[1j], [0.0]]), "symmetric")

    def test_identity_pair_feasible_everywhere(self):
        X = np.eye(3)
        for subspace in ("any-matrix", "hermitian", "symmetric"):
            assert oracle_feasible_subspace(X, X, subspace)

    def test_wide_pairs_are_accepted(self):
        # the oracle only needs equal shapes, not the tall-or-square
        # convention of the constructive modules
        X = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        Y = np.vstack([X[1], X[0]])
        assert oracle_feasible_subspace(X, Y, "any-matrix")
        assert oracle_feasible_subspace(X, Y, "hermitian")

    def test_dimension_guard(self):
        m = _ORACLE_MAX_DIM + 1
        with pytest.raises(TooLargeError):
            oracle_feasible_subspace(np.eye(m), np.eye(m), "any-matrix")
        assert oracle_feasible_subspace(np.eye(m - 1), np.eye(m - 1), "any-matrix")

    def test_input_validation(self):
        with pytest.raises(ValueError):
            oracle_feasible_subspace(np.eye(2), np.eye(2), "upper-triangular")
        with pytest.raises(ShapeError):
            oracle_feasible_subspace(np.eye(2), np.eye(3), "any-matrix")

    @pytest.mark.parametrize(
        "prop,subspace",
        [
            (UNCONSTRAINED, "any-matrix"),
            (HERMITIAN, "hermitian"),
            (COMPLEX_SYMMETRIC, "symmetric"),
        ],
        ids=["any", "hermitian", "symmetric"],
    )
    def test_agreement_with_certificate_checks(self, prop, subspace):
        rng = np.random.default_rng(23)
        agree = 0
        for trial in range(60):
            m = int(rng.integers(1, 6))
            n = int(rng.integers(1, m + 1))
            style = trial % 3
            if style == 0:
                spec = InstanceSpec(
                    property=prop, m=m, n=n, seed=trial,
                    field="complex" if trial % 2 else "real",
                )
                X, Y, _ = generate_instance(spec)
            elif style == 1:
                X = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
                Y = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
            else:
                X = rng.standard_normal((m, n))
                if n > 1:
                    X[:, -1] = X[:, 0]  # force a null direction
                Y = rng.standard_normal((m, n))
            verdict = check(prop, X, Y).feasible
            assert verdict == oracle_feasible_subspace(X, Y, subspace), (
                f"trial={trial} m={m} n={n} style={style}"
            )
            agree += 1
        assert agree == 60

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10_000), m=st.integers(1, 4), n=st.integers(1, 4))
    def test_unconstrained_agreement_property(self, seed, m, n):
        n = min(m, n)
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((m, n))
        Y = rng.standard_normal((m, n))
        assert check(UNCONSTRAINED, X, Y).feasible == oracle_feasible_subspace(
            X, Y, "any-matrix"
        )


class TestPropertyClassValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            PropertyClass("diagonal")

    def test_two_point_parameters(self):
        with pytest.raises(ValueError):
            PropertyClass("normal-two-point")
        with pytest.raises(ValueError):
            normal_two_point(1.0, 1.0)
        with pytest.raises(ValueError):
            PropertyClass("hermitian", lam=1.0)

    def test_labels(self):
        assert HERMITIAN.label() == "hermitian"
        assert "lam=(1+0j)" in normal_two_point(1.0, 0.0).label()


# the audit of every class, in report order
AUDIT_NAMES = {
    "unconstrained": [],
    "invertible": ["invertible"],
    "hermitian": ["hermitian"],
    "invertible-hermitian": ["hermitian", "invertible"],
    "positive-semidefinite": ["hermitian", "positive-semidefinite"],
    "positive-definite": ["hermitian", "positive-definite"],
    "unitary": ["unitary"],
    "reflection": ["hermitian", "involution"],
    "orthogonal-projection": ["hermitian", "idempotent"],
    "complex-symmetric": ["symmetric"],
    "normal-two-point": ["normal", "spectrum-two-point"],
    "normal-vector": ["normal"],
}


def _audit_matrices(field):
    """A general, a Hermitian, a semidefinite and a definite 4x4 matrix."""
    rng = np.random.default_rng(41 if field == "real" else 42)
    G = rng.standard_normal((4, 4))
    if field == "complex":
        G = G + 1j * rng.standard_normal((4, 4))
    H = (G + G.conj().T) / 2
    P = G[:, :2] @ G[:, :2].conj().T
    return [G, H, P, P + np.eye(4)]


def _prop(kind):
    return normal_two_point(1.0, -1.0) if kind == "normal-two-point" else PropertyClass(kind)


class TestAuditPinned:
    def test_every_class_is_pinned(self):
        assert set(AUDIT_NAMES) == PROPERTY_KINDS

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("kind", sorted(AUDIT_NAMES))
    def test_condition_names_in_order(self, kind, field):
        for A in _audit_matrices(field):
            report = verify_property(A, _prop(kind))
            assert [c.name for c in report.conditions] == AUDIT_NAMES[kind]
            assert report.passed == all(c.satisfied for c in report.conditions)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_shared_measures_bitwise(self, field):
        tol = DEFAULT_TOL
        for A in _audit_matrices(field):
            norm_a = float(np.linalg.norm(A))
            hermitian = float(np.linalg.norm(A - A.conj().T)) / max(1.0, norm_a)
            symmetric = float(np.linalg.norm(A - A.T)) / max(1.0, norm_a)
            Ah = (A + A.conj().T) / 2
            # the spectral norm of a Hermitian matrix is its largest |eigenvalue|
            w = np.linalg.eigvalsh(Ah)
            definite = -float(w[0]) / float(max(-w[0], w[-1]))
            want = {
                "hermitian": (hermitian, tol.sym_tol),
                "symmetric": (symmetric, tol.sym_tol),
                "positive-semidefinite": (definite, tol.psd_tol),
                "positive-definite": (definite, -tol.psd_tol),
            }
            for kind in ("hermitian", "complex-symmetric", "positive-semidefinite", "positive-definite"):
                for c in verify_property(A, PropertyClass(kind)).conditions:
                    dev, threshold = want[c.name]
                    assert c.threshold == threshold
                    assert c.satisfied == (dev <= threshold)
                    if c.name == "positive-definite" and c.satisfied:
                        # a Cholesky certificate may report its bound instead
                        assert dev <= c.deviation <= threshold
                    else:
                        assert c.deviation.hex() == dev.hex(), (kind, c.name)


def _hermitian_with_ratio(ratio, field, seed=43):
    """A 6x6 Hermitian matrix with sigma_min / sigma_max = ratio, of mixed inertia."""
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((6, 6))
    if field == "complex":
        G = G + 1j * rng.standard_normal((6, 6))
    Q = np.linalg.qr(G)[0]
    A = (Q * np.array([1.0, -0.8, 0.6, -0.4, 0.2, -ratio])) @ Q.conj().T
    return (A + A.conj().T) / 2


def _unit_skew(field, seed=44):
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((6, 6))
    if field == "complex":
        G = G + 1j * rng.standard_normal((6, 6))
    K = G - G.conj().T
    return K / np.linalg.norm(K)


# the invertible measure's threshold on sigma_min / sigma_max at m = 6
CUTOFF = DEFAULT_TOL.rank_rel_cutoff * 6


class TestHermitianInvertibleAudit:
    """invertible-hermitian reads invertibility off one Cholesky, with the SVD's verdict."""

    @staticmethod
    def _measures(A):
        report = verify_property(A, INVERTIBLE_HERMITIAN)
        assert report.conditions[0].name == "hermitian"
        return report.conditions[1], _audit_invertible(A, INVERTIBLE_HERMITIAN, DEFAULT_TOL)

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("factor", [0.5, 1.0, 2.0])
    def test_hermitian_near_the_threshold(self, factor, field):
        cond, svd = self._measures(_hermitian_with_ratio(factor * CUTOFF, field))
        assert (cond.name, cond.satisfied, cond.threshold) == (svd.name, svd.satisfied, svd.threshold)
        assert svd.satisfied == (factor > 1.0)

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("factor", [0.5, 2.0, 1000.0])
    @pytest.mark.parametrize("skew", [0.5, 2.0])
    def test_skew_perturbation_around_sym_tol(self, skew, factor, field):
        # A = H + delta K with |K|_F = 1: the hermitian measure reads 2 delta / |A|_F,
        # which skew puts on either side of sym_tol
        H = _hermitian_with_ratio(factor * CUTOFF, field)
        delta = skew * DEFAULT_TOL.sym_tol * np.linalg.norm(H) / 2
        A = H + delta * _unit_skew(field)
        assert verify_property(A, HERMITIAN).passed == (skew < 1.0)
        cond, svd = self._measures(A)
        assert (cond.name, cond.satisfied, cond.threshold) == (svd.name, svd.satisfied, svd.threshold)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_uncertified_matrices_keep_the_svd_condition(self, field):
        # a clearly non-Hermitian A, and a Hermitian one that is singular
        G, _, P, _ = _audit_matrices(field)
        for A in (G, P):
            cond, svd = self._measures(A)
            assert cond == svd and cond.deviation.hex() == svd.deviation.hex()

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("m,n,deficiency", [(2, 1, 0), (6, 3, 1), (8, 8, 3), (16, 8, 0), (64, 32, 0)])
    def test_solved_matrix_takes_no_svd(self, monkeypatch, m, n, deficiency, field):
        # one Cholesky of A* A certifies it: no eigvalsh and no SVD of A
        X, Y, _ = generate_instance(InstanceSpec(INVERTIBLE_HERMITIAN, m, n, 45, field, deficiency))
        A = solve_invertible_hermitian(X, Y).A
        calls = []
        for name in ("svd", "eigvalsh", "cholesky"):
            kernel = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda *a, _n=name, _k=kernel, **k: calls.append(_n) or _k(*a, **k))
        report = verify_property(A, INVERTIBLE_HERMITIAN)
        assert report.passed and calls == ["cholesky"]


def _hermitian_spectrum(m, least, field, definite, seed):
    """An m x m Hermitian matrix with eigenvalues 1, ..., least: all
    positive, or of alternating sign."""
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((m, m))
    if field == "complex":
        G = G + 1j * rng.standard_normal((m, m))
    d = np.concatenate([[1.0], np.linspace(0.8, 0.2, max(m - 2, 0)), [least]])[-m:]
    if not definite:
        d = d * (-1.0) ** np.arange(m)
    Q = np.linalg.qr(G)[0]
    A = (Q * d) @ Q.conj().T
    return (A + A.conj().T) / 2, float(np.linalg.norm(d))


class TestCholeskyCertificateSoundness:
    """A certificate that answers proves what the measured audit computes:
    the measured verdict passes, and the reported bound lies between the
    measured deviation and the threshold.  Otherwise it declines, and the
    audit's condition is the measured one, bit for bit."""

    @staticmethod
    def _check(cond, bound, measured, A):
        if bound is None:
            assert cond == measured and cond.deviation.hex() == measured.deviation.hex()
            return
        assert 2.0**-480 < _fro(A) < 2.0**480
        assert measured.satisfied and cond.satisfied
        assert cond.deviation == -bound and cond.threshold == measured.threshold
        assert measured.deviation <= cond.deviation <= cond.threshold

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.sampled_from([2, 6, 16]),
        field=st.sampled_from(["real", "complex"]),
        k=st.integers(-500, 500),
        point=st.sampled_from(["threshold", "decline"]),
        factor=st.sampled_from([0.5, 1.0, 2.0, 1000.0]),
        skew=st.floats(0.0, 2.0),
    )
    # |A|_F just below the window, and |herm A|_F just above it once inflated
    @example(seed=0, m=2, field="real", k=-480, point="threshold", factor=2.0, skew=0.0)
    def test_an_answer_is_the_measured_verdict(self, seed, m, field, k, point, factor, skew):
        tol = DEFAULT_TOL
        for definite in (True, False):
            threshold = tol.psd_tol if definite else tol.rank_rel_cutoff * m
            decline = decline_point(m, m, threshold, gram=not definite)
            # the decline point as a ratio to |A|_F, times |d|_2 ~ |H|_F
            _, spread = _hermitian_spectrum(m, 1.0, field, definite, seed)
            least = factor * (threshold if point == "threshold" else decline * spread)
            H, _ = _hermitian_spectrum(m, least, field, definite, seed)
            # a skew part that puts the hermitian measure at skew * sym_tol
            G = np.random.default_rng(seed + 1).standard_normal((2, m, m))
            K = G[0] + 1j * G[1] if field == "complex" else G[0]
            K = K - K.conj().T
            A = 2.0**k * (H + skew * tol.sym_tol * _fro(H) / 2 / _fro(K) * K)
            if definite:
                self._check(_audit_pd(A, POSITIVE_DEFINITE, tol), _cholesky_bound(_herm(A), threshold, tol),
                            _semidefinite(A, tol, "positive-definite", definite=True), A)
            else:
                bound = _cholesky_bound(A, threshold, tol, gram=True)
                measured = _audit_invertible(A, INVERTIBLE_HERMITIAN, tol)
                # the audit asks the certificate only past the hermitian gate
                gated = bound if verify_property(A, HERMITIAN, tol).passed else None
                self._check(_audit_invertible_hermitian(A, INVERTIBLE_HERMITIAN, tol), gated, measured, A)
                if bound is not None:
                    # the certificate itself is sound past the hermitian gate too
                    assert measured.satisfied and measured.deviation <= -bound <= measured.threshold

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("m", [1, 2, 6, 64])
    def test_a_well_conditioned_matrix_is_certified(self, m, field):
        for k in (-400, 0, 400):
            A = 2.0**k * _hermitian_spectrum(m, 0.5, field, True, 46)[0]
            assert _cholesky_bound(_herm(A), DEFAULT_TOL.psd_tol, DEFAULT_TOL) is not None
            assert _cholesky_bound(A, DEFAULT_TOL.rank_rel_cutoff * m, DEFAULT_TOL, gram=True) is not None

    @pytest.mark.parametrize("A", [
        np.full((3, 3), np.nan),
        np.diag([1.0, np.inf, 1.0]),
        np.zeros((3, 3)),
        np.zeros((3, 3), dtype=complex),
        2.0**-490 * np.eye(3),
        2.0**490 * np.eye(3),
        1j * 2.0**490 * np.eye(3),
    ], ids=["nan", "inf", "zero", "complex-zero", "below-window", "above-window", "complex-above-window"])
    def test_non_finite_zero_and_out_of_window_decline(self, A):
        assert _cholesky_bound(_herm(A), DEFAULT_TOL.psd_tol, DEFAULT_TOL) is None
        assert _cholesky_bound(A, DEFAULT_TOL.rank_rel_cutoff * len(A), DEFAULT_TOL, gram=True) is None


@pytest.fixture
def eye_file(tmp_path):
    path = tmp_path / "eye.mtx"
    write_matrix(path, np.eye(2))
    return str(path)


class TestClassNames:
    def test_property_names_match_the_table(self):
        want = {name: kind for kind, row in _CLASSES.items() for name in (kind, *row.aliases)}
        assert dict(PROPERTY_NAMES) == want
        assert set(PROPERTY_NAMES.values()) == PROPERTY_KINDS
        assert {"psd", "pd", "projection"} <= set(PROPERTY_NAMES)
        with pytest.raises(TypeError):
            PROPERTY_NAMES["diagonal"] = "hermitian"
        with pytest.raises(TypeError):
            del PROPERTY_NAMES["psd"]

    def test_aliases_name_their_class(self, capsys, eye_file):
        for alias, kind in {
            "psd": "positive-semidefinite",
            "pd": "positive-definite",
            "projection": "orthogonal-projection",
        }.items():
            assert main(["check", "--property", alias, "--X", eye_file, "--Y", eye_file]) == 0
            assert f'"property": "{kind}"' in capsys.readouterr().out

    def test_unknown_property_lists_every_name(self, capsys, eye_file):
        assert main(["check", "--property", "diagonal", "--X", eye_file, "--Y", eye_file]) == 3
        assert capsys.readouterr().err == (
            "error: unknown property 'diagonal'; known: complex-symmetric, hermitian, "
            "invertible, invertible-hermitian, normal-two-point, normal-vector, "
            "orthogonal-projection, pd, positive-definite, positive-semidefinite, "
            "projection, psd, reflection, unconstrained, unitary\n"
        )
