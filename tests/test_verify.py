import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from targetkit import (
    COMPLEX_SYMMETRIC,
    DEFAULT_TOL,
    HERMITIAN,
    INVERTIBLE,
    INVERTIBLE_HERMITIAN,
    NORMAL_VECTOR,
    ORACLE_MAX_DIM,
    ORTHOGONAL_PROJECTION,
    POSITIVE_DEFINITE,
    POSITIVE_SEMIDEFINITE,
    PROPERTY_KINDS,
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
    verify_property,
    verify_targeting,
    write_matrix,
)
from targetkit.cli import main

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
        m = ORACLE_MAX_DIM + 1
        with pytest.raises(TooLargeError):
            oracle_feasible_subspace(np.eye(m), np.eye(m), "any-matrix")
        oracle_feasible_subspace(np.eye(3), np.eye(3), "any-matrix", max_dim=3)
        with pytest.raises(TooLargeError):
            oracle_feasible_subspace(np.eye(4), np.eye(4), "any-matrix", max_dim=3)

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
            definite = -float(np.linalg.eigvalsh(Ah)[0]) / float(np.linalg.norm(Ah, 2))
            want = {
                "hermitian": (hermitian, tol.sym_tol),
                "symmetric": (symmetric, tol.sym_tol),
                "positive-semidefinite": (definite, tol.psd_tol),
                "positive-definite": (definite, -tol.psd_tol),
            }
            for kind in ("hermitian", "complex-symmetric", "positive-semidefinite", "positive-definite"):
                for c in verify_property(A, PropertyClass(kind)).conditions:
                    dev, threshold = want[c.name]
                    assert c.deviation.hex() == dev.hex(), (kind, c.name)
                    assert c.threshold == threshold
                    assert c.satisfied == (dev <= threshold)


@pytest.fixture
def eye_file(tmp_path):
    path = tmp_path / "eye.mtx"
    write_matrix(path, np.eye(2))
    return str(path)


class TestClassNames:
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
