"""SLH triples: validation, K, model matrix, series product, rotations,
and passive realizations."""

import numpy as np
import pytest

from slhkit import (
    BlockPartition,
    LinearPassiveSpec,
    SLHModel,
    ScaledSLHFamily,
    ShapeError,
    StratonovichCoefficients,
    StratScaledFamily,
    abcd,
    annihilator,
    dagger,
    gauge,
    identity,
    imag_part,
    k_operator,
    kron,
    max_abs,
    model_matrix,
    number,
    realize_passive,
    rotate,
    series_product,
    validate,
)
from slhkit import zoo
from slhkit.model import field_shape
from conftest import random_model, random_unitary


def _identity_model(n=1, m=2):
    return SLHModel(S=identity(n * m), L=np.zeros((n * m, m)), H=np.zeros((m, m)))


# Every kind with its non-matrix arguments (for m = 3), its first plant-row
# field (which fixes m) and its first stacked field (which fixes n*m).
_KIND_TABLE = [
    (SLHModel, {}, "H", "S"),
    (ScaledSLHFamily, {"partition": BlockPartition(dim=3, slow_indices=(0,))}, "H0", "S"),
    (StratonovichCoefficients, {}, "E00", "El0"),
    (StratScaledFamily, {}, "F00", "Fl0"),
]


def _kind_fields(cls, n=2, m=3):
    """Matrix fields of the declared shapes; square ones symmetric, so Hermitian."""
    fields = {}
    for name in cls.MATRIX_FIELDS:
        rows, cols = field_shape(name, n, m)
        M = np.arange(rows * cols, dtype=float).reshape(rows, cols)
        fields[name] = M + M.T if rows == cols else M
    return fields


@pytest.mark.parametrize("cls,extra,plant,stacked", _KIND_TABLE)
def test_constructors_check_fields_against_the_one_shape_rule(cls, extra, plant, stacked):
    fields = _kind_fields(cls)
    obj = cls(**fields, **extra)
    assert (obj.n_inputs, obj.dim) == (2, 3)
    for name, M in fields.items():
        stored = getattr(obj, name)
        assert stored.dtype == complex and np.array_equal(stored, M)
        assert not stored.flags.writeable

    last = cls.MATRIX_FIELDS[-1]
    bad_cases = [
        ({last: np.zeros((fields[last].shape[0], fields[last].shape[1] + 1))}, last),
        ({name: np.zeros((0, 0)) for name in fields}, stacked),
        ({stacked: np.zeros((7, fields[stacked].shape[1]))}, stacked),  # 7 rows, m = 3
        ({plant: np.zeros((3, 4))}, plant),  # a non-square plant operator
    ]
    for change, named in bad_cases:
        with pytest.raises(ShapeError, match=named):
            cls(**{**fields, **change}, **extra)


@pytest.mark.parametrize("derived", ["n_inputs", "dim"])
def test_slh_model_takes_no_derived_sizes(derived):
    with pytest.raises(TypeError):
        SLHModel(S=identity(3), L=np.zeros((3, 1)), H=np.zeros((1, 1)), **{derived: 3})


def test_validate_trivial_model():
    rep = validate(_identity_model())
    assert rep.s_unitarity == 0.0 and rep.h_hermiticity == 0.0
    assert rep.passed()


def test_validate_thermal_qubit_passes():
    model = zoo.build("thermal_qubit", gamma=1.3, n=0.4, omega=0.8,
                      phi_plus=0.3, phi_minus=1.1)
    assert validate(model).passed()


def test_validate_nonunitary_s_residual():
    model = SLHModel(S=np.diag([1.0, 0.9]).astype(complex),
                     L=np.zeros((2, 2)), H=np.zeros((2, 2)))
    rep = validate(model)
    assert not rep.passed()
    assert rep.s_unitarity == pytest.approx(0.19)


def test_validate_fails_a_generator_that_overflows():
    # S and H are fine and every L entry is finite, but L*L overflows to inf
    cavity = zoo.build("linear_passive", n_max=2)
    rep = validate(SLHModel(S=cavity.S, L=cavity.L * 1e160, H=cavity.H))
    assert rep.s_unitarity == 0.0 and rep.h_hermiticity == 0.0
    assert not rep.k_finite and not rep.passed()
    assert rep.messages == ("the generator K = -L*L/2 - iH overflows: K is not finite",)
    # a finite K far from any tolerance still passes: only overflow fails
    assert validate(SLHModel(S=cavity.S, L=cavity.L * 1e120, H=cavity.H)).passed()


def test_k_operator_examples():
    assert max_abs(k_operator(_identity_model())) == 0.0

    g, n, w = 1.7, 0.25, 0.9
    model = zoo.build("thermal_qubit", gamma=g, n=n, omega=w)
    expected = np.diag([-0.5 * g * (n + 1) - 1j * w, -0.5 * g * n + 1j * w])
    assert max_abs(k_operator(model) - expected) <= 1e-14

    # decaying detuned mode: evaluate the definition entrywise
    gamma, delta, n_max = 0.8, 0.5, 4
    a = annihilator(n_max)
    model = SLHModel(S=identity(n_max + 1), L=np.sqrt(gamma) * a,
                     H=delta * number(n_max))
    want = -(0.5 * gamma + 1j * delta) * number(n_max)
    assert max_abs(k_operator(model) - want) <= 1e-14


def test_model_matrix_blocks_and_shape():
    model = zoo.build("thermal_qubit", gamma=1.0, n=0.5, omega=1.0)
    V = model_matrix(model)
    n, m = model.n_inputs, model.dim
    assert V.shape == ((n + 1) * m, (n + 1) * m)
    assert max_abs(V[:m, :m] - k_operator(model)) == 0.0
    assert max_abs(V[m:, :m] - model.L) == 0.0
    assert max_abs(V[m:, m:] - model.S) == 0.0
    assert max_abs(V[:m, m:] + dagger(model.L) @ model.S) == 0.0

    # no coupling, no Hamiltonian: the generator block vanishes
    V0 = model_matrix(_identity_model(m=m))
    assert max_abs(V0[:m, :m]) == 0.0


def test_series_product_trivial_cascade_is_tensor_lift(rng):
    A = random_model(rng, 2, 3)
    mB = 2
    B = _identity_model(n=2, m=mB)
    C = series_product(B, A)
    n, mA = A.n_inputs, A.dim
    # the (n, m, n, m) block views of S and (n, m, m) of L
    CS, AS = C.S.reshape(n, mB * mA, n, mB * mA), A.S.reshape(n, mA, n, mA)
    CL, AL = C.L.reshape(n, mB * mA, mB * mA), A.L.reshape(n, mA, mA)
    for j in range(n):
        for k in range(n):
            assert max_abs(CS[j, :, k] - kron(identity(mB), AS[j, :, k])) <= 1e-14
        assert max_abs(CL[j] - kron(identity(mB), AL[j])) <= 1e-14
    assert max_abs(C.H - kron(identity(mB), A.H)) <= 1e-14


def test_series_product_hamiltonians_add(rng):
    H1 = np.diag([0.3, -0.3]).astype(complex)
    H2 = np.diag([1.1, 0.2]).astype(complex)
    A = SLHModel(S=identity(2), L=np.zeros((2, 2)), H=H1)
    B = SLHModel(S=identity(2), L=np.zeros((2, 2)), H=H2)
    C = series_product(B, A)
    assert max_abs(C.H - (kron(H2, identity(2)) + kron(identity(2), H1))) == 0.0


def test_series_product_two_passive_cavities_hand_expansion():
    # cascade of two single-mode cavities, expanded symbolically for n_max = 1
    gB, dB, gA, dA = 1.3, 0.4, 0.7, -0.2
    B = zoo.build("linear_passive", gamma=gB, delta=dB, n_max=1)
    A = zoo.build("linear_passive", gamma=gA, delta=dA, n_max=1)
    C = series_product(B, A)
    a = annihilator(1)
    I2 = identity(2)
    L_expected = np.sqrt(gB) * kron(a, I2) + np.sqrt(gA) * kron(I2, a)
    H_expected = (dB * kron(number(1), I2) + dA * kron(I2, number(1))
                  + imag_part(np.sqrt(gB * gA) * kron(dagger(a), a)))
    assert max_abs(C.L - L_expected) <= 1e-14
    assert max_abs(C.H - H_expected) <= 1e-14
    assert max_abs(C.S - identity(4)) == 0.0


def test_series_product_preserves_validity(rng):
    for _ in range(5):
        A = random_model(rng, 2, 2)
        B = random_model(rng, 2, 3)
        C = series_product(B, A)
        rep = validate(C, 1e-10)
        assert rep.passed(1e-10)


def test_series_product_associative_on_small_plants(rng):
    A = random_model(rng, 2, 2)
    B = random_model(rng, 2, 2)
    C = random_model(rng, 2, 2)
    left = series_product(series_product(C, B), A)
    right = series_product(C, series_product(B, A))
    assert max_abs(left.S - right.S) <= 1e-10
    assert max_abs(left.L - right.L) <= 1e-10
    assert max_abs(left.H - right.H) <= 1e-10


def test_series_product_input_count_mismatch():
    with pytest.raises(ShapeError):
        series_product(_identity_model(n=1), _identity_model(n=2))


def test_series_product_refuses_past_the_entry_limit(monkeypatch):
    # S of two n = 1, m = 2 models is formed from 1 * (1 * 2 * 2)^2 = 16 entries
    monkeypatch.setattr("slhkit.model.SERIES_ENTRY_LIMIT", 16)
    assert series_product(_identity_model(), _identity_model()).dim == 4
    monkeypatch.setattr("slhkit.model.SERIES_ENTRY_LIMIT", 15)
    with pytest.raises(ShapeError, match=r"\(n_inputs, dim\) = \(1, 2\) and \(1, 3\) "
                                         r"would form 36 complex entries, over the limit of 15"):
        series_product(_identity_model(), _identity_model(m=3))


def test_rotate_and_gauge_group_behaviour(rng):
    model = zoo.build("thermal_qubit", gamma=1.0, n=0.3, omega=0.5)
    assert max_abs(rotate(model, identity(2)).S - model.S) == 0.0
    V = random_unitary(rng, 2)
    back = rotate(rotate(model, V), dagger(V))
    assert max_abs(back.S - model.S) <= 1e-12
    assert max_abs(back.L - model.L) <= 1e-12
    assert max_abs(back.H - model.H) <= 1e-12

    hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    rotated = rotate(model, hadamard)
    assert validate(rotated, 1e-10).passed(1e-10)
    gauged = gauge(model, hadamard)
    assert validate(gauged, 1e-10).passed(1e-10)


def test_rotate_rejects_nonunitary():
    from slhkit.errors import BadParam
    with pytest.raises(BadParam):
        rotate(_identity_model(), np.diag([1.0, 0.5]))


def test_realize_passive_single_mode():
    gamma, delta = 1.8, -0.4
    spec = LinearPassiveSpec(D=np.array([[1.0]]), C=np.array([[np.sqrt(gamma)]]),
                             omega=np.array([[delta]]), cutoffs=(1,))
    model = realize_passive(spec)
    assert max_abs(model.L - np.sqrt(gamma) * annihilator(1)) <= 1e-15
    assert max_abs(model.H - delta * number(1)) <= 1e-15
    assert max_abs(model.S - identity(2)) == 0.0


def test_realize_passive_two_modes_cross_coupling():
    W = np.array([[0.5, 0.2 - 0.1j], [0.2 + 0.1j, -0.3]])
    spec = LinearPassiveSpec(D=identity(2), C=np.array([[1.0, 0.0], [0.3, 0.7]]),
                             omega=W, cutoffs=(2, 1))
    model = realize_passive(spec)
    assert validate(model, 1e-10).passed(1e-10)
    assert model.dim == 6 and model.n_inputs == 2


def test_abcd_identities(rng):
    for _ in range(10):
        model = random_model(rng, rng.integers(1, 4), rng.integers(2, 5))
        A, B, C, D = abcd(model)
        assert max_abs(A + dagger(A) + dagger(C) @ C) <= 1e-12
        assert max_abs(B + dagger(C) @ D) <= 1e-12
