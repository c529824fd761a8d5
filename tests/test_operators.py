"""Operator constructors, dagger/kron algebra, and guarded inversion."""

import numpy as np
import pytest

from slhkit import (
    BadParam,
    ShapeError,
    SingularMatrix,
    annihilator,
    condition_estimate,
    dagger,
    identity,
    inverse,
    is_hermitian,
    is_unitary,
    kron,
    max_abs,
    number,
    pauli,
    projector,
)
from slhkit.operators import solve
from conftest import random_complex


def test_kron_identity_case():
    assert np.array_equal(kron(identity(2), identity(3)), identity(6))


def test_kron_structural_unit_entries():
    A = np.array([[0, 1], [0, 0]], dtype=complex)
    K = kron(A, identity(2))
    nz = sorted(zip(*np.nonzero(K)))
    assert nz == [(0, 2), (1, 3)]
    assert np.all(K[K != 0] == 1.0)


def test_kron_pauli_z_with_annihilator():
    # hand expansion: sigma_z (x) a = block-diag(a, -a) for a 2-state mode
    a = annihilator(1)
    K = kron(pauli("z"), a)
    expected = np.zeros((4, 4), dtype=complex)
    expected[:2, :2] = a
    expected[2:, 2:] = -a
    assert max_abs(K - expected) == 0.0


def test_kron_associative_exact_on_integer_matrices(rng):
    A = rng.integers(-3, 4, size=(2, 2)).astype(complex)
    B = rng.integers(-3, 4, size=(3, 2)).astype(complex)
    C = rng.integers(-3, 4, size=(2, 3)).astype(complex)
    assert np.array_equal(kron(kron(A, B), C), kron(A, kron(B, C)))


def test_dagger_examples():
    assert np.array_equal(dagger(identity(3)), identity(3))
    A = np.array([[1j, 0], [1, 0]], dtype=complex)
    assert np.array_equal(dagger(A), np.array([[-1j, 1], [0, 0]]))


def test_dagger_involution_and_antihomomorphism(rng):
    A = random_complex(rng, 4, 4)
    B = random_complex(rng, 4, 4)
    assert max_abs(dagger(dagger(A)) - A) == 0.0
    assert max_abs(dagger(A @ B) - dagger(B) @ dagger(A)) <= 1e-12


def test_inverse_examples():
    assert max_abs(inverse(identity(4)) - identity(4)) == 0.0
    A = np.array([[1, 1], [0, 1]], dtype=complex)
    Ainv = inverse(A)
    assert max_abs(Ainv - np.array([[1, -1], [0, 1]])) <= 1e-14
    assert max_abs(A @ Ainv - identity(2)) <= 1e-14


def test_inverse_rank_deficient_raises():
    with pytest.raises(SingularMatrix):
        inverse(np.array([[1, 1], [1, 1]], dtype=complex))


def test_inverse_cond_limit_enforced():
    inverse(np.diag([1.0, 1e-8]).astype(complex))  # cond ~ 1e8 passes the one limit
    with pytest.raises(SingularMatrix):
        inverse(np.diag([1.0, 1e-13]).astype(complex))  # cond ~ 1e13 does not


@pytest.mark.parametrize("entry", [np.inf, -np.inf, np.nan, complex(0, np.inf)])
def test_solve_refuses_a_non_finite_matrix(entry):
    # an overflowed generator is refused like a singular one, not by a scipy ValueError
    A = identity(3)
    A[1, 2] = entry
    with pytest.raises(SingularMatrix) as info:
        solve(A, np.ones(3))
    assert info.value.cond_estimate == np.inf
    assert condition_estimate(A) == np.inf


def test_inverse_residual_scales_with_condition(rng):
    for _ in range(10):
        A = random_complex(rng, 5, 5) + 3 * identity(5)
        cond = np.linalg.cond(A)
        res = max_abs(A @ inverse(A) - identity(5))
        assert res <= 1e-9 * cond


def test_inverse_requires_square():
    with pytest.raises(ShapeError):
        inverse(np.ones((2, 3), dtype=complex))


def test_annihilator_action_on_fock_states():
    a = annihilator(2)
    ket1 = np.array([0.0, 1.0, 0.0], dtype=complex)
    ket0 = np.array([1.0, 0.0, 0.0], dtype=complex)
    assert max_abs((a @ ket1 - ket0).reshape(-1, 1)) == 0.0
    assert np.array_equal(number(2), np.diag([0.0, 1.0, 2.0]).astype(complex))


def test_truncated_commutator_exact_form():
    # [a, a*] = I except the top corner, which is -n_max; assert exactly that.
    for n_max in (1, 3, 6):
        a = annihilator(n_max)
        comm = a @ dagger(a) - dagger(a) @ a
        expected = identity(n_max + 1)
        expected[n_max, n_max] = -n_max
        assert max_abs(comm - expected) <= 1e-12  # sqrt(n)^2 rounds


def test_pauli_minus_convention():
    assert np.array_equal(pauli("minus"), np.array([[0, 0], [1, 0]], dtype=complex))
    assert np.array_equal(pauli("plus"), dagger(pauli("minus")))
    with pytest.raises(BadParam):
        pauli("w")


def test_projector_and_param_errors():
    P = projector({0, 2}, 3)
    assert np.array_equal(P, np.diag([1.0, 0.0, 1.0]).astype(complex))
    with pytest.raises(BadParam):
        projector([3], 3)
    with pytest.raises(BadParam):
        annihilator(0)


def test_checks_with_residual_report():
    ok, res = is_unitary(identity(3))
    assert ok and res == 0.0
    ok, res = is_hermitian(np.array([[0, 1j], [-1j, 0]]))
    assert ok and res <= 1e-12
    ok, res = is_unitary(np.diag([1.0, 0.5]).astype(complex))
    assert not ok
    assert res == pytest.approx(0.75)
