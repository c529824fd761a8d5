"""Ito/Stratonovich conversion, Cayley transforms, and k-scaled limits."""

import dataclasses
import sys

import numpy as np
import pytest

from slhkit import (
    AssumptionViolated,
    BlockPartition,
    CayleySingular,
    InvalidCoefficients,
    InvalidFamily,
    ScaledSLHFamily,
    SLHModel,
    StratScaledFamily,
    cayley,
    char_op,
    char_op_stratonovich,
    coefficients_from_parts,
    dagger,
    identity,
    ito_to_stratonovich,
    limit_char_op,
    max_abs,
    strat_scaling_limit,
    stratonovich_to_ito,
)
from slhkit import operators, zoo
from conftest import (near_minus_one_model, random_complex, random_family, random_hermitian,
                      random_model, random_unitary)
from oracles import strat_adiabatic_limit


def test_zero_coefficients_map_to_trivial_model():
    E = coefficients_from_parts(E00=np.zeros((2, 2)), El0=np.zeros((2, 2)),
                                Ell=np.zeros((2, 2)))
    model = stratonovich_to_ito(E)
    assert max_abs(model.S - identity(2)) == 0.0
    assert max_abs(model.L) == 0.0
    assert max_abs(model.H) == 0.0


def test_trivial_model_maps_to_zero_coefficients():
    trivial = SLHModel(S=identity(2), L=np.zeros((2, 2)), H=np.zeros((2, 2)))
    E = ito_to_stratonovich(trivial)
    assert max_abs(E.E00) == 0.0
    assert max_abs(E.El0) == 0.0
    assert max_abs(E.Ell) == 0.0


def test_scalar_cayley_value():
    # Ell = 2 (n = m = 1): S = (1 - i)/(1 + i) = -i
    E = coefficients_from_parts(E00=np.zeros((1, 1)), El0=np.zeros((1, 1)),
                                Ell=np.array([[2.0]]))
    model = stratonovich_to_ito(E)
    assert abs(model.S[0, 0] - (-1j)) <= 1e-14


def test_hermiticity_violation_rejected():
    bad = coefficients_from_parts(E00=np.array([[1j]]), El0=np.zeros((1, 1)),
                                  Ell=np.zeros((1, 1)))
    with pytest.raises(InvalidCoefficients):
        stratonovich_to_ito(bad)


def test_round_trip_thermal_qubit_and_random(rng):
    models = [zoo.build("thermal_qubit", gamma=1.2, n=0.3, omega=0.7,
                        phi_plus=0.5, phi_minus=1.9)]
    for _ in range(8):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        models.append(random_model(rng, n, m))
    for model in models:
        E = ito_to_stratonovich(model)
        back = stratonovich_to_ito(E)
        assert max_abs(back.S - model.S) <= 1e-10
        assert max_abs(back.L - model.L) <= 1e-10
        assert max_abs(back.H - model.H) <= 1e-10


def test_round_trip_starting_from_coefficients(rng):
    for _ in range(5):
        n, m = 2, 2
        E = coefficients_from_parts(
            E00=random_hermitian(rng, m),
            El0=random_complex(rng, n * m, m),
            Ell=random_hermitian(rng, n * m),
        )
        model = stratonovich_to_ito(E)
        E2 = ito_to_stratonovich(model)
        assert max_abs(E2.E00 - E.E00) <= 1e-10
        assert max_abs(E2.El0 - E.El0) <= 1e-10
        assert max_abs(E2.Ell - E.Ell) <= 1e-10


def test_cayley_singular_when_scattering_has_minus_one():
    model = SLHModel(S=-identity(1), L=np.zeros((1, 1)), H=np.zeros((1, 1)))
    with pytest.raises(CayleySingular):
        ito_to_stratonovich(model)

    # dark-state scattering of the lambda limit: S = I - 2 sigma* sigma
    S = np.diag([1.0, -1.0]).astype(complex)
    limit_like = SLHModel(S=S, L=np.zeros((2, 2)), H=np.zeros((2, 2)))
    with pytest.raises(CayleySingular):
        ito_to_stratonovich(limit_like)

    # S = (-1 + 1.2e-16 i) I: S + 1 is uniformly tiny, so its pivot ratio is 1
    with pytest.raises(CayleySingular, match="condition estimate 8.166e"):
        ito_to_stratonovich(zoo.build("lossless", phase=np.pi))


def test_stratonovich_form_refused_once_its_predicted_loss_passes_tol():
    # the conversion loses about max|(S + 1)^-1|^2 eps; that maximum is 5e2
    # at delta = 1e-3, within DEFAULT_TOL, and 5e3 at delta = 1e-4, past it
    s = 0.4 + 0.9j
    accepted = near_minus_one_model(1e-3)
    E = ito_to_stratonovich(accepted)
    assert max_abs(char_op_stratonovich(E, s) - char_op(accepted, s)) <= operators.DEFAULT_TOL
    with pytest.raises(CayleySingular, match=r"max\|\(S \+ 1\)\^-1\| = \d\.\d+e\+03 predicts"):
        ito_to_stratonovich(near_minus_one_model(1e-4))


@pytest.mark.parametrize("delta", [1e-1, 1e-2, 1e-3])
def test_round_trip_recovers_h_near_minus_one(delta):
    # the inverse map's loss grows as max|(S + 1)^-1|^2; the forward map must
    # add no loss of its own, so H comes back within 1e-11 up to delta = 1e-3
    model = near_minus_one_model(delta)
    back = stratonovich_to_ito(ito_to_stratonovich(model))
    assert max_abs(back.H - model.H) <= 1e-11


def test_cayley_of_hermitian_is_unitary(rng):
    for _ in range(10):
        E = random_hermitian(rng, int(rng.integers(1, 6)))
        C = cayley(E)
        assert max_abs(dagger(C) @ C - identity(C.shape[0])) <= 1e-10


def test_strat_route_matches_direct_on_random(rng):
    for _ in range(5):
        model = random_model(rng, int(rng.integers(1, 3)), int(rng.integers(2, 4)))
        E = ito_to_stratonovich(model)
        s = complex(rng.uniform(0.3, 2.0), rng.uniform(-2, 2))
        assert max_abs(char_op_stratonovich(E, s)
                       - char_op(model, s)) <= 1e-9


def test_scaling_limit_pure_scattering_shift():
    # Fl0 = 0 degenerates the Schur complement to Fll itself
    Fll = np.array([[0.0, 1.0], [1.0, 0.5]])
    fam = StratScaledFamily(F00=np.array([[2.0]]), Fl0=np.zeros((2, 1)), Fll=Fll)
    assert max_abs(strat_scaling_limit(fam) - cayley(Fll)) <= 1e-14


def test_scaling_limit_scalar_value():
    fam = StratScaledFamily(F00=np.array([[1.0]]), Fl0=np.array([[1.0]]),
                            Fll=np.array([[0.0]]))
    # Ell_hat = -1, so the limit is (1 + i/2)/(1 - i/2)
    want = (1 + 0.5j) / (1 - 0.5j)
    assert abs(strat_scaling_limit(fam)[0, 0] - want) <= 1e-14


def test_scaling_limit_k_sweep_converges(rng):
    F00 = random_hermitian(rng, 2) + 3 * identity(2)
    fam = StratScaledFamily(F00=F00, Fl0=random_complex(rng, 2, 2),
                            Fll=random_hermitian(rng, 2))
    Shat = strat_scaling_limit(fam)
    s = 0.9 + 0.3j
    errs = [max_abs(char_op_stratonovich(fam.coefficients_at(k), s) - Shat)
            for k in (1e2, 1e3)]
    assert errs[1] < errs[0] / 10.0


def test_strat_adiabatic_limit_matches_direct_route(rng):
    fam = zoo.build("detuned_two_level", gamma=1.2, kappa=0.5, delta=2.0,
                    beta=0.8 - 0.3j, omega0=1.0)
    for s in (0.7, 1.0 + 0.6j):
        T_strat = strat_adiabatic_limit(fam, s)
        T_direct = limit_char_op(fam, s)
        assert max_abs(T_strat - T_direct) <= 1e-9

    kerr = zoo.build("kerr_qubit", n_max=6)
    T_strat = strat_adiabatic_limit(kerr, 0.8)
    T_direct = limit_char_op(kerr, 0.8)
    assert max_abs(T_strat - T_direct) <= 1e-9

    # several inputs and a non-contiguous split, where the stacked order of
    # the nm axis matters; S = U (x) I keeps Ell block diagonal
    for n, slow in ((2, (1, 3)), (2, (0, 2, 3)), (3, (0, 2)), (3, (1,))):
        fam = random_family(rng, n, len(slow), 4 - len(slow), slow=slow)
        fam = dataclasses.replace(fam, S=np.kron(random_unitary(rng, n), identity(4)))
        for s in (0.7, 1.0 + 0.6j):
            T_strat = strat_adiabatic_limit(fam, s)
            T_direct = limit_char_op(fam, s)
            assert max_abs(T_strat - T_direct) <= 1e-9


def test_strat_adiabatic_limit_slow_block_unchanged(rng):
    # L1 = 0, H1 = 0, and block-diagonal (S, L0, H0): the slow block of the
    # limit equals the characteristic operator of the slow restriction.
    ms, mf = 2, 2
    m = ms + mf
    part = BlockPartition(dim=m, slow_indices=(0, 1))
    S = identity(m)
    L0 = np.zeros((m, m), dtype=complex)
    L0[:ms, :ms] = random_complex(rng, ms, ms)
    L0[ms:, ms:] = random_complex(rng, mf, mf)
    H0 = np.zeros((m, m), dtype=complex)
    H0[:ms, :ms] = random_hermitian(rng, ms)
    H0[ms:, ms:] = random_hermitian(rng, mf)
    H2 = np.zeros((m, m), dtype=complex)
    H2[ms:, ms:] = random_hermitian(rng, mf) + 2 * identity(mf)
    fam = ScaledSLHFamily(S=S, L0=L0, L1=np.zeros((m, m)), H0=H0,
                          H1=np.zeros((m, m)), H2=H2, partition=part)
    s = 1.1 + 0.2j
    T = strat_adiabatic_limit(fam, s)
    slow_model = SLHModel(S=identity(ms), L=L0[:ms, :ms], H=H0[:ms, :ms])
    assert max_abs(T[:ms, :ms] - char_op(slow_model, s)) <= 1e-9


def test_strat_adiabatic_limit_rejects_coupled_ell(rng):
    # a scattering matrix mixing slow and fast makes Ell non-block-diagonal
    theta = 0.4
    S = np.array([[np.cos(theta), -np.sin(theta)],
                  [np.sin(theta), np.cos(theta)]], dtype=complex)
    L1 = np.zeros((2, 2), dtype=complex)
    L1[:, 1] = [0.0, 1.0]
    H2 = np.diag([0.0, 1.0]).astype(complex)
    fam = ScaledSLHFamily(S=S, L0=np.zeros((2, 2)), L1=L1,
                          H0=np.zeros((2, 2)), H1=np.zeros((2, 2)), H2=H2,
                          partition=BlockPartition(dim=2, slow_indices=(0,)))
    with pytest.raises(AssumptionViolated):
        strat_adiabatic_limit(fam, 1.0)


def test_strat_adiabatic_limit_converts_once(monkeypatch):
    # nm x nm solves: S + I once (one conversion; the Cayley identity gives
    # the k-dependent coefficients) and I + X once
    fam = zoo.build("kerr_qubit")
    nm = fam.n_inputs * fam.dim
    original, shapes = operators.solve, []

    def counting_solve(A, *args, **kwargs):
        shapes.append(np.shape(A))
        return original(A, *args, **kwargs)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("slhkit") and getattr(module, "solve", None) is original:
            monkeypatch.setattr(module, "solve", counting_solve)
    strat_adiabatic_limit(fam, 0.8)
    assert shapes.count((nm, nm)) == 2


@pytest.mark.parametrize("field, value", [("L1", 0.3), ("H2", 0.5)])
def test_strat_adiabatic_limit_refuses_broken_block_structure(field, value):
    # basis (excited, ground); ground is slow, so [1, 1] is in a slow column
    # of L1 and is the slow block of H2
    fam = zoo.build("detuned_two_level")
    broken = np.array(getattr(fam, field))
    broken[1, 1] = value
    with pytest.raises(InvalidFamily):
        strat_adiabatic_limit(dataclasses.replace(fam, **{field: broken}), 1.0)
