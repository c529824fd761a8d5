"""Scaled families: assumptions, KZR split, scaled-resolvent limit, limit
models, decoupling, the sigma all-pass limit, and convergence studies."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slhkit import (
    AssumptionViolated,
    BadParam,
    BlockPartition,
    InvalidFamily,
    SLHModel,
    ScaledSLHFamily,
    SingularMatrix,
    assemble_k,
    char_op,
    check_assumptions,
    check_decoupling,
    convergence_study,
    dagger,
    annihilator,
    identity,
    imag_part,
    inverse,
    k_operator,
    kron,
    limit_char_op,
    limit_slh,
    max_abs,
    number,
    pauli,
    scaled_resolvent_limit,
    validate,
)
from slhkit import adiabatic, zoo
from conftest import near_limit_family, random_complex, random_family, random_hermitian


def test_assemble_k_zero_strength_and_detuned_form():
    params = dict(gamma=1.1, kappa=0.4, delta=2.0, beta=0.7 - 0.2j, omega0=0.9)
    fam = zoo.build("detuned_two_level", **params)
    m0 = assemble_k(fam, 0.0)
    assert max_abs(m0.L - fam.L0) == 0.0
    assert max_abs(m0.H - fam.H0) == 0.0

    # k = 1 reproduces the displayed Hamiltonian and coupling
    m1 = assemble_k(fam, 1.0)
    b = params["beta"]
    H_expected = np.array([
        [params["delta"] + params["omega0"], b],
        [np.conj(b), params["omega0"]],
    ])
    L_expected = np.array([
        [np.sqrt(params["gamma"]), 0.0],
        [np.sqrt(params["kappa"]), -np.sqrt(params["gamma"])],
    ])
    assert max_abs(m1.H - H_expected) <= 1e-14
    assert max_abs(m1.L - L_expected) <= 1e-14

    assert validate(assemble_k(fam, 10.0), 1e-10).passed(1e-10)


def test_assemble_k_rejects_broken_structure():
    part = BlockPartition(dim=2, slow_indices=(0,))
    L1 = np.ones((2, 2), dtype=complex)  # nonzero slow column
    fam = ScaledSLHFamily(S=identity(2), L0=np.zeros((2, 2)), L1=L1,
                          H0=np.zeros((2, 2)), H1=np.zeros((2, 2)),
                          H2=np.diag([0.0, 1.0]).astype(complex),
                          partition=part)
    with pytest.raises(InvalidFamily):
        assemble_k(fam, 2.0)


def test_kzr_detuned_two_level_fast_generator():
    fam = zoo.build("detuned_two_level", delta=2.5)
    p = fam._slow_first
    A_ff = p.A[p.fa, p.fa]
    assert A_ff.shape == (1, 1)
    assert abs(A_ff[0, 0] - (-2.5j)) <= 1e-14


def test_kzr_zero_family_is_zero():
    part = BlockPartition(dim=2, slow_indices=(0,))
    fam = ScaledSLHFamily(S=identity(2), L0=np.zeros((2, 2)),
                          L1=np.zeros((2, 2)), H0=np.zeros((2, 2)),
                          H1=np.zeros((2, 2)), H2=np.zeros((2, 2)),
                          partition=part)
    p = fam._slow_first
    assert max_abs(p.A) == 0.0 and max_abs(p.Z) == 0.0 and max_abs(p.R) == 0.0


def test_kzr_lambda_matches_displayed_generator():
    gamma, g, n_max = 1.4, 0.9, 3
    fam = zoo.build("lambda_system", gamma=gamma, alpha=0.3, g=g, n_max=n_max)
    p = fam._slow_first
    a = annihilator(n_max)
    E = np.zeros((3, 3), dtype=complex)  # |e><g1| with levels (g1, g2, e)
    E[2, 0] = 1.0
    A_expected = (-0.5 * gamma * kron(identity(3), number(n_max))
                  + g * (kron(E, a) - kron(dagger(E), dagger(a))))
    perm = fam.partition.perm
    assert max_abs(p.A - A_expected[perm[:, None], perm]) <= 1e-13


def test_kzr_reassembles_k_at_spot_strengths(rng):
    fam = random_family(rng, 2, 2, 3, contiguous=False)
    p = fam._slow_first
    perm = fam.partition.perm
    for k in (0.5, 3.0, 17.0):
        K_direct = k_operator(assemble_k(fam, k))[perm[:, None], perm]
        K_kzr = k * k * p.A + k * p.Z + p.R
        assert max_abs(K_direct - K_kzr) <= 1e-9 * max(1.0, k * k)


def test_kzr_identity_residuals_tiny(rng):
    fam = random_family(rng, 2, 2, 2)
    residuals = fam._slow_first.identities
    assert max(residuals.values()) <= 1e-12


def test_check_assumptions_pass_and_fail_modes():
    good = zoo.build("detuned_two_level", delta=1.5)
    report = check_assumptions(good)
    assert report.passed()
    assert max(report.k_identity_residuals.values()) <= 1e-12

    # delta = 0 makes A_ff the zero matrix
    part = BlockPartition(dim=2, slow_indices=(1,))
    sz = np.diag([1.0, -1.0]).astype(complex)
    degenerate = ScaledSLHFamily(
        S=identity(2), L0=sz, L1=np.zeros((2, 2)),
        H0=np.zeros((2, 2)), H1=np.zeros((2, 2)), H2=np.zeros((2, 2)),
        partition=part)
    report = check_assumptions(degenerate)
    assert not report.aff_invertible
    assert not report.passed()

    broken = ScaledSLHFamily(
        S=identity(2), L0=np.zeros((2, 2)), L1=np.ones((2, 2)),
        H0=np.zeros((2, 2)), H1=np.zeros((2, 2)),
        H2=np.diag([0.0, 1.0]).astype(complex), partition=part)
    report = check_assumptions(broken)
    assert report.structural["L1_slow_columns"] == 1.0
    assert not report.passed()


def test_assumption_report_built_once_per_family(monkeypatch):
    # the report is a cached property of the family's view: the gates of
    # limit_slh, limit_char_op and convergence_study read it, not rebuild it
    built = []
    report_type = adiabatic.AssumptionReport
    monkeypatch.setattr(adiabatic, "AssumptionReport",
                        lambda **fields: built.append(fields) or report_type(**fields))
    fam = near_limit_family()
    report = check_assumptions(fam)
    assert check_assumptions(fam) is report
    assert report.passed()
    # the near-limit note is a message, not a warning (warnings fail the suite)
    assert report.messages == ("A_ff condition estimate 1.111e+09 is near the limit",)
    limit_slh(fam)
    limit_char_op(fam, 1.0)
    convergence_study(fam, 1.0, [10.0, 100.0])
    assert len(built) == 1


def test_nan_or_overflowed_residuals_fail_the_report():
    # Python's max(0.0, nan) is 0.0; every residual verdict must see the nan
    report = check_assumptions(zoo.build("detuned_two_level"))
    assert report.passed()
    nan = float("nan")
    for field, value in (("structural", {"L1_slow_columns": 0.0, "H1_ss": nan}),
                         ("hermiticity", {"H0": 0.0, "H1": nan}),
                         ("s_unitarity", nan),
                         ("k_identity_residuals", {"R_ss": 0.0, "Z_sf": nan}),
                         ("k_identity_residuals", {"R_ss": float("inf")})):
        assert not dataclasses.replace(report, **{field: value}).passed(), field

    # L0 entries of 1e160 overflow R = -L0* L0 / 2 - i H0: the K identity
    # residual R_ss is nan and the family fails, with a note saying why
    fam = zoo.build("detuned_two_level")
    with np.errstate(over="ignore", invalid="ignore"):
        report = check_assumptions(dataclasses.replace(fam, L0=fam.L0 * 1e160))
    assert np.isnan(report.k_identity_residuals["R_ss"])
    assert not report.passed()
    assert report.messages == ("the generator K(k) overflows: K identity residual "
                               "not finite (R_ss)",)


def test_report_identity_residuals_only_for_sound_structure():
    # the identities are withheld whenever structure or Hermiticity fails at
    # the default tolerance, even when the report's own tolerance is looser
    fam = zoo.build("detuned_two_level", delta=2.0)
    L1 = np.array(fam.L1)
    L1[0, 1] = 1e-6
    H0 = np.array(fam.H0)
    H0[0, 1] = 1e-7
    for changes in (dict(L1=L1), dict(H0=H0)):
        bad = dataclasses.replace(fam, **changes)
        loose = check_assumptions(bad)
        assert loose.passed(tol=1e-5)
        assert loose.k_identity_residuals == {}


def test_scaled_resolvent_limit_decoupled_case(rng):
    M11 = random_hermitian(rng, 2)
    M22 = random_hermitian(rng, 2) + 3 * identity(2)
    Z = np.zeros((2, 2))
    s = 1.3 + 0.4j
    D = scaled_resolvent_limit(M11, Z, Z, M22, s)
    assert max_abs(D.X_ss - inverse(s * identity(2) + M11)) <= 1e-12
    assert max_abs(D.X_ff - inverse(M22)) <= 1e-12
    assert max_abs(D.X_sf) == 0.0 and max_abs(D.X_fs) == 0.0


def test_scaled_resolvent_limit_scalar_precondition():
    one = np.array([[1.0]])
    zero = np.array([[0.0]])
    # Mhat11 = -1 makes (s + Mhat11) singular at s = 1
    with pytest.raises(SingularMatrix):
        scaled_resolvent_limit(zero, one, one, one, 1.0)


def test_limit_char_op_detuned_closed_form():
    params = dict(gamma=0.9, kappa=0.3, delta=2.2, beta=1.1 + 0.4j, omega0=0.6)
    fam = zoo.build("detuned_two_level", **params)
    for s in (0.5, 1.0 + 0.8j, 3.0):
        T = limit_char_op(fam, s)
        Z = zoo.closed_form_char("detuned_two_level", params, s)
        assert max_abs(T - Z) <= 1e-10
    # the Stratonovich route has a removable pole here; the pencil does not
    params = dict(gamma=1.0, kappa=0.3, delta=4.0, beta=2.0, omega0=1.0)
    fam = zoo.build("detuned_two_level", **params)
    Z = zoo.closed_form_char("detuned_two_level", params, 0.0)
    assert max_abs(limit_char_op(fam, 0.0) - Z) <= 1e-10


def test_limit_char_op_zero_at_matched_shift():
    # omega0 = 1, beta = 2, delta = 4 shifts the frequency to zero, so the
    # ground-state entry vanishes at s = gamma/2
    params = dict(gamma=1.3, kappa=0.4, delta=4.0, beta=2.0, omega0=1.0)
    fam = zoo.build("detuned_two_level", **params)
    T = limit_char_op(fam, 0.5 * params["gamma"])
    assert abs(T[1, 1]) <= 1e-12
    assert abs(T[0, 0] - 1.0) <= 1e-12


def test_limit_char_op_lossless_family_returns_scattering(rng):
    part = BlockPartition(dim=3, slow_indices=(0,))
    S = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, size=3))).astype(complex)
    H2 = np.zeros((3, 3), dtype=complex)
    H2[1:, 1:] = random_hermitian(rng, 2) + 2 * identity(2)
    fam = ScaledSLHFamily(S=S, L0=np.zeros((3, 3)), L1=np.zeros((3, 3)),
                          H0=np.zeros((3, 3)), H1=np.zeros((3, 3)), H2=H2,
                          partition=part)
    assert max_abs(limit_char_op(fam, 0.8) - S) <= 1e-12


def test_limit_requires_assumptions():
    part = BlockPartition(dim=2, slow_indices=(1,))
    degenerate = ScaledSLHFamily(
        S=identity(2), L0=np.diag([1.0, -1.0]).astype(complex),
        L1=np.zeros((2, 2)), H0=np.zeros((2, 2)), H1=np.zeros((2, 2)),
        H2=np.zeros((2, 2)), partition=part)
    with pytest.raises(AssumptionViolated):
        limit_char_op(degenerate, 1.0)
    with pytest.raises(AssumptionViolated):
        limit_slh(degenerate)


def test_limit_slh_trivial_damping_schur_complement(rng):
    # S = I, L1 = 0, L0_fs = 0: the limit Hamiltonian is the shorted form
    # H0_ss - H1_sf H2_ff^-1 H1_fs and the coupling restricts to the slow block.
    ms, mf = 2, 2
    m = ms + mf
    part = BlockPartition(dim=m, slow_indices=(0, 1))
    L0 = np.zeros((m, m), dtype=complex)
    L0[:, :ms] = random_complex(rng, m, ms)
    L0[ms:, :ms] = 0.0          # no fast rows from slow columns
    L0[:ms, :ms] = random_complex(rng, ms, ms)
    H0 = np.zeros((m, m), dtype=complex)
    H0[:ms, :ms] = random_hermitian(rng, ms)
    H1 = random_hermitian(rng, m)
    H1[:ms, :ms] = 0.0
    H2 = np.zeros((m, m), dtype=complex)
    H2[ms:, ms:] = random_hermitian(rng, mf) + 2 * identity(mf)
    fam = ScaledSLHFamily(S=identity(m), L0=L0, L1=np.zeros((m, m)),
                          H0=H0, H1=H1, H2=H2, partition=part)
    limit = limit_slh(fam)
    H2ff_inv = inverse(H2[ms:, ms:])
    H_shorted = H0[:ms, :ms] - H1[:ms, ms:] @ H2ff_inv @ H1[ms:, :ms]
    assert max_abs(limit.Hhat[:ms, :ms] - H_shorted) <= 1e-11
    assert max_abs(limit.Shat - identity(m)) <= 1e-12
    assert max_abs(limit.Lhat[:, :ms] - L0[:, :ms]) <= 1e-12
    assert limit.decoupled


def test_limit_slh_nontrivial_damping_simplified_forms(rng):
    # S = I, L0_fs = 0, L1_ff = 0, L1_sf != 0: compare against the displayed
    # simplified limit with M_sf = -1/2 L0_ss* L1_sf - i H1_sf.
    ms, mf = 2, 2
    m = ms + mf
    part = BlockPartition(dim=m, slow_indices=(0, 1))
    L0 = np.zeros((m, m), dtype=complex)
    L0[:ms, :ms] = random_complex(rng, ms, ms)
    L1 = np.zeros((m, m), dtype=complex)
    L1[:ms, ms:] = random_complex(rng, ms, mf)
    H1 = random_hermitian(rng, m)
    H1[:ms, :ms] = 0.0
    H2 = np.zeros((m, m), dtype=complex)
    H2[ms:, ms:] = random_hermitian(rng, mf) + 2 * identity(mf)
    H0 = np.zeros((m, m), dtype=complex)
    H0[:ms, :ms] = random_hermitian(rng, ms)
    fam = ScaledSLHFamily(S=identity(m), L0=L0, L1=L1, H0=H0, H1=H1, H2=H2,
                          partition=part)
    limit = limit_slh(fam)

    L0ss = L0[:ms, :ms]
    L1sf = L1[:ms, ms:]
    Aff = -0.5 * dagger(L1sf) @ L1sf - 1j * H2[ms:, ms:]
    Aff_inv = inverse(Aff)
    M_sf = -0.5 * dagger(L0ss) @ L1sf - 1j * H1[:ms, ms:]
    M_fs = -0.5 * dagger(L1sf) @ L0ss - 1j * H1[ms:, :ms]
    S_hat_ss = identity(ms) + L1sf @ Aff_inv @ dagger(L1sf)
    L_hat_s = L0ss - L1sf @ Aff_inv @ M_fs
    H_hat = H0[:ms, :ms] + imag_part(M_sf @ Aff_inv @ M_fs)

    rows_s = part.stacked_rows(1, "slow")
    assert max_abs(limit.Shat[np.ix_(rows_s, rows_s)] - S_hat_ss) <= 1e-11
    assert max_abs(limit.Lhat[np.ix_(rows_s, np.arange(ms))] - L_hat_s) <= 1e-11
    assert max_abs(limit.Hhat[:ms, :ms] - H_hat) <= 1e-11


def test_limit_slh_lambda_closed_form_and_cutoff_independence():
    gamma, alpha, g = 2.0, 0.5 + 0.2j, 1.3
    sigma = np.array([[0, 1], [0, 0]], dtype=complex)
    c = np.sqrt(gamma) * alpha / g
    collected = {}
    for n_max in (2, 4, 8):
        fam = zoo.build("lambda_system", gamma=gamma, alpha=alpha, g=g,
                        n_max=n_max)
        limit = limit_slh(fam)
        rows = fam.partition.stacked_rows(1, "slow")
        cols = np.array(fam.partition.slow_indices)
        Shat_ss = limit.Shat[np.ix_(rows, rows)]
        Lhat_s = limit.Lhat[np.ix_(rows, cols)]
        Hhat_ss = limit.Hhat[np.ix_(cols, cols)]
        assert max_abs(Shat_ss - (identity(2) - 2 * dagger(sigma) @ sigma)) <= 1e-12
        assert max_abs(Lhat_s + c * sigma) <= 1e-12
        assert max_abs(Hhat_ss) <= 1e-12
        assert limit.decoupled
        collected[n_max] = (Shat_ss, Lhat_s, Hhat_ss)
    for a, b in ((2, 4), (4, 8)):
        assert max(max_abs(collected[a][i] - collected[b][i]) for i in range(3)) <= 1e-10


def _counterexample_family(rng):
    # L1 with both sf and ff blocks produces Shat_fs != 0
    ms, mf = 1, 2
    m = ms + mf
    part = BlockPartition(dim=m, slow_indices=(0,))
    L1 = np.zeros((m, m), dtype=complex)
    L1[:, ms:] = random_complex(rng, m, mf)
    H2 = np.zeros((m, m), dtype=complex)
    H2[ms:, ms:] = random_hermitian(rng, mf) + 2 * identity(mf)
    fam = ScaledSLHFamily(S=identity(m), L0=random_complex(rng, m, m),
                          L1=L1, H0=random_hermitian(rng, m),
                          H1=np.zeros((m, m)), H2=H2, partition=part)
    return fam


def test_check_decoupling_counterexample(rng):
    limit = limit_slh(_counterexample_family(rng))
    ok, residual = check_decoupling(limit)
    assert not ok and residual > 1e-6


def test_check_decoupling_lambda_and_kerr():
    lam = limit_slh(zoo.build("lambda_system", n_max=3))
    ok, residual = check_decoupling(lam)
    assert ok and residual <= 1e-12

    kerr = limit_slh(zoo.build("kerr_qubit", n_max=5))
    ok, residual = check_decoupling(kerr)
    assert ok and residual <= 1e-12


def test_check_decoupling_rejects_mismatched_slow_model():
    limit = limit_slh(zoo.build("lambda_system", n_max=3))
    slow = limit.slow_model
    perturbed = SLHModel(S=slow.S, L=slow.L, H=slow.H + 0.1 * pauli("x"))
    with pytest.raises(AssumptionViolated, match="not block diagonal"):
        check_decoupling(dataclasses.replace(limit, slow_model=perturbed))


def test_limit_and_check_decoupling_share_one_residual(rng):
    families = [
        zoo.build("lambda_system", n_max=3),
        zoo.build("kerr_qubit", n_max=5),
        _counterexample_family(rng),
    ]
    families += [random_family(rng, n_inputs, 2, 3, contiguous=contiguous)
                 for n_inputs in (1, 2) for contiguous in (True, False)]
    for fam in families:
        limit = limit_slh(fam)
        assert limit.decoupling_residual == check_decoupling(limit)[1]


def test_limit_slh_writes_back_by_slow_index(rng):
    # drawn splits: Lhat and Hhat are written by slow index, and every entry
    # outside the slow columns (slow x slow block) stays exactly 0
    splits = []
    for n_inputs in (1, 2, 1, 2):
        fam = random_family(rng, n_inputs, 2, 3, contiguous=False)
        slow, fast = fam.partition.slow_indices, fam.partition.fast_indices
        splits.append((n_inputs, slow))
        limit = limit_slh(fam)
        assert np.all(limit.Lhat[:, fast] == 0)
        assert np.all(limit.Lhat[:, slow] != 0)
        outside = np.ones((fam.dim, fam.dim), dtype=bool)
        outside[np.ix_(slow, slow)] = False
        assert np.all(limit.Hhat[outside] == 0)
        assert np.all(limit.Hhat[np.ix_(slow, slow)] != 0)
    assert {n for n, slow in splits if slow != (0, 1)} == {1, 2}


def test_convergence_study_slopes_and_short_lists():
    fam = zoo.build("detuned_two_level", gamma=1.0, kappa=0.5, delta=2.0,
                    beta=1.0, omega0=1.0)
    study = convergence_study(fam, 1.0, [10, 100, 1000, 10000])
    assert all(study.errors[i + 1] < study.errors[i] for i in range(3))
    assert study.slope == pytest.approx(-1.0, abs=0.3)

    lam = zoo.build("lambda_system", n_max=2)
    study = convergence_study(lam, 1.0, [10, 100, 1000, 10000])
    assert all(study.errors[i + 1] < study.errors[i] for i in range(3))
    assert study.slope == pytest.approx(-1.0, abs=0.3)

    single = convergence_study(fam, 1.0, [500.0])
    assert single.slope is None and len(single.errors) == 1


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(seed=st.integers(0, 2 ** 32 - 1), n_inputs=st.sampled_from([1, 2, 3]),
       contiguous=st.booleans())
def test_convergence_study_matches_assembled_models(seed, n_inputs, contiguous):
    rng = np.random.default_rng(seed)
    fam = random_family(rng, n_inputs, int(rng.integers(1, 3)),
                        int(rng.integers(1, 4)), contiguous=contiguous)
    s = complex(rng.uniform(0.3, 2.0), rng.uniform(-2.0, 2.0))
    ks = [1e2, 1e3, 1e4, 1e5]
    study = convergence_study(fam, s, ks)
    That = limit_char_op(fam, s)
    for k, err in study.rows():
        want = max_abs(char_op(assemble_k(fam, k), s) - That)
        assert abs(err - want) <= 1e-12, (k, err, want)


def test_convergence_study_evaluates_far_past_assembled_models():
    # s - K(k) is refused from k = 1e6 on; the balanced pencil is not
    cases = [
        ("detuned_two_level", {}, -1.0),
        ("lambda_system", {"n_max": 40}, -1.0),
        ("kerr_qubit", {}, -2.0),   # zero first-order correction
    ]
    for name, kwargs, slope in cases:
        fam = zoo.build(name, **kwargs)
        study = convergence_study(fam, 1.0, [1e5, 1e6, 1e7, 1e8])
        assert study.slope == pytest.approx(slope, abs=0.01), name


def test_convergence_study_small_k_and_invalid_k():
    # below k = 1 the pencil is s - K(k) itself, down to k = 1e-200
    fam = zoo.build("lambda_system", n_max=5)
    study = convergence_study(fam, 1.0, [1e-200, 1e-9, 1e-3, 0.5])
    That = limit_char_op(fam, 1.0)
    for k, err in study.rows():
        want = max_abs(char_op(assemble_k(fam, k), 1.0) - That)
        assert abs(err - want) <= 1e-12, (k, err, want)
    for bad in (0.0, -10.0, float("nan"), float("inf")):
        with pytest.raises(BadParam, match="finite and > 0"):
            convergence_study(fam, 1.0, [10.0, bad])


def test_zoo_families_finite_k_error_bounded():
    # err(k) <= C/k from k0 = 100; fitted constants per family (the Kerr
    # family has no linear-in-k generator term and decays one order faster,
    # so its bound is loose)
    cases = [
        ("detuned_two_level", {}, 0.4),
        ("lambda_system", {"n_max": 2}, 1.2),
        ("kerr_qubit", {"n_max": 6}, 0.2),
    ]
    for name, kwargs, C in cases:
        fam = zoo.build(name, **kwargs)
        study = convergence_study(fam, 1.0, [100.0, 1000.0, 10000.0])
        for k, err in study.rows():
            assert err <= C / k, (name, k, err)


def test_limit_consistency_on_random_families(rng):
    # the direct limit equals the characteristic operator of the limit triple
    for _ in range(5):
        fam = random_family(rng, int(rng.integers(1, 3)), 2, 2,
                            contiguous=bool(rng.integers(0, 2)))
        limit = limit_slh(fam)
        assert limit.shat_unitarity <= 1e-9
        assert limit.hhat_alt_residual <= 1e-10
        for _ in range(3):
            s = complex(rng.uniform(0.3, 2.0), rng.uniform(-2, 2))
            T_direct = limit_char_op(fam, s)
            T_triple = char_op(limit.as_model(), s)
            assert max_abs(T_direct - T_triple) <= 1e-9
        # high-|s| limit returns the limit scattering matrix
        assert max_abs(limit_char_op(fam, 1e6) - limit.Shat) <= 1e-3


def test_slow_indices_from_kernel_examples():
    lam = zoo.build("lambda_system", gamma=1.0, alpha=0.4, g=0.8, n_max=4)
    assert lam.partition.slow_indices == (0, 5)
    # the zoo families state their splits; with the structure holding and
    # A_ff invertible, the kernel of A is exactly the stated slow set
    for name, params in [("lambda_system", dict(gamma=1.0, alpha=0.4, g=0.8, n_max=4)),
                         ("lambda_system", dict(gamma=0.3, alpha=0.7 - 0.2j, g=2.5, n_max=2)),
                         ("lambda_system", dict(gamma=2.2, alpha=-0.1j, g=0.4, n_max=9)),
                         ("lambda_system", {}),
                         ("kerr_qubit", dict(chi0=0.6, n_max=5)),
                         ("detuned_two_level", {})]:
        fam = zoo.build(name, **params)
        assert check_assumptions(fam).passed(), (name, params)
