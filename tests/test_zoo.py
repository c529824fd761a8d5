"""Zoo builders against their closed-form oracles and parameter validation."""

import dataclasses

import numpy as np
import pytest

from slhkit import (
    BadParam,
    BlockPartition,
    NoClosedForm,
    char_op,
    dagger,
    identity,
    limit_char_op,
    max_abs,
    pauli,
    validate,
    vacuum_expectation_char,
)
from slhkit import zoo


def _sample_points(rng, count=20):
    return [complex(rng.uniform(0.3, 3.0), rng.uniform(-2.0, 2.0))
            for _ in range(count)]


def test_registry_lists_eight_entries():
    assert len(zoo.names()) == 8


def test_unknown_entry_and_unknown_params():
    with pytest.raises(BadParam):
        zoo.build("nonexistent")
    with pytest.raises(BadParam):
        zoo.build("thermal_qubit", coupling=2.0)


def test_parameter_range_validation():
    with pytest.raises(BadParam):
        zoo.build("thermal_qubit", gamma=-1.0)
    with pytest.raises(BadParam):
        zoo.build("thermal_qubit", n=1.5)
    with pytest.raises(BadParam):
        zoo.build("lambda_system", n_max=1)
    with pytest.raises(BadParam):
        zoo.build("detuned_two_level", delta=0.0)


@pytest.mark.parametrize("params", [
    {"n_max": 2.5},               # int default given a non-integer
    {"n_max": True},              # ... or a bool
    {"gamma": "abc"},             # float default given a non-number
    {"gamma": 1.0 + 1.0j},
    {"alpha": "0.5"},             # complex default given a non-number
    {"n_max": "2"},               # every parameter is a number, never a string ...
    {"g": None},                  # ... or None
])
def test_parameter_type_must_fit_its_default(params):
    with pytest.raises(BadParam):
        zoo.build("lambda_system", **params)


def test_parameter_types_that_fit_their_default_build():
    fam = zoo.build("lambda_system", gamma=np.float64(1), alpha=1, g=2, n_max=np.int64(2))
    assert fam.partition.slow_indices == (0, 3)


def test_lambda_split_is_not_a_parameter():
    with pytest.raises(BadParam, match=r"unknown parameters for lambda_system: \['slow_indices'\]"):
        zoo.build("lambda_system", slow_indices=(0, 1))


def test_thermal_qubit_coupling_formula():
    model = zoo.build("thermal_qubit", gamma=1.0, n=0.5, omega=1.0)
    expected = np.sqrt(1.5) * pauli("minus") + np.sqrt(0.5) * pauli("plus")
    assert max_abs(model.L - expected) <= 1e-14
    assert max_abs(model.S - identity(2)) == 0.0
    assert validate(model).passed()


def test_every_entry_builds_valid():
    for name in zoo.names():
        obj = zoo.build(name)
        if zoo.entry(name).kind == "slh":
            assert validate(obj, 1e-9).passed(1e-9), name
        else:
            from slhkit import check_assumptions
            assert check_assumptions(obj).passed(), name


def test_lambda_kernel_spans_dark_states():
    fam = zoo.build("lambda_system", n_max=5)
    # levels (g1, g2, e) tensor mode: |g1, 0> is index 0, |g2, 0> is index 6
    assert fam.partition.slow_indices == (0, 6)


def test_lambda_explicit_partition_takes_precedence():
    from slhkit import check_assumptions
    # a split other than the dark states is kept, even a poor one;
    # the assumption report is what flags it
    fam = dataclasses.replace(zoo.build("lambda_system", n_max=2),
                              partition=BlockPartition(dim=9, slow_indices=(0, 1)))
    assert fam.partition.slow_indices == (0, 1)
    assert not check_assumptions(fam).passed()


def test_kerr_slow_projector_is_two_lowest_fock_states():
    fam = zoo.build("kerr_qubit", n_max=7)
    assert fam.partition.slow_indices == (0, 1)


def test_thermal_qubit_closed_form_point_and_random(rng):
    params = dict(gamma=1.0, n=0.0, omega=0.0, phi_plus=0.0, phi_minus=0.0)
    Z = zoo.closed_form_char("thermal_qubit", params, 1.0)
    assert max_abs(Z - np.diag([1.0, 1.0 / 3.0])) <= 1e-15

    for _ in range(3):
        params = dict(gamma=rng.uniform(0.2, 2.0), n=rng.uniform(0, 1),
                      omega=rng.uniform(-2, 2), phi_plus=rng.uniform(0, 6),
                      phi_minus=rng.uniform(0, 6))
        model = zoo.build("thermal_qubit", **params)
        for s in _sample_points(rng, 5):
            assert max_abs(char_op(model, s)
                           - zoo.closed_form_char("thermal_qubit", params, s)) <= 1e-10


def test_lossless_closed_form(rng):
    params = dict(dim=3, n_inputs=2, phase=0.8, h_scale=1.5)
    model = zoo.build("lossless", **params)
    for s in _sample_points(rng, 5):
        assert max_abs(char_op(model, s)
                       - zoo.closed_form_char("lossless", params, s)) <= 1e-14


def test_three_input_qubit_closed_form_and_cancellation(rng):
    params = dict(kappa1=1.0, kappa2=0.7, kappa3=0.4, delta=0.3, alpha=0.5 - 0.2j)
    model = zoo.build("three_input_qubit", **params)
    for s in _sample_points(rng, 10):
        assert max_abs(char_op(model, s)
                       - zoo.closed_form_char("three_input_qubit", params, s)) <= 1e-9

    # alpha = 0: zero-pole cancellation, performed analytically in the oracle
    params0 = dict(params, alpha=0.0)
    model0 = zoo.build("three_input_qubit", **params0)
    for s in _sample_points(rng, 5):
        Z = zoo.closed_form_char("three_input_qubit", params0, s)
        assert max_abs(char_op(model0, s) - Z) <= 1e-9
    # the cancelled form is finite at s = 0 (a removable singularity)
    Z0 = zoo.closed_form_char("three_input_qubit", params0, 0.0)
    assert np.all(np.isfinite(Z0))


def test_linear_passive_closed_form_below_cutoff(rng):
    params = dict(gamma=1.2, delta=0.4, n_max=6)
    model = zoo.build("linear_passive", **params)
    ideal = zoo.closed_form_char("linear_passive", params, 1.0 + 0.5j)
    T = char_op(model, 1.0 + 0.5j)
    # every entry below the truncation boundary matches the ideal rational
    assert max_abs(T[:6, :6] - ideal[:6, :6]) <= 1e-12
    # the boundary entry carries the truncation artifact
    assert abs(T[6, 6] - ideal[6, 6]) > 1e-3


def test_linear_passive_truncation_residual_monotone():
    params = dict(gamma=1.0, delta=0.3)
    s = 0.8 + 0.4j
    window = 3  # compare the ideal form on levels 0..2
    residuals = []
    for n_max in (2, 4, 8):
        model = zoo.build("linear_passive", n_max=n_max, **params)
        ideal = zoo.closed_form_char("linear_passive",
                                     dict(params, n_max=n_max), s)
        T = char_op(model, s)
        residuals.append(max_abs(T[:window, :window] - ideal[:window, :window]))
    assert residuals[0] > 1e-3          # cutoff 2 clips the window
    assert residuals[1] <= 1e-12        # higher cutoffs are exact there
    assert residuals[2] <= residuals[1] + 1e-15


def test_detuned_two_level_limit_closed_form(rng):
    params = dict(gamma=1.4, kappa=0.7, delta=3.0, beta=0.9 + 0.5j, omega0=0.4)
    fam = zoo.build("detuned_two_level", **params)
    for s in _sample_points(rng, 10):
        assert max_abs(limit_char_op(fam, s)
                       - zoo.closed_form_char("detuned_two_level", params, s)) <= 1e-10


def test_kerr_qubit_limit_closed_form_cutoff_independent(rng):
    params = dict(kappa1=1.0, kappa2=0.7, delta=0.3, alpha=0.5 - 0.3j, chi0=1.0)
    s_pts = _sample_points(rng, 5)
    previous = None
    for n_max in (2, 4, 8):
        fam = zoo.build("kerr_qubit", n_max=n_max, **params)
        rows = fam.partition.stacked_rows(2, "slow")
        blocks = []
        for s in s_pts:
            T = limit_char_op(fam, s)[np.ix_(rows, rows)]
            Z = zoo.closed_form_char("kerr_qubit", dict(params, n_max=n_max), s)
            assert max_abs(T - Z) <= 1e-8
            blocks.append(T)
        if previous is not None:
            assert max(max_abs(a - b) for a, b in zip(blocks, previous)) <= 1e-10
        previous = blocks


def test_kerr_bright_mode_matches_printed_rational(rng):
    params = dict(kappa1=1.0, kappa2=0.7, delta=0.3, alpha=0.5, chi0=1.0, n_max=6)
    fam = zoo.build("kerr_qubit", **params)
    rows = fam.partition.stacked_rows(2, "slow")
    kappa = params["kappa1"] + params["kappa2"]
    v = np.array([np.sqrt(params["kappa1"]), np.sqrt(params["kappa2"])]) / np.sqrt(kappa)
    W = np.kron(v.reshape(2, 1), identity(2))
    for s in _sample_points(rng, 5):
        T_ss = limit_char_op(fam, s)[np.ix_(rows, rows)]
        bright = (dagger(W) @ T_ss @ W)[0, 0]
        assert abs(bright - zoo.kerr_bright_mode_rational(params, s)) <= 1e-10


def test_lambda_limit_closed_form_and_pole(rng):
    params = dict(gamma=2.0, alpha=0.5, g=1.0, n_max=4)
    fam = zoo.build("lambda_system", **params)
    rows = fam.partition.stacked_rows(1, "slow")
    for s in _sample_points(rng, 10):
        T_ss = limit_char_op(fam, s)[np.ix_(rows, rows)]
        assert max_abs(T_ss - zoo.closed_form_char("lambda_system", params, s)) <= 1e-9

    # the bright entry vanishes at s = gamma |alpha|^2 / (2 g^2)
    r = zoo.lambda_pole(params)
    assert r == pytest.approx(0.25)
    T_ss = limit_char_op(fam, r)[np.ix_(rows, rows)]
    assert abs(T_ss[0, 0]) <= 1e-12


def test_optomech_closed_form_requires_static_mirror():
    with pytest.raises(NoClosedForm):
        zoo.closed_form_char("optomech", dict(omega0=0.5), 1.0)


def test_optomech_vacuum_cross_check_monotone_in_cavity_cutoff():
    params = dict(gamma=1.0, delta=0.2, omega0=0.0, g=0.3, n_max_mirror=5)
    s = 1.1 + 0.3j
    residuals = []
    for nc in (2, 4, 8):
        model = zoo.build("optomech", n_max_cavity=nc, **params)
        dims = (nc + 1, params["n_max_mirror"] + 1)
        mirror_op = vacuum_expectation_char(model, s, dims=dims, vacuum_modes=(0,))
        oracle = zoo.closed_form_char("optomech", dict(params, n_max_cavity=nc), s)
        residuals.append(max_abs(mirror_op - oracle))
    assert residuals == sorted(residuals, reverse=True) or max(residuals) <= 1e-10
    assert residuals[-1] <= 1e-8
