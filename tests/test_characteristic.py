"""Characteristic operator: three routes, sweeps, vacuum expectations,
perturbation series, and the covariance/invariance properties."""

import numpy as np
import pytest
import scipy.linalg
from scipy.sparse.csgraph import connected_components

from slhkit import (
    BlockPartition,
    FrequencyGrid,
    ResolventSingular,
    SLHModel,
    ShapeError,
    abcd,
    char_blocks,
    char_op,
    char_op_allpass,
    char_op_stratonovich,
    dagger,
    gauge,
    identity,
    inverse,
    ito_to_stratonovich,
    k_operator,
    kron,
    limit_char_op,
    max_abs,
    model_matrix,
    partition_operator,
    pauli,
    perturbation_series,
    rotate,
    coefficients_from_parts,
    scaled_resolvent_limit,
    schur_feshbach,
    series_product,
    sigma_kernel,
    sweep,
    transfer_function,
    unitarity_check,
    vacuum_expectation_char,
)
from slhkit import zoo
from slhkit.characteristic import METHODS, _block_schur, _schur_char_op
from slhkit.operators import DEFAULT_COND_LIMIT
from conftest import random_model, random_unitary
from oracles import strat_adiabatic_limit


def test_char_op_lossless_is_constant_scattering(rng):
    model = zoo.build("lossless", dim=3, n_inputs=2, phase=0.7, h_scale=2.0)
    for s in (0.5, 2.0 + 1j, 10.0 - 3j):
        assert max_abs(char_op(model, s) - model.S) <= 1e-14


def test_char_op_thermal_qubit_point_value():
    model = zoo.build("thermal_qubit", gamma=1.0, n=0.0, omega=0.0)
    T = char_op(model, 1.0)
    assert max_abs(T - np.diag([1.0, 1.0 / 3.0])) <= 1e-14


def test_char_op_detuned_two_level_displayed_resolvent():
    # independent evaluation of the displayed 2x2 resolvent product at k = 1
    g, k_, d, b, w0 = 1.1, 0.6, 2.0, 0.8 - 0.3j, 0.9
    fam = zoo.build("detuned_two_level", gamma=g, kappa=k_, delta=d,
                    beta=b, omega0=w0)
    from slhkit import assemble_k
    model = assemble_k(fam, 1.0)
    s = 0.7 + 0.25j
    L = np.array([[np.sqrt(g), 0], [np.sqrt(k_), -np.sqrt(g)]], dtype=complex)
    M = np.array([
        [s + 0.5 * (g + k_) + 1j * d + 1j * w0, -0.5 * np.sqrt(k_ * g) + 1j * b],
        [-0.5 * np.sqrt(k_ * g) + 1j * np.conj(b), s + 0.5 * g + 1j * w0],
    ])
    expected = identity(2) - L @ inverse(M) @ dagger(L)
    assert max_abs(char_op(model, s) - expected) <= 1e-12


def test_char_op_raises_on_spectrum():
    model = zoo.build("lossless", dim=2, n_inputs=1, phase=0.0, h_scale=1.0)
    # K = -iH with H = diag(0, 1); s = -i is in the spectrum
    with pytest.raises(ResolventSingular):
        char_op(model, -1j)


def test_allpass_matches_direct_and_qnd_form(rng):
    model = random_model(rng, 2, 3)
    s = 0.8 + 0.4j
    assert max_abs(char_op_allpass(model, s) - char_op(model, s)) <= 1e-10

    # QND case [L, H] = 0: (s - LL*/2 + iH)(s + LL*/2 + iH)^-1 S
    g, w = 1.3, 0.7
    L = np.sqrt(g) * pauli("z")
    H = w * pauli("z")
    qnd = SLHModel(S=random_unitary(rng, 2), L=L, H=H)
    T = char_op_allpass(qnd, s)
    num = s * identity(2) - 0.5 * L @ dagger(L) + 1j * H
    den = s * identity(2) + 0.5 * L @ dagger(L) + 1j * H
    assert max_abs(T - num @ inverse(den) @ qnd.S) <= 1e-12


def test_allpass_lossless_gives_scattering(rng):
    model = zoo.build("lossless", dim=2, n_inputs=2, phase=0.3)
    assert max_abs(char_op_allpass(model, 1.5) - model.S) <= 1e-14


def test_stratonovich_zero_coefficients_give_identity():
    E = coefficients_from_parts(E00=np.zeros((2, 2)), El0=np.zeros((2, 2)),
                                Ell=np.zeros((2, 2)))
    assert max_abs(char_op_stratonovich(E, 0.9) - identity(2)) == 0.0


def test_stratonovich_high_frequency_limit_is_cayley(rng):
    from slhkit import cayley
    model = random_model(rng, 1, 3)
    E = ito_to_stratonovich(model)
    T = char_op_stratonovich(E, 1e8)
    assert max_abs(T - cayley(E.Ell)) <= 1e-6


def test_stratonovich_route_agrees_on_thermal_qubit():
    model = zoo.build("thermal_qubit", gamma=0.9, n=0.35, omega=1.2,
                      phi_plus=0.4, phi_minus=2.0)
    E = ito_to_stratonovich(model)
    for s in (0.5, 1.0 + 0.8j, 3.0 - 0.2j):
        assert max_abs(char_op_stratonovich(E, s)
                       - char_op(model, s)) <= 1e-9


def test_transfer_function_examples():
    A = np.array([[-0.5]], dtype=complex)
    B = np.array([[1.0, 0.0]], dtype=complex)
    C = np.zeros((2, 1), dtype=complex)
    D = np.diag([2.0, 3.0]).astype(complex)
    assert max_abs(transfer_function((A, B, C, D), 1.0) - D) == 0.0

    # single passive mode: T(s) = 1 - gamma / (s + gamma/2 + i delta)
    g, d = 1.4, 0.6
    A = np.array([[-(0.5 * g + 1j * d)]])
    B = np.array([[-np.sqrt(g)]])
    C = np.array([[np.sqrt(g)]])
    D = np.array([[1.0]])
    s = 0.8 + 0.1j
    want = 1.0 - g / (s + 0.5 * g + 1j * d)
    assert abs(transfer_function((A, B, C, D), s)[0, 0] - want) <= 1e-14
    assert abs(transfer_function((A, B, C, D), 1e9)[0, 0] - 1.0) <= 1e-8


def test_char_op_is_the_transfer_function_of_abcd(rng):
    # one realization, one point engine: the two calls are the same arithmetic
    for _ in range(20):
        model = random_model(rng, int(rng.integers(1, 4)), int(rng.integers(1, 7)))
        s = complex(rng.uniform(-1.0, 2.0), rng.uniform(-3.0, 3.0))
        assert np.array_equal(char_op(model, s), transfer_function(abcd(model), s))


def test_unitarity_on_axis_examples(rng):
    model = zoo.build("lossless", dim=2, n_inputs=1, phase=1.0, h_scale=0.0)
    ok, res = unitarity_check(model, 0.7)
    assert ok and res <= 1e-14

    thermal = zoo.build("thermal_qubit", gamma=1.0, n=0.5, omega=0.9)
    ok, res = unitarity_check(thermal, 0.37)
    assert ok and res <= 1e-10

    model = random_model(rng, 3, 2)
    for omega in rng.uniform(-5, 5, size=50):
        ok, _ = unitarity_check(model, omega)
        assert ok


def test_vacuum_expectation_lossless_returns_scattering_scalars():
    model = zoo.build("lossless", dim=3, n_inputs=2, phase=0.4)
    V = vacuum_expectation_char(model, 1.0, dims=(3,))
    assert V.shape == (2, 2)
    assert max_abs(V - np.exp(0.4j) * identity(2)) <= 1e-14


def test_vacuum_expectation_matches_transfer_function():
    g, d, n_max = 1.0, 0.0, 6
    model = zoo.build("linear_passive", gamma=g, delta=d, n_max=n_max)
    Amat = np.array([[-(0.5 * g + 1j * d)]])
    Bmat = np.array([[-np.sqrt(g)]])
    Cmat = np.array([[np.sqrt(g)]])
    Dmat = np.array([[1.0]])
    s = 1.0
    vac = vacuum_expectation_char(model, s, dims=(n_max + 1,))
    assert abs(vac[0, 0] - transfer_function((Amat, Bmat, Cmat, Dmat), s)[0, 0]) <= 1e-8


def test_vacuum_expectation_partial_contraction_optomech():
    params = dict(gamma=1.0, delta=0.4, omega0=0.0, g=0.3,
                  n_max_cavity=3, n_max_mirror=4)
    model = zoo.build("optomech", **params)
    s = 0.9 + 0.2j
    dims = (params["n_max_cavity"] + 1, params["n_max_mirror"] + 1)
    mirror_op = vacuum_expectation_char(model, s, dims=dims, vacuum_modes=(0,))
    oracle = zoo.closed_form_char("optomech", params, s)
    assert max_abs(mirror_op - oracle) <= 1e-10


def _vacuum_reference(data, m, dims, vacuum_modes):
    """Per-block contraction: reshape each block to a tensor, index the vacuum."""
    nf = len(dims)
    keep = int(np.prod([d for i, d in enumerate(dims) if i not in vacuum_modes]))
    rows = []
    for j in range(data.shape[0] // m):
        row = []
        for k in range(data.shape[1] // m):
            B = data[j * m:(j + 1) * m, k * m:(k + 1) * m].reshape(dims + dims)
            idx = [slice(None)] * (2 * nf)
            for v in vacuum_modes:
                idx[v] = idx[nf + v] = 0
            row.append(B[tuple(idx)].reshape(keep, keep))
        rows.append(row)
    return np.block(rows)


@pytest.mark.parametrize("vacuum_modes", [(0, 1, 2), (0, 2), (1,), ()])
def test_vacuum_expectation_matches_per_block_contraction(rng, vacuum_modes):
    model = random_model(rng, 3, 12)
    dims, s = (2, 3, 2), 0.6 - 0.4j
    got = vacuum_expectation_char(model, s, dims, vacuum_modes)
    want = _vacuum_reference(char_op(model, s), 12, dims, vacuum_modes)
    assert got.shape == want.shape
    assert max_abs(got - want) <= 1e-14 * max(1.0, max_abs(want))


@pytest.mark.parametrize("vacuum_modes", [(2,), (5,), (-1,), (0, 2)])
def test_vacuum_expectation_rejects_modes_out_of_range(vacuum_modes):
    with pytest.raises(ShapeError, match=r"\[0, 2\)"):
        vacuum_expectation_char(zoo.build("optomech", n_max_cavity=1, n_max_mirror=2),
                                0.5, (2, 3), vacuum_modes)


@pytest.mark.parametrize("vacuum_modes", [None, (0, 2), (1,), ()])
def test_vacuum_expectation_char_forms_only_the_vacuum_entries(rng, vacuum_modes):
    model = random_model(rng, 2, 12)
    dims, s = (2, 3, 2), 0.3 + 0.8j
    whole = _vacuum_reference(char_op(model, s), 12, dims,
                              range(3) if vacuum_modes is None else vacuum_modes)
    got = vacuum_expectation_char(model, s, dims, vacuum_modes)
    assert got.shape == whole.shape
    assert max_abs(got - whole) <= 1e-14 * max(1.0, max_abs(whole))
    for dims in [(2, 5), (-2, -6), (0, 12)]:
        with pytest.raises(ShapeError, match="product of dims"):
            vacuum_expectation_char(model, s, dims, vacuum_modes)


def test_perturbation_series_examples():
    model = zoo.build("thermal_qubit", gamma=1.0, n=0.2, omega=0.6)
    V = pauli("x")
    s = 1.0 + 0.3j

    T0 = perturbation_series(model, V, lam=0.0, order=5, s=s)
    assert max_abs(T0 - char_op(model, s)) <= 1e-14

    lam = 0.01
    exact = char_op(SLHModel(S=model.S, L=model.L, H=model.H + lam * V), s)
    T8 = perturbation_series(model, V, lam=lam, order=8, s=s)
    assert max_abs(T8 - exact) <= 1e-9

    # first-order term enters with +i lam L R0 V R0 L* S
    R0 = inverse(s * identity(2) - k_operator(model))
    first = (char_op(model, s)
             + 1j * lam * model.L @ R0 @ V @ R0 @ dagger(model.L) @ model.S)
    T1 = perturbation_series(model, V, lam=lam, order=1, s=s)
    assert max_abs(T1 - first) <= 1e-14


def test_sweep_thermal_qubit_clean_and_consistent():
    model = zoo.build("thermal_qubit", gamma=1.0, n=0.4, omega=0.8)
    grid = FrequencyGrid(axis="imaginary", points=np.linspace(0.1, 10, 50))
    direct = sweep(model, grid, method="direct")
    assert direct.n_failed == 0
    assert max(direct.unitarity_residuals) <= 1e-9

    allpass = sweep(model, grid, method="allpass")
    worst = max(
        max_abs(a - b)
        for a, b in zip(direct.values, allpass.values)
    )
    assert worst <= 1e-9


def test_sweep_single_point_and_failure_capture():
    model = zoo.build("thermal_qubit")
    grid = FrequencyGrid(axis="real", points=np.array([1.0]))
    res = sweep(model, grid)
    assert len(res.values) == 1 and res.n_failed == 0
    for bad in ([np.nan], [np.inf], [0.0, np.inf]):
        with pytest.raises(ShapeError, match="finite"):
            FrequencyGrid(axis="real", points=np.array(bad))

    # lossless with H = diag(0, 1): omega = -1 hits the spectrum of K = -iH
    lossy = zoo.build("lossless", dim=2, n_inputs=1, h_scale=1.0)
    grid = FrequencyGrid(axis="imaginary", points=np.array([-1.0, 0.5]))
    res = sweep(lossy, grid)
    assert res.n_failed == 1
    assert res.values[0] is None and res.values[1] is not None


def test_sweep_runs_each_methods_point_route():
    model = zoo.build("thermal_qubit", gamma=1.0, n=0.4, omega=0.8)
    grid = FrequencyGrid(axis="imaginary", points=np.array([-0.7, 1.3]))
    for method, route in METHODS.items():
        point = route(model)
        for s, T in zip(grid.s_values(), sweep(model, grid, method=method).values):
            # the direct sweep solves against its own Schur factor of K
            assert max_abs(T - point(s)) <= (1e-12 if method == "direct" else 0.0)
    with pytest.raises(ShapeError, match="method must be one of"):
        sweep(model, grid, method="schur")


def test_rotation_covariance_and_gauge_invariance(rng):
    model = random_model(rng, 2, 3)
    V = random_unitary(rng, 3)
    s = 0.6 + 0.9j
    T = char_op(model, s)
    Vn = kron(identity(2), V)
    T_rot = char_op(rotate(model, V), s)
    assert max_abs(T_rot - dagger(Vn) @ T @ Vn) <= 1e-10
    T_gauge = char_op(gauge(model, V), s)
    assert max_abs(T_gauge - T) <= 1e-10


def test_high_frequency_limit_returns_scattering(rng):
    model = random_model(rng, 2, 3)
    s = 1e6
    bound = 10 * max_abs(model.L) ** 2 / s
    assert max_abs(char_op(model, s) - model.S) <= bound


def test_cascade_characteristic_operator_not_multiplicative():
    # pinned witness pair: characteristic operators do not tensor-multiply
    B = zoo.build("thermal_qubit", gamma=1.0, n=0.0, omega=0.5)
    A = zoo.build("thermal_qubit", gamma=0.6, n=0.3, omega=-0.2)
    s = 1.0
    T_casc = char_op(series_product(B, A), s)
    T_tensor = kron(char_op(B, s), char_op(A, s))
    assert max_abs(T_casc - T_tensor) > 0.01


# ---------------------------------------------------------------------------
# The factor-once sweep engine against pointwise evaluation.
# ---------------------------------------------------------------------------


def _assert_sweep_matches_char_op(model, grid, same_zeros=False):
    res = sweep(model, grid, method="direct")
    failed_pointwise = []
    for point, s, value in zip(grid.points, grid.s_values(), res.values):
        try:
            T = char_op(model, s)
        except ResolventSingular:
            failed_pointwise.append(float(point))
            continue
        assert value is not None
        assert max_abs(value - T) <= 1e-12
        if same_zeros:
            assert np.array_equal(value == 0, T == 0)
        else:  # no exact zero of the pointwise route is lost
            assert not np.any((T == 0) & (value != 0))
    assert [p for p, _ in res.failures] == failed_pointwise
    finite = [r for r in res.unitarity_residuals if not np.isnan(r)]
    assert len(finite) == len(grid.points) - res.n_failed
    assert max(finite) <= 1e-9
    return res


def test_direct_sweep_matches_pointwise_char_op_random_ensembles():
    rng = np.random.default_rng(4401)
    grid = FrequencyGrid(axis="imaginary", points=np.linspace(-4.0, 4.0, 17))
    for n in (1, 2, 3):
        for m in range(2, 7):
            for _ in range(3):
                _assert_sweep_matches_char_op(random_model(rng, n, m), grid)


def _cascade():
    """The optomech -> cavity cascade (m = 45), whose K has interleaved components."""
    return series_product(
        zoo.build("optomech", gamma=0.8, delta=0.2, g=0.3,
                  n_max_cavity=2, n_max_mirror=4),
        zoo.build("linear_passive", gamma=1.2, delta=-0.5, n_max=2),
    )


def test_direct_sweep_matches_pointwise_char_op_structured_models():
    optomech = zoo.build("optomech", gamma=1.0, delta=0.3, g=0.25,
                         n_max_cavity=10, n_max_mirror=10)
    assert optomech.dim == 121
    # the symmetric odd grid hits s = 0, an eigenvalue of K (plant vacuum)
    grid = FrequencyGrid(axis="imaginary", points=np.linspace(-3.0, 3.0, 21))
    for model, same_zeros in ((optomech, True), (_cascade(), False)):
        res = _assert_sweep_matches_char_op(model, grid, same_zeros)
        assert [p for p, _ in res.failures] == [0.0]


def _schur_reference(model, s, rows=slice(None), cols=slice(None)):
    """T(s)[rows][:, cols] by the Schur-form expression with a fresh s I - T."""
    T, Z = _block_schur(k_operator(model))
    W = dagger(Z) @ (dagger(model.L) @ model.S[:, cols])
    X = scipy.linalg.solve_triangular(s * np.eye(T.shape[0]) - T, W, check_finite=False)
    return model.S[rows][:, cols] - (model.L[rows] @ Z) @ X


def _draw_selection(rng, nm):
    """Unsorted, non-contiguous indices with at least one repeat."""
    picked = rng.integers(0, nm, size=rng.integers(1, nm + 1)).tolist()
    return picked + [picked[0]]


def test_selected_sweep_matches_the_whole_sweep():
    rng = np.random.default_rng(7301)
    wide = FrequencyGrid(axis="imaginary", points=np.linspace(-3.0, 3.0, 13))  # hits s = 0
    models = [random_model(rng, n, m) for n in (1, 2, 3) for m in (2, 3, 5)]
    models += [zoo.build("optomech", gamma=1.0, delta=0.3, g=0.25,
                         n_max_cavity=3, n_max_mirror=4), _cascade()]
    for model in models:
        nm = model.n_inputs * model.dim
        whole = sweep(model, wide)
        for s, value in zip(wide.s_values(), whole.values):
            assert value is None or np.array_equal(value, _schur_reference(model, s))
        for _ in range(3):
            rows, cols = _draw_selection(rng, nm), _draw_selection(rng, nm)
            part = sweep(model, wide, rows=rows, cols=cols)
            assert part.rows == tuple(rows) and part.cols == tuple(cols)
            assert part.failures == whole.failures
            for T, got in zip(whole.values, part.values):
                if T is None:
                    assert got is None
                    continue
                assert got.shape == (len(rows), len(cols))
                tol = 1e-14 * max(1.0, np.linalg.norm(T, 2))
                assert max_abs(got - T[rows][:, cols]) <= tol
            with pytest.raises(ShapeError, match="whole T"):
                part.unitarity_residuals


def test_sweep_points_match_a_fresh_shifted_schur_factor():
    # the evaluator rewrites the diagonal of one array per point; every point,
    # the one after the singular point included, must equal the solve
    # against a freshly formed s I - T
    grid = FrequencyGrid(axis="imaginary", points=np.array([-2.5, -0.7, 0.0, 0.4, 1.5]))
    models = [zoo.build("optomech", gamma=1.0, delta=0.3, g=0.25,
                        n_max_cavity=4, n_max_mirror=5),
              zoo.build("linear_passive", gamma=1.2, delta=-0.5, n_max=5),
              zoo.build("thermal_qubit"), _cascade()]
    for model in models:
        nm = model.n_inputs * model.dim
        rows, cols = [nm - 1, 0, nm - 1], [1, nm - 1]
        whole = sweep(model, grid)
        part = sweep(model, grid, rows=rows, cols=cols)
        assert [p for p, _ in whole.failures] == [0.0]  # s = 0 is an eigenvalue of K
        assert part.failures == whole.failures
        for s, T, got in zip(grid.s_values(), whole.values, part.values):
            if s == 0:
                assert T is None and got is None
                continue
            assert np.array_equal(T, _schur_reference(model, s))
            assert np.array_equal(got, _schur_reference(model, s, rows, cols))


@pytest.mark.parametrize("method", ["allpass", "stratonovich"])
def test_selected_sweep_slices_the_pointwise_routes(rng, method):
    model = random_model(rng, 2, 3)
    grid = FrequencyGrid(axis="imaginary", points=np.linspace(-2.0, 2.0, 5))
    whole = sweep(model, grid, method=method)
    part = sweep(model, grid, method=method, cols=[4, 0, 4])
    assert part.rows is None and part.failures == whole.failures
    for T, got in zip(whole.values, part.values):
        assert np.array_equal(got, T[:, [4, 0, 4]])
    with pytest.raises(ShapeError, match="whole T"):
        part.unitarity_residuals


@pytest.mark.parametrize("rows", [[], [2], [-1], [0.5], [[True]]])
def test_sweep_refuses_a_selection_outside_the_operator(rows):
    model = zoo.build("thermal_qubit")  # nm = 1 x 2
    grid = FrequencyGrid(axis="imaginary", points=np.array([0.5]))
    with pytest.raises(ShapeError, match=r"rows must be .* \[0, 2\)"):
        sweep(model, grid, rows=rows)


def test_block_schur_factors_each_component(rng):
    optomech = zoo.build("optomech", gamma=1.0, delta=0.4, g=0.3,
                         n_max_cavity=4, n_max_mirror=6)
    dense = random_model(rng, 2, 6)
    for model, several in ((optomech, True), (_cascade(), True), (dense, False)):
        K = k_operator(model)
        T, Z = _block_schur(K)
        assert np.array_equal(T, np.triu(T))
        assert max_abs(dagger(Z) @ Z - identity(K.shape[0])) <= 1e-13
        assert max_abs(Z @ T @ dagger(Z) - K) <= 1e-12 * max_abs(K)
        # every column of Z lives on one strongly connected component
        n_comp, comp = connected_components(K != 0, directed=True, connection="strong")
        assert (n_comp > 1) == several
        for col in Z.T:
            assert len(set(comp[np.flatnonzero(col)])) == 1


def test_sweep_guard_flags_defective_eigenvalue_of_cascade():
    # two identical cavities in cascade: the one-photon sector of K is the
    # Jordan block [[-g/2, 0], [-g, -g/2]], so |(s - K)^-1| grows like 1/eps^2
    cavity = zoo.build("linear_passive", gamma=1.0, delta=0.0, n_max=2)
    model = series_product(cavity, cavity)
    near = -0.5 + 1e-7
    grid = FrequencyGrid(axis="real", points=np.array([near, 1.0]))
    res = sweep(model, grid)
    assert [p for p, _ in res.failures] == [near]
    assert res.values[0] is None and res.values[1] is not None
    with pytest.raises(ResolventSingular) as info:
        _schur_char_op(model)(near)
    assert info.value.cond_estimate > DEFAULT_COND_LIMIT
    # the guard is the same when only one entry is formed
    one = sweep(model, grid, rows=[2], cols=[2])
    assert one.failures == res.failures
    assert one.values[0] is None and one.values[1].shape == (1, 1)
    with pytest.raises(ResolventSingular) as info:
        _schur_char_op(model, [2], [2])(near)
    assert info.value.cond_estimate > DEFAULT_COND_LIMIT


# ---------------------------------------------------------------------------
# Every route reports a point on the spectrum the same way.
# ---------------------------------------------------------------------------

# K of this cavity is diag(0, -(1 + i)/2, -(1 + i), -3(1 + i)/2), so every
# route meets an exactly singular matrix at s = -(1 + i)/2.
_CAVITY = zoo.build("linear_passive", gamma=1.0, delta=0.5, n_max=3)
_CAVITY_POLE = -0.5 - 0.5j
# Limit of this family: T_g = (s - 1/2)/(s + 1/2) (shifted frequency 1 - 4/4 = 0).
_FAMILY = zoo.build("detuned_two_level", gamma=1.0, kappa=0.3, delta=4.0,
                    beta=2.0, omega0=1.0)
_ONE_SLOW = BlockPartition(dim=_CAVITY.dim, slow_indices=(1,))

_SINGULAR_ROUTES = {
    "char_op": (lambda s: char_op(_CAVITY, s), _CAVITY_POLE),
    "char_op_allpass": (lambda s: char_op_allpass(_CAVITY, s), _CAVITY_POLE),
    "char_op_stratonovich": (
        lambda s: char_op_stratonovich(ito_to_stratonovich(_CAVITY), s), _CAVITY_POLE),
    "schur_feshbach": (
        lambda s: schur_feshbach(partition_operator(k_operator(_CAVITY), _ONE_SLOW), s),
        _CAVITY_POLE),
    "char_blocks": (lambda s: char_blocks(_CAVITY, _ONE_SLOW, s), _CAVITY_POLE),
    "limit_char_op": (lambda s: limit_char_op(_FAMILY, s), -0.5 + 0j),
    "strat_adiabatic_limit": (lambda s: strat_adiabatic_limit(_FAMILY, s), -0.5 + 0j),
    # the Stratonovich slow resolvent has its own pole at the shifted frequency 0
    "strat_adiabatic_limit_slow_resolvent": (
        lambda s: strat_adiabatic_limit(_FAMILY, s), 0j),
    "direct_sweep_point": (
        lambda s: _schur_char_op(_CAVITY)(s), _CAVITY_POLE),
    "transfer_function": (
        lambda s: transfer_function(
            (k_operator(_CAVITY), dagger(_CAVITY.L), _CAVITY.L, _CAVITY.S), s),
        _CAVITY_POLE),
    # Sigma(s) = L (s + iH)^-1 L* with H = diag(0, 1/2, 1, 3/2)
    "sigma_kernel": (lambda s: sigma_kernel(_CAVITY, s), -0.5j),
    "perturbation_series": (
        lambda s: perturbation_series(_CAVITY, identity(_CAVITY.dim), 0.1, 2, s),
        _CAVITY_POLE),
    "vacuum_expectation_char": (
        lambda s: vacuum_expectation_char(_CAVITY, s, dims=(_CAVITY.dim,)), _CAVITY_POLE),
    # s + Mhat11 = s - 1/2 with Mhat11 = M11 - M12 M22^-1 M21
    "scaled_resolvent_limit": (
        lambda s: scaled_resolvent_limit(-0.5 * identity(1), 0 * identity(1),
                                         0 * identity(1), identity(1), s),
        0.5 + 0j),
}


@pytest.mark.parametrize("route", sorted(_SINGULAR_ROUTES))
def test_every_route_raises_resolvent_singular_on_the_spectrum(route):
    evaluate, s = _SINGULAR_ROUTES[route]
    with pytest.raises(ResolventSingular) as info:
        evaluate(s)
    assert info.value.s == s
    assert info.value.cond_estimate > DEFAULT_COND_LIMIT  # inf passes too
    # just off the pole every route evaluates
    evaluate(s + 0.1)


# ---------------------------------------------------------------------------
# Every evaluation returns the plain array it computes.
# ---------------------------------------------------------------------------

_TWO_INPUTS = random_model(np.random.default_rng(2501), 2, 3)  # nm = 6
_GRID = FrequencyGrid(axis="imaginary", points=np.array([-0.4, 0.7, 1.9]))
_FAMILY_NM = _FAMILY.n_inputs * _FAMILY.dim

_ARRAY_ROUTES = {
    "char_op": (lambda: [char_op(_TWO_INPUTS, 0.7j)], (6, 6)),
    "sigma_kernel": (lambda: [sigma_kernel(_TWO_INPUTS, 0.7j)], (6, 6)),
    "char_op_allpass": (lambda: [char_op_allpass(_TWO_INPUTS, 0.7j)], (6, 6)),
    "char_op_stratonovich": (
        lambda: [char_op_stratonovich(ito_to_stratonovich(_TWO_INPUTS), 0.7j)], (6, 6)),
    "perturbation_series": (
        lambda: [perturbation_series(_TWO_INPUTS, identity(3), 0.1, 2, 0.7j)], (6, 6)),
    "limit_char_op": (lambda: [limit_char_op(_FAMILY, 0.7j)], (_FAMILY_NM, _FAMILY_NM)),
    "model_matrix": (lambda: [model_matrix(_TWO_INPUTS)], (9, 9)),
    **{f"sweep-{method}": (lambda method=method: sweep(_TWO_INPUTS, _GRID, method).values,
                           (6, 6))
       for method in ("direct", "allpass", "stratonovich")},
    **{f"selected-sweep-{method}": (
        lambda method=method: sweep(_TWO_INPUTS, _GRID, method,
                                    rows=[5, 0], cols=[1, 1, 4]).values, (2, 3))
       for method in ("direct", "allpass", "stratonovich")},
}


def test_every_evaluation_returns_a_plain_array():
    for route, (evaluate, shape) in _ARRAY_ROUTES.items():
        values = evaluate()
        assert values, route
        for value in values:
            assert type(value) is np.ndarray and value.shape == shape, route


def test_every_route_refuses_an_overflowed_generator_pointwise():
    # entries of 1e160 in L pass the model's finiteness check, but L*L
    # overflows: each route refuses the point instead of the whole model
    cavity = zoo.build("linear_passive", n_max=2)
    huge = SLHModel(S=cavity.S, L=cavity.L * 1e160, H=cavity.H)
    with np.errstate(over="ignore", invalid="ignore"):
        for route in (char_op, char_op_allpass):
            with pytest.raises(ResolventSingular):
                route(huge, 1.0)
        for method in ("direct", "allpass"):
            assert sweep(huge, _GRID, method).n_failed == 3
