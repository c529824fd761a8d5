"""Acceptance suite: one test per criterion, at its stated tolerance.

Each test name carries the criterion number; the conftest summary hook
prints one PASS/FAIL line per criterion at the end of the run.  All
randomness is seeded, so the suite is deterministic.
"""

import numpy as np
import pytest
from click.testing import CliRunner

from slhkit import (
    BlockPartition,
    CayleySingular,
    SLHModel,
    abcd,
    char_blocks,
    char_op,
    char_op_allpass,
    char_op_stratonovich,
    check_decoupling,
    convergence_study,
    dagger,
    identity,
    inverse,
    ito_to_stratonovich,
    limit_char_op,
    limit_slh,
    max_abs,
    partition_operator,
    pauli,
    perturbation_series,
    reassemble_char_blocks,
    scaled_resolvent_limit,
    schur_feshbach,
    stratonovich_to_ito,
    transfer_function,
    vacuum_expectation_char,
)
from slhkit import modelfile, zoo
from slhkit.cli import main as cli_main
from conftest import random_complex, random_family, random_model


def _model_ensemble(seed=101, count=50):
    rng = np.random.default_rng(seed)
    models = []
    for _ in range(count):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(2, 7))
        models.append(random_model(rng, n, m))
    return rng, models


def test_c01_unitarity_on_the_imaginary_axis():
    """T(iw)*T(iw) = T(iw)T(iw)* = I within 1e-9 across a random ensemble."""
    rng, models = _model_ensemble()
    checked = 0
    for model in models:
        I = identity(model.n_inputs * model.dim)
        for omega in rng.uniform(-8.0, 8.0, size=20):
            try:
                T = char_op(model, 1j * omega)
            except Exception:
                continue  # singular points are excluded by the criterion
            checked += 1
            assert max_abs(dagger(T) @ T - I) <= 1e-9
            assert max_abs(T @ dagger(T) - I) <= 1e-9
    assert checked >= 900


def test_c02_three_route_agreement():
    """Direct, all-pass, and Stratonovich evaluations agree within 1e-9."""
    rng, models = _model_ensemble()
    for model in models:
        E = ito_to_stratonovich(model)
        for _ in range(10):
            s = complex(rng.uniform(0.2, 3.0), rng.uniform(-3.0, 3.0))
            T = char_op(model, s)
            assert max_abs(char_op_allpass(model, s) - T) <= 1e-9
            assert max_abs(char_op_stratonovich(E, s) - T) <= 1e-9


def test_c03_thermal_qubit_closed_form():
    """Five random parameter sets, 20 sample points, tolerance 1e-10."""
    rng = np.random.default_rng(313)
    for _ in range(5):
        params = dict(
            gamma=rng.uniform(1e-3, 2.0), n=rng.uniform(0.0, 1.0),
            omega=rng.uniform(-2.0, 2.0),
            phi_plus=rng.uniform(0.0, 2 * np.pi),
            phi_minus=rng.uniform(0.0, 2 * np.pi),
        )
        model = zoo.build("thermal_qubit", **params)
        for _ in range(20):
            s = complex(rng.uniform(0.1, 4.0), rng.uniform(-3.0, 3.0))
            Z = zoo.closed_form_char("thermal_qubit", params, s)
            assert max_abs(char_op(model, s) - Z) <= 1e-10


def test_c04_detuned_two_level_limit_and_rate():
    """Limit matches the shifted-frequency rational (1e-10); slope -1 +- 0.3."""
    params = dict(gamma=1.0, kappa=0.5, delta=2.0, beta=1.0 + 0.3j, omega0=1.0)
    fam = zoo.build("detuned_two_level", **params)
    rng = np.random.default_rng(44)
    for _ in range(20):
        s = complex(rng.uniform(0.2, 3.0), rng.uniform(-2.0, 2.0))
        Z = zoo.closed_form_char("detuned_two_level", params, s)
        assert max_abs(limit_char_op(fam, s) - Z) <= 1e-10
    study = convergence_study(fam, 1.0, [10, 100, 1000, 10000])
    assert study.slope == pytest.approx(-1.0, abs=0.3)


def test_c05_lambda_system_limit():
    """Limit triple and characteristic operator on the kernel basis.

    Checked at unit cavity decay, where the printed coefficient gamma/g
    equals the derived sqrt(gamma)/g; entrywise tolerance 1e-9, cutoff
    independence 1e-10.  The dark-state diagonal of the limit operator is
    the -1 eigenvalue of the limit scattering matrix I - 2 sigma* sigma.
    """
    rng = np.random.default_rng(55)
    for alpha, g in ((0.5, 1.0), (0.4 - 0.6j, 1.7)):
        params = dict(gamma=1.0, alpha=alpha, g=g)
        sigma = np.array([[0, 1], [0, 0]], dtype=complex)
        want_L = -(params["gamma"] * alpha / g) * sigma
        want_S = identity(2) - 2 * dagger(sigma) @ sigma
        collected = []
        for n_max in (2, 4, 8):
            fam = zoo.build("lambda_system", n_max=n_max, **params)
            limit = limit_slh(fam)
            rows = fam.partition.stacked_rows(1, "slow")
            cols = np.array(fam.partition.slow_indices)
            S_ss = limit.Shat[np.ix_(rows, rows)]
            L_s = limit.Lhat[np.ix_(rows, cols)]
            H_ss = limit.Hhat[np.ix_(cols, cols)]
            assert max_abs(S_ss - want_S) <= 1e-9
            assert max_abs(L_s - want_L) <= 1e-9
            assert max_abs(H_ss) <= 1e-9
            collected.append((S_ss, L_s, H_ss))
        for a, b in zip(collected, collected[1:]):
            assert max(max_abs(x - y) for x, y in zip(a, b)) <= 1e-10

        fam = zoo.build("lambda_system", n_max=4, **params)
        rows = fam.partition.stacked_rows(1, "slow")
        r = zoo.lambda_pole(params)
        for _ in range(10):
            s = complex(rng.uniform(0.2, 3.0), rng.uniform(-2.0, 2.0))
            T_ss = limit_char_op(fam, s)[np.ix_(rows, rows)]
            assert abs(T_ss[0, 0] - (s - r) / (s + r)) <= 1e-9  # printed rational
            assert abs(abs(T_ss[1, 1]) - 1.0) <= 1e-9
            assert abs(T_ss[1, 1] - (-1.0)) <= 1e-9
            assert max_abs(T_ss - np.diag(np.diag(T_ss))) <= 1e-9


def test_c06_kerr_qubit_limit():
    """Limit triple within 1e-9; rational form within 1e-8; decoupled."""
    params = dict(kappa1=1.0, kappa2=0.7, delta=0.3, alpha=0.5 - 0.2j,
                  chi0=1.0, n_max=8)
    fam = zoo.build("kerr_qubit", **params)
    limit = limit_slh(fam)
    rows = fam.partition.stacked_rows(2, "slow")
    cols = np.array(fam.partition.slow_indices)
    sigma = np.array([[0, 1], [0, 0]], dtype=complex)
    want_L = np.vstack([np.sqrt(params["kappa1"]) * sigma,
                        np.sqrt(params["kappa2"]) * sigma])
    alpha = params["alpha"]
    want_H = (params["delta"] * dagger(sigma) @ sigma
              - 1j * np.sqrt(params["kappa1"])
              * (alpha * dagger(sigma) - np.conj(alpha) * sigma))
    assert max_abs(limit.Shat[np.ix_(rows, rows)] - identity(4)) <= 1e-9
    assert max_abs(limit.Lhat[np.ix_(rows, cols)] - want_L) <= 1e-9
    assert max_abs(limit.Hhat[np.ix_(cols, cols)] - want_H) <= 1e-9

    ok, _ = check_decoupling(limit)
    assert ok

    rng = np.random.default_rng(66)
    kappa = params["kappa1"] + params["kappa2"]
    v = np.array([np.sqrt(params["kappa1"]), np.sqrt(params["kappa2"])]) / np.sqrt(kappa)
    W = np.kron(v.reshape(2, 1), identity(2))
    for _ in range(20):
        s = complex(rng.uniform(0.2, 3.0), rng.uniform(-2.0, 2.0))
        T_ss = limit_char_op(fam, s)[np.ix_(rows, rows)]
        assert max_abs(T_ss - zoo.closed_form_char("kerr_qubit", params, s)) <= 1e-8
        bright = (dagger(W) @ T_ss @ W)[0, 0]
        assert abs(bright - zoo.kerr_bright_mode_rational(params, s)) <= 1e-8


def test_c07_three_input_qubit_closed_form():
    """Printed block formula within 1e-9, including the cancelled alpha = 0 form."""
    rng = np.random.default_rng(77)
    params = dict(kappa1=1.0, kappa2=0.7, kappa3=0.4, delta=0.3, alpha=0.5 + 0.1j)
    model = zoo.build("three_input_qubit", **params)
    for _ in range(20):
        s = complex(rng.uniform(0.2, 3.0), rng.uniform(-2.0, 2.0))
        Z = zoo.closed_form_char("three_input_qubit", params, s)
        assert max_abs(char_op(model, s) - Z) <= 1e-9

    params0 = dict(params, alpha=0.0)
    model0 = zoo.build("three_input_qubit", **params0)
    for _ in range(20):
        s = complex(rng.uniform(0.2, 3.0), rng.uniform(-2.0, 2.0))
        Z = zoo.closed_form_char("three_input_qubit", params0, s)
        assert max_abs(char_op(model0, s) - Z) <= 1e-9


def test_c08_schur_feshbach_reassembly():
    """Resolvent blocks reassemble to the direct inverse within 1e-10."""
    rng = np.random.default_rng(88)
    for _ in range(50):
        m = int(rng.integers(2, 9))
        K = random_complex(rng, m, m)
        slow = tuple(sorted(rng.choice(m, size=int(rng.integers(1, m)),
                                       replace=False).tolist()))
        part = BlockPartition(dim=m, slow_indices=slow)
        Kb = partition_operator(K, part)
        for _ in range(20):
            s = complex(rng.uniform(0.3, 3.0), rng.uniform(-3.0, 3.0))
            blocks = schur_feshbach(Kb, s)
            assert max_abs(blocks.assemble(part)
                           - inverse(s * identity(m) - K)) <= 1e-10

    for _ in range(10):
        n = int(rng.integers(1, 3))
        m = int(rng.integers(3, 6))
        model = random_model(rng, n, m)
        slow = tuple(sorted(rng.choice(m, size=int(rng.integers(1, m)),
                                       replace=False).tolist()))
        part = BlockPartition(dim=m, slow_indices=slow)
        for _ in range(5):
            s = complex(rng.uniform(0.3, 3.0), rng.uniform(-2.0, 2.0))
            blocks = char_blocks(model, part, s)
            assert max_abs(reassemble_char_blocks(blocks, model, part)
                           - char_op(model, s)) <= 1e-10


def test_c09_scaled_resolvent_limit_numerics():
    """Closed-form limit vs the scaled finite-k resolvent: 1e-4 at k = 1e6,
    and an error ratio between k = 1e3 and k = 1e4 consistent with O(1/k).

    The block systems carry the subleading terms the limit statement allows
    (constant off-diagonal parts, a linear-in-k fast-fast part); those terms
    produce the leading 1/k correction, while the limit itself depends only
    on the dominant blocks.
    """
    rng = np.random.default_rng(99)
    for _ in range(20):
        ms = int(rng.integers(1, 4))
        mf = int(rng.integers(1, 4))
        M11 = random_complex(rng, ms, ms)
        M12 = random_complex(rng, ms, mf)
        M21 = random_complex(rng, mf, ms)
        M22 = random_complex(rng, mf, mf) + 3 * identity(mf)
        N12 = random_complex(rng, ms, mf, scale=0.3)
        N21 = random_complex(rng, mf, ms, scale=0.3)
        N22 = random_complex(rng, mf, mf, scale=0.3)
        s = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
        D = scaled_resolvent_limit(M11, M12, M21, M22, s)
        Dfull = np.block([[D.X_ss, D.X_sf], [D.X_fs, D.X_ff]])

        def scaled_finite_k(k):
            M = np.block([
                [M11, k * M12 + N12],
                [k * M21 + N21, k * k * M22 + k * N22],
            ])
            scale = np.diag(np.concatenate([np.ones(ms), k * np.ones(mf)]))
            return scale @ inverse(s * identity(ms + mf) + M) @ scale

        err = {k: max_abs(scaled_finite_k(k) - Dfull) for k in (1e3, 1e4, 1e6)}
        assert err[1e6] <= 1e-4
        ratio = err[1e3] / err[1e4]
        assert 5.0 <= ratio <= 20.0


def test_c10_limit_model_consistency():
    """char_op of the limit triple equals the direct limit within 1e-9 for
    every zoo family and 20 random synthetic families; the limit scattering
    is unitary within 1e-9 and both slow-Hamiltonian forms agree to 1e-10."""
    rng = np.random.default_rng(110)
    families = [
        zoo.build("detuned_two_level"),
        zoo.build("kerr_qubit", n_max=6),
        zoo.build("lambda_system", n_max=4),
    ]
    for _ in range(20):
        families.append(random_family(
            rng, int(rng.integers(1, 3)), int(rng.integers(1, 3)),
            int(rng.integers(1, 4)), contiguous=bool(rng.integers(0, 2))))
    for fam in families:
        limit = limit_slh(fam)
        assert limit.shat_unitarity <= 1e-9
        assert limit.hhat_alt_residual <= 1e-10
        triple = limit.as_model()
        for _ in range(5):
            s = complex(rng.uniform(0.3, 2.5), rng.uniform(-2.0, 2.0))
            assert max_abs(limit_char_op(fam, s)
                           - char_op(triple, s)) <= 1e-9


def test_c11_vacuum_expectation_matches_transfer_function():
    """Single passive mode, cutoff 8: vacuum expectation vs scalar transfer
    function within 1e-8 at ten points with Re s >= 0.5."""
    gamma, delta, n_max = 1.0, 0.5, 8
    model = zoo.build("linear_passive", gamma=gamma, delta=delta, n_max=n_max)
    A = np.array([[-(0.5 * gamma + 1j * delta)]])
    B = np.array([[-np.sqrt(gamma)]])
    C = np.array([[np.sqrt(gamma)]])
    D = np.array([[1.0]])
    rng = np.random.default_rng(111)
    for _ in range(10):
        s = complex(rng.uniform(0.5, 3.0), rng.uniform(-2.0, 2.0))
        vac = vacuum_expectation_char(model, s, dims=(n_max + 1,))
        want = transfer_function((A, B, C, D), s)
        assert abs(vac[0, 0] - want[0, 0]) <= 1e-8


def test_c12_stratonovich_round_trip_and_cayley_pole():
    """Round trips within 1e-10 when S + 1 is invertible; the dark-state
    scattering I - 2 sigma* sigma raises CayleySingular."""
    rng = np.random.default_rng(112)
    for _ in range(20):
        n = int(rng.integers(1, 3))
        m = int(rng.integers(1, 4))
        model = random_model(rng, n, m)
        E = ito_to_stratonovich(model)
        back = stratonovich_to_ito(E)
        assert max_abs(back.S - model.S) <= 1e-10
        assert max_abs(back.L - model.L) <= 1e-10
        assert max_abs(back.H - model.H) <= 1e-10

    dark = SLHModel(S=np.diag([1.0, -1.0]).astype(complex),
                    L=np.zeros((2, 2)), H=np.zeros((2, 2)))
    with pytest.raises(CayleySingular):
        ito_to_stratonovich(dark)


def test_c13_perturbation_series_order_eight():
    """Order-8 series at lam = 0.01 matches the exact perturbed evaluation
    within 1e-9 on the thermal qubit with a transverse perturbation."""
    model = zoo.build("thermal_qubit", gamma=1.0, n=0.2, omega=0.6)
    V = pauli("x")
    lam = 0.01
    rng = np.random.default_rng(113)
    for _ in range(5):
        s = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
        exact = char_op(SLHModel(S=model.S, L=model.L, H=model.H + lam * V),
                        s)
        series = perturbation_series(model, V, lam=lam, order=8, s=s)
        assert max_abs(series - exact) <= 1e-9


def test_c14_physical_realizability_identities():
    """A + A* + C*C = 0 and B = -C*D to 1e-12 for 50 random models."""
    rng = np.random.default_rng(114)
    for _ in range(50):
        model = random_model(rng, int(rng.integers(1, 4)), int(rng.integers(2, 7)))
        A, B, C, D = abcd(model)
        assert max_abs(A + dagger(A) + dagger(C) @ C) <= 1e-12
        assert max_abs(B + dagger(C) @ D) <= 1e-12


def test_c15_cli_contract(tmp_path):
    """File round-trip bit stability, exit codes, and CSV shape end to end."""
    runner = CliRunner()

    # zoo -> file -> read -> write is byte stable
    model_path = tmp_path / "thermal.json"
    res = runner.invoke(cli_main, ["zoo", "thermal_qubit", "gamma=1.0",
                                   "n=0.5", "omega=1.0",
                                   "--out", str(model_path)])
    assert res.exit_code == 0
    text1 = model_path.read_text()
    modelfile.write_model(model_path, modelfile.read_model(model_path))
    assert model_path.read_text() == text1

    # check: 0 on the valid file, 3 on a missing one
    assert runner.invoke(cli_main, ["check", str(model_path)]).exit_code == 0
    assert runner.invoke(cli_main,
                         ["check", str(tmp_path / "nope.json")]).exit_code == 3

    # eval: exact CSV shape (header + points x (nm)^2 rows)
    csv_path = tmp_path / "sweep.csv"
    res = runner.invoke(cli_main, ["eval", str(model_path),
                                   "--sweep", "0.1:10:25",
                                   "--out", str(csv_path)])
    assert res.exit_code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == modelfile.SWEEP_HEADER
    assert len(lines) == 1 + 25 * 4

    # limit on a zoo family: exit 0, decoupled, slow model emitted
    fam_path = tmp_path / "lambda.json"
    res = runner.invoke(cli_main, ["zoo", "lambda_system", "gamma=1.0",
                                   "alpha=0.5", "g=1.0", "n_max=3",
                                   "--out", str(fam_path)])
    assert res.exit_code == 0
    slow_path = tmp_path / "slow.json"
    res = runner.invoke(cli_main, ["limit", str(fam_path),
                                   "--emit", str(slow_path)])
    assert res.exit_code == 0
    slow = modelfile.read_model(slow_path)
    assert isinstance(slow, SLHModel) and slow.dim == 2

    # compose two cavities and validate the result
    cav_a = tmp_path / "cav_a.json"
    cav_b = tmp_path / "cav_b.json"
    for path, gamma in ((cav_a, "gamma=0.8"), (cav_b, "gamma=1.2")):
        res = runner.invoke(cli_main, ["zoo", "linear_passive", gamma,
                                       "n_max=2", "--out", str(path)])
        assert res.exit_code == 0
    cascade = tmp_path / "cascade.json"
    res = runner.invoke(cli_main, ["compose", str(cav_b), str(cav_a),
                                   "--out", str(cascade)])
    assert res.exit_code == 0
    assert runner.invoke(cli_main, ["check", str(cascade)]).exit_code == 0

    # exit 1 on validation failure and on unknown zoo entries
    bad = tmp_path / "bad.json"
    import json as _json
    doc = _json.loads(text1)
    doc["S"][0][0] = [0.5, 0.0]
    bad.write_text(_json.dumps(doc))
    assert runner.invoke(cli_main, ["check", str(bad)]).exit_code == 1
    assert runner.invoke(cli_main, ["zoo", "unknown_entry"]).exit_code == 1
