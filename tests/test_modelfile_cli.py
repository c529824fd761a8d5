"""Model-file container, sweep CSV, SVG emission, and the CLI contract."""

import json
from pathlib import Path
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from click.testing import CliRunner

from slhkit import (
    FrequencyGrid,
    ScaledSLHFamily,
    SLHModel,
    StratonovichCoefficients,
    identity,
    ito_to_stratonovich,
    max_abs,
    sweep,
)
from slhkit import modelfile, zoo
from slhkit.cli import main
from conftest import random_model


# ---------------------------------------------------------------------------
# container round trips
# ---------------------------------------------------------------------------


def test_slh_round_trip_bit_stable(rng, tmp_path):
    model = random_model(rng, 2, 3)
    path = tmp_path / "model.json"
    modelfile.write_model(path, model)
    text1 = path.read_text()
    back = modelfile.read_model(path)
    assert isinstance(back, SLHModel)
    assert np.array_equal(back.S, model.S)
    assert np.array_equal(back.L, model.L)
    assert np.array_equal(back.H, model.H)
    modelfile.write_model(path, back)
    assert path.read_text() == text1


def test_basis_labels_round_trip(tmp_path):
    model = zoo.build("thermal_qubit")
    assert model.basis_labels == ("up", "down")
    path = tmp_path / "labeled.json"
    modelfile.write_model(path, model)
    back = modelfile.read_model(path)
    assert back.basis_labels == ("up", "down")


def test_family_round_trip(tmp_path):
    fam = zoo.build("lambda_system", n_max=3)
    path = tmp_path / "family.json"
    modelfile.write_model(path, fam)
    back = modelfile.read_model(path)
    assert isinstance(back, ScaledSLHFamily)
    assert back.partition.slow_indices == fam.partition.slow_indices
    for name in ("S", "L0", "L1", "H0", "H1", "H2"):
        assert np.array_equal(getattr(back, name), getattr(fam, name))
    text1 = path.read_text()
    modelfile.write_model(path, back)
    assert path.read_text() == text1


def test_stratonovich_round_trip(rng, tmp_path):
    E = ito_to_stratonovich(random_model(rng, 1, 2))
    path = tmp_path / "coeffs.json"
    modelfile.write_model(path, E)
    back = modelfile.read_model(path)
    assert isinstance(back, StratonovichCoefficients)
    for name in ("E00", "E0l", "El0", "Ell"):
        assert np.array_equal(getattr(back, name), getattr(E, name))


def test_parse_errors_name_field_and_index(tmp_path):
    with pytest.raises(modelfile.ModelFileError) as err:
        modelfile.loads('{"kind":"slh","n_inputs":1,"dim":1,'
                        '"S":[[[1,0]]],"L":[[[0,"x"]]],"H":[[[0,0]]]}')
    assert err.value.field == "L"
    assert err.value.index == (0, 0)

    with pytest.raises(modelfile.ModelFileError) as err:
        modelfile.loads('{"kind":"slh","n_inputs":1,"dim":2,'
                        '"S":[[[1,0]]],"L":[[[0,0]]],"H":[[[0,0]]]}')
    assert err.value.field == "S"

    with pytest.raises(modelfile.ModelFileError):
        modelfile.loads("not json at all")


def test_seventeen_digit_floats_round_trip():
    x = 0.1 + 0.2  # has a long binary tail
    text = modelfile._fmt(x)
    assert float(text) == x


# ---------------------------------------------------------------------------
# sweep CSV
# ---------------------------------------------------------------------------


def test_sweep_csv_header_and_shape(tmp_path):
    model = zoo.build("thermal_qubit", gamma=1.0, n=0.4, omega=0.8)
    grid = FrequencyGrid(axis="imaginary", points=np.linspace(0.1, 10, 50))
    result = sweep(model, grid)
    path = tmp_path / "sweep.csv"
    modelfile.write_sweep_csv(path, *modelfile.from_sweep_result(result),
                              model.n_inputs, model.dim)
    lines = path.read_text().splitlines()
    assert lines[0] == "s_re,s_im,block_row,block_col,entry_row,entry_col,re,im,status"
    nm = model.n_inputs * model.dim
    assert len(lines) == 1 + 50 * nm * nm
    assert all(line.endswith(",ok") for line in lines[1:])


def test_sweep_csv_records_singular_points(tmp_path):
    lossy = zoo.build("lossless", dim=2, n_inputs=1, h_scale=1.0)
    grid = FrequencyGrid(axis="imaginary", points=np.array([-1.0, 0.5]))
    result = sweep(lossy, grid)
    path = tmp_path / "sweep.csv"
    modelfile.write_sweep_csv(path, *modelfile.from_sweep_result(result), 1, 2)
    lines = path.read_text().splitlines()[1:]
    assert len(lines) == 2 * 4
    bad = [l for l in lines if not l.endswith(",ok")]
    assert len(bad) == 4
    assert all("nan" in l for l in bad)


def _dyadic_sweep_columns():
    """A real-axis direct sweep of an n = 2, m = 2 model, one point singular.

    S is a permutation with phases, L* L = diag(1, 2) and H = 0, so
    K = diag(-1/2, -1); at every regular point s + 1/2 and s + 1 are powers
    of two.  Every number the sweep forms is then a short dyadic rational,
    so the file does not depend on how the BLAS orders its sums.
    """
    S = np.zeros((4, 4), dtype=complex)
    S[0, 3], S[1, 2], S[2, 0], S[3, 1] = 1j, -1, 1, 1j
    L = 0.5 * np.array([[1, 1 + 1j], [1, -1 - 1j], [1, 1 + 1j], [1, -1 - 1j]])
    model = SLHModel(S=S, L=L, H=np.zeros((2, 2)))
    grid = FrequencyGrid(axis="real", points=np.array([-1.5, -0.75, -0.5, 0.0]))
    return (*modelfile.from_sweep_result(sweep(model, grid)), 2, 2)


def _random_writer_columns():
    """n = 3, m = 2 entries with 17-digit tails, two failed points.

    ``Generator.random`` draws are exact multiples of 2^-53, so these inputs
    are the same on every platform.
    """
    rng = np.random.default_rng(20261018)
    matrices = []
    for scale in (1.0, 1e-7, 3e5):
        z = (rng.random((6, 6)) - 0.5) + 1j * (rng.random((6, 6)) - 0.5)
        z[0, 1] = 0.0
        z[2, 3] = complex(-0.0, 1.0)
        matrices.append(scale * z)
    matrices[1:1] = [None]
    matrices.append(None)
    s_values = [0.25j, 0.5j, 0.75j, 1j, 1.25j]
    statuses = ["ok", "Resolvent, singular\nat s", "ok", "ok", "singular"]
    return s_values, matrices, statuses, 3, 2


@pytest.mark.parametrize("case, columns", [
    ("sweep_dyadic_n2", _dyadic_sweep_columns),
    ("sweep_random_n3", _random_writer_columns),
])
def test_sweep_csv_matches_golden_file(tmp_path, case, columns):
    path = tmp_path / f"{case}.csv"
    modelfile.write_sweep_csv(path, *columns())
    golden = Path(__file__).parent / "data" / f"{case}.csv"
    assert path.read_bytes() == golden.read_bytes()


# ---------------------------------------------------------------------------
# CLI contract
# ---------------------------------------------------------------------------


@pytest.fixture
def runner():
    return CliRunner()


def _write_zoo(runner, tmp_path, name, *params):
    out = tmp_path / f"{name}.json"
    res = runner.invoke(main, ["zoo", name, *params, "--out", str(out)])
    assert res.exit_code == 0, res.output
    return out


def test_cli_check_pass_fail_and_io(runner, tmp_path):
    path = _write_zoo(runner, tmp_path, "thermal_qubit", "gamma=1.0", "n=0.5")
    res = runner.invoke(main, ["check", str(path)])
    assert res.exit_code == 0
    assert "PASS" in res.output

    # corrupt H into a non-Hermitian matrix
    doc = json.loads(path.read_text())
    doc["H"][0][1] = [0.3, 0.0]
    doc["H"][1][0] = [0.0, 0.0]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    res = runner.invoke(main, ["check", str(bad)])
    assert res.exit_code == 1
    assert "H" in res.output

    res = runner.invoke(main, ["check", str(tmp_path / "missing.json")])
    assert res.exit_code == 3

    # a tolerance that is not finite and >= 0 is refused, not used
    for tol in ("nan", "-1", "inf"):
        res = runner.invoke(main, ["check", str(path), "--tol", tol])
        assert res.exit_code == 1, tol
        assert res.output.startswith("Error: --tol must be finite and >= 0"), tol
        assert len(res.output.splitlines()) == 1, tol


@pytest.mark.parametrize("command", ["check", "limit"])
@pytest.mark.parametrize("defect", ["nan_entry", "duplicate_slow_indices",
                                    "huge_int_entry", "bool_entry",
                                    "bool_n_inputs", "bool_slow_index"])
def test_cli_invalid_family_file_exits_one(runner, tmp_path, command, defect):
    path = _write_zoo(runner, tmp_path, "lambda_system", "n_max=2")
    doc = json.loads(path.read_text())
    assert doc["n_inputs"] == 1 and doc["slow_indices"] == [0, 3]
    if defect == "nan_entry":
        doc["H0"][0][0] = [float("nan"), 0.0]
    elif defect == "duplicate_slow_indices":
        doc["slow_indices"] = [0, 0]
    elif defect == "huge_int_entry":
        doc["H0"][0][0] = [10 ** 400, 0]  # past the float range
    elif defect == "bool_entry":
        doc["H0"][0][0] = [True, 0.0]
    elif defect == "bool_n_inputs":
        doc["n_inputs"] = True
    else:
        doc["slow_indices"] = [False, 3]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    res = runner.invoke(main, [command, str(bad)])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)  # not an escaped BadParam
    assert "Traceback" not in res.output
    assert res.output.startswith(f"error: {bad}: ")
    assert len(res.output.splitlines()) == 1


def test_cli_limit_study_reports_strict_recheck_in_one_line(runner, tmp_path):
    # an L1 slow-column residual of 1e-6 passes --tol 1e-5, but the study
    # re-checks the family at the default 1e-9 and must say so in one line
    fam = zoo.build("detuned_two_level", delta=2.0)
    L1 = np.array(fam.L1)
    L1[0, 1] = 1e-6  # basis (excited, ground); ground is slow
    path = tmp_path / "loose.json"
    modelfile.write_model(path, ScaledSLHFamily(
        S=fam.S, L0=fam.L0, L1=L1, H0=fam.H0, H1=fam.H1, H2=fam.H2,
        partition=fam.partition))
    res = runner.invoke(main, ["limit", str(path), "--tol", "1e-5",
                               "--study", "10,100"])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)  # not an escaped AssumptionViolated
    assert "Traceback" not in res.output
    assert "assumptions: PASS" in res.output
    last = res.output.splitlines()[-1]
    assert last.startswith("error: convergence study failed: ")
    assert "L1_slow_columns" in last
    help_text = runner.invoke(main, ["limit", "--help"]).output
    assert "1e-9" in " ".join(help_text.split())

    # strengths that are zero or not finite are refused the same way
    good = _write_zoo(runner, tmp_path, "detuned_two_level")
    for spec in ("0,10", "nan"):
        res = runner.invoke(main, ["limit", str(good), "--study", spec])
        assert res.exit_code == 1, spec
        assert isinstance(res.exception, SystemExit)
        assert "Traceback" not in res.output
        errors = [l for l in res.output.splitlines() if l.startswith("error:")]
        assert len(errors) == 1 and errors[0] == res.output.splitlines()[-1]
        assert errors[0].startswith("error: convergence study failed: ")


def test_cli_check_family_reports_assumptions(runner, tmp_path):
    path = _write_zoo(runner, tmp_path, "detuned_two_level", "delta=2.0")
    res = runner.invoke(main, ["check", str(path)])
    assert res.exit_code == 0
    assert "A_ff condition estimate" in res.output


def test_cli_eval_sweep_shapes_and_methods(runner, tmp_path):
    path = _write_zoo(runner, tmp_path, "thermal_qubit", "gamma=1.0",
                      "n=0.3", "omega=0.9")
    out_direct = tmp_path / "direct.csv"
    out_allpass = tmp_path / "allpass.csv"
    res = runner.invoke(main, ["eval", str(path), "--sweep", "0.1:10:50",
                               "--out", str(out_direct)])
    assert res.exit_code == 0, res.output
    res = runner.invoke(main, ["eval", str(path), "--sweep", "0.1:10:50",
                               "--method", "allpass", "--out", str(out_allpass)])
    assert res.exit_code == 0
    d_lines = out_direct.read_text().splitlines()
    a_lines = out_allpass.read_text().splitlines()
    assert len(d_lines) == 1 + 50 * 4
    assert d_lines != a_lines  # same values only to rounding, not bytewise

    def parse(lines):
        vals = []
        for line in lines[1:]:
            f = line.split(",")
            vals.append(complex(float(f[6]), float(f[7])))
        return np.array(vals)

    assert np.max(np.abs(parse(d_lines) - parse(a_lines))) <= 1e-9


def test_cli_eval_single_point_and_plot(runner, tmp_path):
    path = _write_zoo(runner, tmp_path, "thermal_qubit")
    out = tmp_path / "point.csv"
    res = runner.invoke(main, ["eval", str(path), "--s", "1,0",
                               "--out", str(out)])
    assert res.exit_code == 0
    assert len(out.read_text().splitlines()) == 1 + 4

    # a point that is not finite is refused before any evaluation
    fam = _write_zoo(runner, tmp_path, "detuned_two_level")
    for args in (["eval", str(path), "--s", "nan,0"],
                 ["eval", str(path), "--s", "inf,1"],
                 ["limit", str(fam), "--study", "10", "--s", "nan,0"]):
        res = runner.invoke(main, args)
        assert res.exit_code == 1, args
        assert "Traceback" not in res.output
        assert "cannot parse --s" in res.output
    # so are sweep bounds that are not finite, or whose span overflows
    out = tmp_path / "sweep.csv"
    for spec in ("nan:nan:1", "inf:inf:1", "-inf:inf:3", "-1e308:1e308:3"):
        res = runner.invoke(main, ["eval", str(path), "--sweep", spec,
                                   "--out", str(out)])
        assert res.exit_code == 1, spec
        assert res.output.strip() == "Error: --sweep min, max and max - min must be finite"
        assert not out.exists(), spec

    svg = tmp_path / "trace.svg"
    res = runner.invoke(main, ["eval", str(path), "--sweep", "0.1:5:20",
                               "--plot", str(svg), "--entry", "1,1"])
    assert res.exit_code == 0
    root = ET.fromstring(svg.read_text())
    assert root.tag.endswith("svg")
    assert len(root.findall(".//{http://www.w3.org/2000/svg}polyline")) == 2


def test_cli_eval_bad_entry_refused_before_evaluation(runner, tmp_path):
    path = _write_zoo(runner, tmp_path, "thermal_qubit")
    out, svg = tmp_path / "sweep.csv", tmp_path / "trace.svg"
    for entry, message in (("a", "--entry must be 'row,col'"),
                           ("5,0", "--entry out of range for a 2x2 matrix")):
        res = runner.invoke(main, ["eval", str(path), "--sweep", "0.1:5:20",
                                   "--out", str(out), "--plot", str(svg),
                                   "--entry", entry])
        assert res.exit_code == 1, entry
        assert res.output.strip() == f"Error: {message}", entry
        assert not out.exists() and not svg.exists(), entry


def test_cli_eval_non_hermitian_stratonovich_file_exits_one(runner, tmp_path):
    path = tmp_path / "coeffs.json"
    modelfile.write_model(path, ito_to_stratonovich(
        zoo.build("thermal_qubit", n=0.3, omega=0.9)))
    doc = json.loads(path.read_text())
    doc["E00"][0][1] = [5, 0]
    path.write_text(json.dumps(doc))
    for args in (["--s", "1,0"], ["--sweep", "0:1:3"]):
        res = runner.invoke(main, ["eval", str(path), *args])
        assert res.exit_code == 1, args
        assert isinstance(res.exception, SystemExit), args
        lines = res.output.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {path}: "), args


def test_cli_eval_all_singular_exits_two(runner, tmp_path):
    path = _write_zoo(runner, tmp_path, "lossless", "dim=2", "n_inputs=1",
                      "h_scale=1.0")
    res = runner.invoke(main, ["eval", str(path), "--s", "0,-1"])
    assert res.exit_code == 2


def test_cli_limit_lambda_emits_slow_model(runner, tmp_path):
    path = _write_zoo(runner, tmp_path, "lambda_system", "gamma=2.0",
                      "alpha=0.5", "g=1.0", "n_max=4")
    out = tmp_path / "slow.json"
    res = runner.invoke(main, ["limit", str(path), "--emit", str(out)])
    assert res.exit_code == 0, res.output
    assert "decoupled: True" in res.output
    slow = modelfile.read_model(out)
    assert isinstance(slow, SLHModel)
    c = np.sqrt(2.0) * 0.5 / 1.0
    expected_L = np.array([[0.0, -c], [0.0, 0.0]], dtype=complex)
    assert max_abs(slow.L - expected_L) <= 1e-12
    assert max_abs(slow.S - np.diag([1.0, -1.0]).astype(complex)) <= 1e-12
    assert max_abs(slow.H) <= 1e-12


def test_cli_limit_study_and_assumption_failure(runner, tmp_path):
    path = _write_zoo(runner, tmp_path, "detuned_two_level")
    res = runner.invoke(main, ["limit", str(path), "--study", "10,100,1000",
                               "--s", "1,0"])
    assert res.exit_code == 0
    lines = [l for l in res.output.splitlines() if l and l[0].isdigit()]
    errs = [float(l.split(",")[1]) for l in lines]
    assert errs == sorted(errs, reverse=True)

    # family with A_ff = 0 fails the assumption gate
    fam = ScaledSLHFamily(
        S=identity(2), L0=np.diag([1.0, -1.0]).astype(complex),
        L1=np.zeros((2, 2)), H0=np.zeros((2, 2)), H1=np.zeros((2, 2)),
        H2=np.zeros((2, 2)),
        partition=__import__("slhkit").BlockPartition(dim=2, slow_indices=(1,)))
    bad = tmp_path / "degenerate.json"
    modelfile.write_model(bad, fam)
    res = runner.invoke(main, ["limit", str(bad)])
    assert res.exit_code == 1


def test_cli_limit_refuses_bad_study_or_point_before_any_output(runner, tmp_path):
    path = _write_zoo(runner, tmp_path, "lambda_system", "n_max=4")
    slow = tmp_path / "slow.json"
    for args, message in ((["--study", "abc"], "--study must be comma-separated numbers"),
                          (["--s", "zz"], "cannot parse --s 'zz'; use 're' or 're,im'")):
        res = runner.invoke(main, ["limit", str(path), "--emit", str(slow), *args])
        assert res.exit_code == 1, args
        assert res.output.strip() == f"Error: {message}", args
        assert not slow.exists(), args


def test_cli_compose_lift_and_mismatch(runner, tmp_path):
    a_path = _write_zoo(runner, tmp_path, "linear_passive", "gamma=0.8", "n_max=2")
    trivial = SLHModel(S=identity(2), L=np.zeros((2, 2)), H=np.zeros((2, 2)))
    b_path = tmp_path / "trivial.json"
    modelfile.write_model(b_path, trivial)
    out = tmp_path / "cascade.json"
    res = runner.invoke(main, ["compose", str(b_path), str(a_path),
                               "--out", str(out)])
    assert res.exit_code == 0
    composed = modelfile.read_model(out)
    A = modelfile.read_model(a_path)
    assert max_abs(composed.L - np.kron(identity(2), A.L)) <= 1e-14

    res = runner.invoke(main, ["check", str(out)])
    assert res.exit_code == 0

    mismatch = SLHModel(S=identity(4), L=np.zeros((4, 2)), H=np.zeros((2, 2)))
    m_path = tmp_path / "two_inputs.json"
    modelfile.write_model(m_path, mismatch)
    res = runner.invoke(main, ["compose", str(m_path), str(a_path),
                               "--out", str(tmp_path / "x.json")])
    assert res.exit_code == 1


def test_cli_zoo_list_and_unicode_params(runner, tmp_path):
    res = runner.invoke(main, ["zoo", "list"])
    assert res.exit_code == 0
    listed = [l.split()[0] for l in res.output.splitlines() if l.strip()]
    assert len(listed) == 8

    out = tmp_path / "uni.json"
    res = runner.invoke(main, ["zoo", "thermal_qubit", "γ=1", "n=0.5",
                               "ω=1", "--out", str(out)])
    assert res.exit_code == 0
    model = modelfile.read_model(out)
    assert isinstance(model, SLHModel)
    assert max_abs(model.H - np.diag([1.0, -1.0]).astype(complex)) == 0.0

    res = runner.invoke(main, ["zoo", "does_not_exist"])
    assert res.exit_code == 1


def test_cli_tol_env_override(runner, tmp_path, monkeypatch):
    # a mildly non-unitary S passes only with a loose tolerance
    model = SLHModel(S=np.diag([1.0, 1.0 + 5e-7]).astype(complex),
                     L=np.zeros((2, 2)), H=np.zeros((2, 2)))
    path = tmp_path / "loose.json"
    modelfile.write_model(path, model)
    res = runner.invoke(main, ["check", str(path)])
    assert res.exit_code == 1
    monkeypatch.setenv("SLHKIT_TOL", "1e-3")
    res = runner.invoke(main, ["check", str(path)])
    assert res.exit_code == 0
    for tol in ("nan", "-1", "inf"):
        monkeypatch.setenv("SLHKIT_TOL", tol)
        res = runner.invoke(main, ["check", str(path)])
        assert res.exit_code == 1, tol
        assert res.output.startswith("Error: SLHKIT_TOL must be finite and >= 0"), tol
        assert len(res.output.splitlines()) == 1, tol
