"""Model-file container, sweep CSV, SVG emission, and the CLI contract."""

import copy
import dataclasses
import json
from pathlib import Path
import xml.etree.ElementTree as ET

import numpy as np
import pytest
import scipy.linalg
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from slhkit import (
    BadParam,
    BlockPartition,
    FrequencyGrid,
    ScaledSLHFamily,
    SLHModel,
    SlhkitError,
    check_assumptions,
    StratonovichCoefficients,
    identity,
    ito_to_stratonovich,
    max_abs,
    sweep,
)
from slhkit import modelfile, zoo
from slhkit.characteristic import METHODS
from slhkit.cli import main
from slhkit.model import field_shape
from conftest import near_limit_family, near_minus_one_model, random_family, random_model


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

    # labels spelled like JSON bools are strings, not matrix entries
    labeled = modelfile.loads(modelfile.dumps(
        SLHModel(S=model.S, L=model.L, H=model.H, basis_labels=("true", "false"))))
    assert labeled.basis_labels == ("true", "false")
    for name in ("S", "L", "H"):
        assert getattr(labeled, name).tobytes() == getattr(back, name).tobytes()


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


_PAIRS = "entries must be [re, im] pairs"
_ROWS = "rows must be lists of equal length"
_TOO_DEEP = ("not valid JSON: maximum recursion depth exceeded "
             "while decoding a JSON array from a unicode string")


def _h2(rows):
    """An n = 1, m = 2 slh file text whose H matrix is ``rows``."""
    return json.dumps({"kind": "slh", "n_inputs": 1, "dim": 2,
                       "S": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
                       "L": [[[0.5, 0.0], [0.0, 0.25]], [[0.0, 0.0], [0.75, 0.0]]],
                       "H": rows})


def test_parse_errors_name_field_and_index(tmp_path):
    # (text, field, index, message); each defect must reach the per-cell walk
    # that names it, whatever the one-piece conversion of the field made of it
    cases = [
        ('{"kind":"slh","n_inputs":1,"dim":1,'
         '"S":[[[1,0]]],"L":[[[0,"x"]]],"H":[[[0,0]]]}', "L", (0, 0), _PAIRS),
        ('{"kind":"slh","n_inputs":1,"dim":2,'
         '"S":[[[1,0]]],"L":[[[0,0]]],"H":[[[0,0]]]}', "S", None,
         "expected shape (2, 2), got (1, 1)"),
        # np.array would turn this bool into 1.0 beside the floats
        (_h2([[[0.5, 0.0], [True, 0.5]], [[0.0, 0.0], [1.5, 0.0]]]), "H", (0, 1), _PAIRS),
        (_h2([[[0.5, 0.0], [0.0, 0.0]], [["1", 0.0], [1.5, 0.0]]]), "H", (1, 0), _PAIRS),
        (_h2([[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.5, None]]]), "H", (1, 1), _PAIRS),
        (_h2([[[0.5, 0.0], [0.0, 0.0, 0.0]], [[0.0, 0.0], [1.5, 0.0]]]), "H", (0, 1), _PAIRS),
        (_h2([[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0]]]), "H", 1, _ROWS),
        (_h2([[[0.5, 0.0], [0.0, 0.0]], []]), "H", 1, _ROWS),
        (_h2([[[0.5, 0.0], [0.0, 0.0]], [[0.0, 10 ** 400], [1.5, 0.0]]]), "H", (1, 0),
         "entry exceeds the float range"),
        # nesting past the JSON reader's recursion limit is the document's defect
        ('{"kind":"slh","n_inputs":1,"dim":1,"S":' + "[" * 200_000 + "]" * 200_000
         + ',"L":[[[0,0]]],"H":[[[0,0]]]}', "document", None, _TOO_DEEP),
    ]
    for text, field, index, message in cases:
        with pytest.raises(modelfile.ModelFileError) as err:
            modelfile.loads(text)
        assert (err.value.field, err.value.index) == (field, index), text
        assert str(err.value).endswith(f": {message}"), text

    with pytest.raises(modelfile.ModelFileError):
        modelfile.loads("not json at all")


# one small valid file of each kind: labels (slh), slow_indices (family), E (stratonovich)
_FUZZ_DOCS = [json.loads(modelfile.dumps(obj)) for obj in (
    zoo.build("thermal_qubit"), zoo.build("detuned_two_level"),
    ito_to_stratonovich(zoo.build("thermal_qubit")))]
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(data=st.data())
def test_loads_fuzz_raises_only_slhkit_errors(data):
    # replace or delete random nodes of a valid file; loads either returns an
    # object or refuses the text with an SlhkitError, never anything else
    doc = copy.deepcopy(data.draw(st.sampled_from(_FUZZ_DOCS)))
    for _ in range(data.draw(st.integers(1, 3))):
        parent, key = None, None
        node = doc
        while isinstance(node, (dict, list)) and node and (
                parent is None or data.draw(st.booleans())):
            keys = list(node) if isinstance(node, dict) else range(len(node))
            parent, key = node, data.draw(st.sampled_from(keys))
            node = node[key]
        if parent is None:
            doc = data.draw(_JSON_VALUES)
        elif data.draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = data.draw(_JSON_VALUES)
    try:
        obj = modelfile.loads(json.dumps(doc))
    except SlhkitError:
        return
    assert isinstance(obj, (SLHModel, ScaledSLHFamily, StratonovichCoefficients))


# float parts biased to the cases the writer and reader special-case: exact
# and signed zeros, subnormals and the ends of the binary64 range
_PARTS = st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308,
                          1.7976931348623157e308, -1e308, 1.0, -0.5]) | st.floats(
    allow_nan=False, allow_infinity=False)
_CELLS = st.one_of(st.just(0j), st.builds(complex, _PARTS, st.just(0.0)),
                   st.builds(complex, st.just(-0.0), _PARTS), st.builds(complex, _PARTS, _PARTS))


@st.composite
def _model_objects(draw):
    """A random slh model, scaled family or coefficient set with _CELLS entries."""
    kind = draw(st.sampled_from(["slh", "family", "stratonovich"]))
    n, m = draw(st.integers(1, 2)), draw(st.integers(2, 3))
    cls, fields = modelfile._KINDS[kind]
    mats = {key: draw(arrays(complex, field_shape(key, n, m), elements=_CELLS))
            for key in fields}
    if kind == "family":
        slow = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=m - 1, unique=True))
        return cls(**mats, partition=BlockPartition(dim=m, slow_indices=tuple(sorted(slow))))
    if kind == "slh":
        labels = draw(st.none() | st.lists(st.sampled_from(["up", "true", "false"]),
                                           min_size=m, max_size=m))
        return cls(**mats, basis_labels=labels)
    return cls(**mats)


def _fields(obj):
    return next(fields for cls, fields in modelfile._KINDS.values() if isinstance(obj, cls))


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(obj=_model_objects())
def test_model_files_byte_stable(obj):
    text = modelfile.dumps(obj)
    back = modelfile.loads(text)
    assert modelfile.dumps(back) == text
    for key in _fields(obj):  # equal values; -0.0 reads back as 0.0
        assert np.array_equal(getattr(back, key), getattr(obj, key))
    # the text route reads every field as the per-cell walk does
    read = modelfile._text_document(text)
    doc = json.loads(text)
    for key in _fields(obj):
        walked = modelfile._matrix_from_json(doc[key], key)
        assert isinstance(read[key], np.ndarray)
        assert read[key].dtype == walked.dtype and read[key].tobytes() == walked.tobytes()


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(obj=_model_objects(), data=st.data())
def test_loads_reads_reformatted_text_alike(obj, data):
    # the same document indented, and with its keys shuffled and json's own
    # spacing and float spelling, reads to the same bytes by the text route
    text = modelfile.dumps(obj)
    doc = json.loads(text)
    keys = data.draw(st.permutations(list(doc)))
    texts = [text, json.dumps(doc, indent=1), json.dumps({key: doc[key] for key in keys})]
    reads = [modelfile.loads(t) for t in texts]
    for t in texts:
        assert modelfile._text_document(t) is not None
    for key in _fields(obj):
        want = getattr(reads[0], key)
        for back in reads[1:]:
            assert getattr(back, key).tobytes() == want.tobytes()
        walked = modelfile._matrix_from_json(json.loads(texts[2])[key], key)
        assert walked.tobytes() == want.tobytes()


def _h_text(h):
    """An n = 1, m = 1 slh file text whose H field is the raw text ``h``."""
    return '{"kind":"slh","n_inputs":1,"dim":1,"S":[[[1,0]]],"L":[[[0.5,0]]],"H":%s}' % h


@pytest.mark.parametrize("h, expected, by_text", [
    ("[[[-0,1]]]", complex(0.0, 1.0), True),  # JSON reads -0 as the integer 0
    ("[[[-0.0,1]]]", complex(-0.0, 1.0), True),
    ("[[[1E+2,-0e0]]]", complex(100.0, -0.0), True),
    ("[[[%d,0]]]" % (2 ** 63 - 1), complex(float(2 ** 63 - 1), 0.0), True),
    ('[[[1,0]]],"H":[[[2,0]]]', 2, False),  # a repeated key: json keeps the last
    ('[[[1,0]]],"\\u0048":[[[3,0]]]', 3, False),  # the escaped key comes later
])
def test_text_route_reads_numbers_and_keys_as_json_does(h, expected, by_text):
    text = _h_text(h)
    H = modelfile.loads(text).H
    walked = modelfile._matrix_from_json(json.loads(text)["H"], "H")
    assert H.tobytes() == walked.tobytes() == np.array([[expected]], dtype=complex).tobytes()
    assert (modelfile._text_document(text) is not None) == by_text


@pytest.mark.parametrize("h", ["[[[1e400,0]]]", "[[[0,NaN]]]", "[[[-Infinity,0]]]"])
def test_text_route_leaves_non_finite_entries_to_the_model_check(h):
    with pytest.raises(BadParam, match="non-finite"):
        modelfile.loads(_h_text(h))


def test_seventeen_digit_floats_round_trip():
    x = 0.1 + 0.2  # has a long binary tail
    text = modelfile._fmt(x)
    assert float(text) == x

    # integers past 2^53 read as the nearest float, as float() rounds them
    big = [2 ** 53 + 1, 2 ** 62 + 2 ** 9 + 1, 2 ** 63 - 1]
    back = modelfile.loads(_h2([[[big[0], 0], [0, big[1]]], [[0, 0], [big[2], 0]]]))
    assert back.H[0, 0] == float(big[0]) and back.H[0, 1] == 1j * float(big[1])
    assert back.H[1, 1] == float(big[2])


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
        assert res.output.startswith("error: --tol must be finite and >= 0"), tol
        assert len(res.output.splitlines()) == 1, tol


@pytest.mark.parametrize("kind", [[], {}])
def test_cli_non_string_kind_exits_one(runner, tmp_path, kind):
    path = _write_zoo(runner, tmp_path, "thermal_qubit")
    doc = json.loads(path.read_text())
    doc["kind"] = kind
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    res = runner.invoke(main, ["check", str(bad)])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)  # not an escaped TypeError
    assert "Traceback" not in res.output
    assert res.output.startswith(f"error: {bad}: kind: ")
    assert len(res.output.splitlines()) == 1


@pytest.mark.parametrize("command", ["check", "limit"])
@pytest.mark.parametrize("defect", ["nan_entry", "duplicate_slow_indices",
                                    "huge_int_entry", "digit_limit_entry", "bool_entry",
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
    elif defect == "digit_limit_entry":
        # 5,001 digits, past Python's integer-string limit of 4,300: there
        # json.loads raises a plain ValueError, not a JSONDecodeError
        doc["H0"][0][0] = ["DIGITS", 0]
    elif defect == "bool_entry":
        doc["H0"][0][0] = [True, 0.0]
    elif defect == "bool_n_inputs":
        doc["n_inputs"] = True
    else:
        doc["slow_indices"] = [False, 3]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc).replace('"DIGITS"', "1" + "0" * 5000))
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
        assert res.output.strip() == "error: --sweep min, max and max - min must be finite"
        assert not out.exists(), spec

    svg = tmp_path / "trace.svg"
    res = runner.invoke(main, ["eval", str(path), "--sweep", "0.1:5:20",
                               "--plot", str(svg), "--entry", "1,1"])
    assert res.exit_code == 0
    root = ET.fromstring(svg.read_text())
    assert root.tag.endswith("svg")
    assert len(root.findall(".//{http://www.w3.org/2000/svg}polyline")) == 2


def _polylines(svg_path):
    """(x, y) pixel pairs of each polyline in an SVG file."""
    root = ET.fromstring(svg_path.read_text())
    return [np.array([[float(v) for v in pair.split(",")]
                      for pair in line.get("points").split()])
            for line in root.iter("{http://www.w3.org/2000/svg}polyline")]


def test_cli_eval_plot_alone_traces_the_same_entry_as_plot_with_csv(runner, tmp_path):
    path = _write_zoo(runner, tmp_path, "optomech", "n_max_cavity=3", "n_max_mirror=3")
    alone, both = tmp_path / "alone.svg", tmp_path / "both.svg"
    # the symmetric odd grid hits s = 0, an eigenvalue of K (plant vacuum)
    args = ["eval", str(path), "--sweep", "-3:3:13", "--entry", "1,2"]
    res_alone = runner.invoke(main, [*args, "--plot", str(alone)])
    res_both = runner.invoke(main, [*args, "--plot", str(both),
                                    "--out", str(tmp_path / "sweep.csv")])
    assert res_alone.exit_code == res_both.exit_code == 0
    first = "evaluated 13 point(s), 1 singular"
    assert res_alone.output.splitlines()[0] == res_both.output.splitlines()[0] == first
    lines_alone, lines_both = _polylines(alone), _polylines(both)
    assert len(lines_alone) == len(lines_both) == 2
    for a, b in zip(lines_alone, lines_both):
        assert a.shape == b.shape == (12, 2)  # the gap at s = 0 in both
        assert np.array_equal(a[:, 0], b[:, 0])
        assert np.max(np.abs(a - b)) <= 0.01
    gap = 48 + 6 * (640 - 2 * 48) / 12  # x pixel of omega = 0
    assert not np.any(np.isclose(lines_alone[0][:, 0], gap))


def test_cli_eval_bad_entry_refused_before_evaluation(runner, tmp_path):
    path = _write_zoo(runner, tmp_path, "thermal_qubit")
    out, svg = tmp_path / "sweep.csv", tmp_path / "trace.svg"
    for outputs in (["--out", str(out), "--plot", str(svg)], ["--plot", str(svg)]):
        for entry, message in (("a", "--entry must be 'row,col'"),
                               ("5,0", "--entry out of range for a 2x2 matrix")):
            res = runner.invoke(main, ["eval", str(path), "--sweep", "0.1:5:20",
                                       *outputs, "--entry", entry])
            assert res.exit_code == 1, entry
            assert res.output.strip() == f"error: {message}", entry
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


def test_cli_near_limit_note_once_on_stdout(runner, tmp_path):
    # A_ff's condition estimate 1.1e9 passes the limit 1e10 with a note: one
    # stdout line per command, however often the command reads the report
    fam = near_limit_family()
    assert check_assumptions(fam) is check_assumptions(fam)
    path = tmp_path / "near.json"
    modelfile.write_model(path, fam)
    note = "  A_ff condition estimate 1.111e+09 is near the limit"
    for args in (["check", str(path)], ["limit", str(path), "--study", "10,100,1000"]):
        res = runner.invoke(main, args)
        assert res.exit_code == 0, res.output
        assert res.stderr == ""
        assert res.stdout.splitlines().count(note) == 1, args


@pytest.mark.parametrize("name,params", [("detuned_two_level", {}),
                                         ("lambda_system", {"n_max": 2})])
@pytest.mark.parametrize("extra", [[], ["--emit", "{tmp}/slow.json"], ["--study", "10,100"]],
                         ids=["limit", "emit", "study"])
def test_cli_limit_refuses_an_overflowed_limit_model(runner, tmp_path, name, params, extra):
    # H1 entries of 1e155 pass check, but Hhat_ss = H0_ss + Im{Z_sf A_ff^-1 Z_fs}
    # overflows: a numerical failure in one error: line, not a traceback
    fam = zoo.build(name, **params)
    path = tmp_path / "huge_h1.json"
    modelfile.write_model(path, dataclasses.replace(fam, H1=fam.H1 * 1e155))
    assert runner.invoke(main, ["check", str(path)]).exit_code == 0
    res = runner.invoke(main, ["limit", str(path), *(a.format(tmp=tmp_path) for a in extra)])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert res.stderr.splitlines() == [
        "error: limit model overflowed: Hhat contains non-finite entries"]
    assert not (tmp_path / "slow.json").exists()


def test_cli_limit_refuses_bad_study_or_point_before_any_output(runner, tmp_path):
    path = _write_zoo(runner, tmp_path, "lambda_system", "n_max=4")
    slow = tmp_path / "slow.json"
    for args, message in ((["--study", "abc"], "--study must be comma-separated numbers"),
                          (["--s", "zz"], "cannot parse --s 'zz'; use 're' or 're,im'")):
        res = runner.invoke(main, ["limit", str(path), "--emit", str(slow), *args])
        assert res.exit_code == 1, args
        assert res.output.strip() == f"error: {message}", args
        assert not slow.exists(), args


def test_cli_compose_lift_and_mismatch(runner, tmp_path, monkeypatch):
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

    # past the entry limit (1 * (2 * 3)^2 = 36 here): one line, nothing written
    monkeypatch.setattr("slhkit.model.SERIES_ENTRY_LIMIT", 35)
    res = runner.invoke(main, ["compose", str(b_path), str(a_path),
                               "--out", str(tmp_path / "big.json")])
    assert res.exit_code == 1 and res.stdout == ""
    assert res.stderr.splitlines() == [
        "error: series product of models with (n_inputs, dim) = (1, 2) and (1, 3) "
        "would form 36 complex entries, over the limit of 35"]
    assert not (tmp_path / "big.json").exists()


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


def test_cli_limit_factors_a_ff_once(runner, tmp_path, monkeypatch):
    # the assumption gate and the limit model share one LU of A_ff
    path = _write_zoo(runner, tmp_path, "lambda_system", "n_max=2")  # m = 9, 2 slow
    shapes = []
    lu_factor = scipy.linalg.lu_factor

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return lu_factor(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "lu_factor", counted)
    res = runner.invoke(main, ["limit", str(path), "--emit", str(tmp_path / "slow.json")])
    assert res.exit_code == 0, res.output
    assert shapes.count((7, 7)) == 1, shapes


def test_cli_eval_method_choices_are_the_method_table():
    option = next(p for p in main.commands["eval"].params if p.name == "method")
    assert list(option.type.choices) == list(METHODS)


def test_cli_zoo_refuses_non_numeric_parameter(runner):
    # every zoo parameter is a number; the lambda system's split is not a parameter
    for arg, message in (("n_max=[0,3]", "cannot parse value for n_max: '[0,3]'"),
                         ("slow_indices=3",
                          "unknown parameters for lambda_system: ['slow_indices']")):
        res = runner.invoke(main, ["zoo", "lambda_system", arg])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)  # not an escaped TypeError
        assert res.output == f"error: {message}\n"


@pytest.mark.parametrize("name", zoo.names())
def test_cli_zoo_numeric_defaults_reproduce_default_file(runner, name):
    default_file = runner.invoke(main, ["zoo", name]).output
    numeric = {key: value for key, value in zoo.entry(name).defaults.items()
               if type(value) in (int, float, complex)}
    assert numeric
    for key, value in numeric.items():
        text = (f"{value.real!r},{value.imag!r}" if type(value) is complex
                else repr(value))
        res = runner.invoke(main, ["zoo", name, f"{key}={text}"])
        assert res.exit_code == 0, res.output
        assert res.output == default_file, key


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
        assert res.output.startswith("error: SLHKIT_TOL must be finite and >= 0"), tol
        assert len(res.output.splitlines()) == 1, tol


# One row per CLI branch: the arguments ({slh}, {fam}, ... name the files of
# cli_files), SLHKIT_TOL or None, the exit code, the command's message and,
# optionally, a stdout line printed before a refusal.  A refusal (stream
# "err") writes exactly that one line to stderr; the other rows write the
# message as a stdout line and nothing to stderr, and exit 1 only with a
# FAIL verdict.
_NOT_WRITABLE = "error: cannot write {missing}/"
_NO_CAYLEY = ("error: S + 1 is not invertible (condition estimate inf); "
              "no Stratonovich coefficients exist")
_NEAR_MINUS = ("error: S + 1 is not invertible (condition estimate 8.166e+15); "
               "no Stratonovich coefficients exist")
_CLI_BRANCHES = [
    ("check-stratonovich", ["check", "{strat}"], None, 0, "out",
     "kind: stratonovich  n_inputs=1 dim=2"),
    ("check-not-utf8", ["check", "{not_utf8}"], None, 1, "err",
     "error: {not_utf8}: document: not UTF-8 text: "),
    ("check-nested-too-deep", ["check", "{too_deep}"], None, 1, "err",
     "error: {too_deep}: document: " + _TOO_DEEP),
    ("eval-family", ["eval", "{fam}", "--s", "1"], None, 1, "err",
     "error: eval needs an slh or stratonovich file; use 'limit' for families"),
    ("eval-s-and-sweep", ["eval", "{slh}", "--s", "1", "--sweep", "0:1:3"], None, 1, "err",
     "error: give exactly one of --s or --sweep"),
    ("eval-no-point", ["eval", "{slh}"], None, 1, "err",
     "error: give exactly one of --s or --sweep"),
    ("eval-plot-with-s", ["eval", "{slh}", "--s", "1", "--plot", "{tmp}/p.svg"], None, 1, "err",
     "error: --plot needs a --sweep grid"),
    ("eval-sweep-malformed", ["eval", "{slh}", "--sweep", "0:1"], None, 1, "err",
     "error: --sweep must be 'min:max:count'"),
    ("eval-sweep-count-0", ["eval", "{slh}", "--sweep", "0:1:0"], None, 1, "err",
     "error: --sweep count must be >= 1"),
    ("eval-sweep-decreasing", ["eval", "{slh}", "--sweep", "1:0:3"], None, 1, "err",
     "error: grid points must be finite and strictly increasing"),
    ("eval-no-stratonovich-form-s",
     ["eval", "{minus}", "--method", "stratonovich", "--s", "1"], None, 2, "err", _NO_CAYLEY),
    ("eval-no-stratonovich-form-sweep",
     ["eval", "{minus}", "--method", "stratonovich", "--sweep", "0:1:3"], None, 2, "err",
     _NO_CAYLEY),
    ("eval-near-minus-one-s",
     ["eval", "{near_minus}", "--method", "stratonovich", "--s", "1"], None, 2, "err",
     _NEAR_MINUS),
    ("eval-near-minus-one-sweep",
     ["eval", "{near_minus}", "--method", "stratonovich", "--sweep", "0:1:3"], None, 2, "err",
     _NEAR_MINUS),
    # max|(S + 1)^-1| of 5e2 passes the Stratonovich rounding budget, 5e3 does not
    ("eval-stratonovich-within-budget",
     ["eval", "{minus_delta3}", "--method", "stratonovich", "--s", "0.4,0.9"], None, 0, "out",
     "evaluated 1 point(s), 0 singular"),
    ("eval-stratonovich-past-budget",
     ["eval", "{minus_delta4}", "--method", "stratonovich", "--s", "0.4,0.9"], None, 2, "err",
     "error: S + 1 is too near singular for the Stratonovich form: max|(S + 1)^-1| = "),
    # eval and compose take any realization; check is the validator
    ("check-invalid", ["check", "{invalid}"], None, 1, "out", "FAIL"),
    ("eval-invalid", ["eval", "{invalid}", "--s", "1"], None, 0, "out",
     "evaluated 1 point(s), 0 singular"),
    ("compose-invalid", ["compose", "{invalid}", "{invalid}", "--out", "{tmp}/ci.json"], None, 0,
     "out", "wrote {tmp}/ci.json (n_inputs=1, dim=1)"),
    ("eval-out-not-writable", ["eval", "{slh}", "--sweep", "0:1:3", "--out", "{missing}/f.csv"],
     None, 3, "err", _NOT_WRITABLE + "f.csv: "),
    ("eval-plot-not-writable",
     ["eval", "{slh}", "--sweep", "0:1:3", "--plot", "{missing}/p.svg"], None, 3, "err",
     _NOT_WRITABLE + "p.svg: "),
    ("limit-emit-not-writable", ["limit", "{fam}", "--emit", "{missing}/slow.json"],
     None, 3, "err", _NOT_WRITABLE + "slow.json: "),
    ("tol-env-not-a-number", ["check", "{slh}"], "abc", 1, "err",
     "error: SLHKIT_TOL is not a number: 'abc'"),
    ("check-tol-not-a-number", ["check", "{slh}", "--tol", "abc"], None, 1, "err",
     "error: --tol is not a number: 'abc'"),
    ("limit-tol-not-a-number", ["limit", "{fam}", "--tol", "abc"], None, 1, "err",
     "error: --tol is not a number: 'abc'"),
    ("limit-slh", ["limit", "{slh}"], None, 1, "err", "error: limit needs a family file"),
    ("limit-emit-not-decoupled", ["limit", "{coupled}", "--emit", "{tmp}/slow.json"],
     None, 0, "out", "not decoupled; no slow model written"),
    ("limit-study-slope", ["limit", "{fam}", "--study", "100,1000,10000"], None, 0, "out",
     "log-log slope: -1.000"),
    ("compose-family", ["compose", "{fam}", "{slh}", "--out", "{tmp}/c.json"], None, 1, "err",
     "error: compose needs two slh model files"),
    ("zoo-param-without-equals", ["zoo", "thermal_qubit", "gamma"], None, 1, "err",
     "error: parameters look like name=value, got 'gamma'"),
    ("zoo-negative-gamma", ["zoo", "linear_passive", "gamma=-1"], None, 1, "err",
     "error: gamma must be positive, got -1.0"),
    # K = -L*L/2 - iH overflows to inf: refused like a singular generator
    ("eval-overflow-s", ["eval", "{huge}", "--s", "1"], None, 2, "err",
     "error: all grid points singular"),
    ("eval-overflow-sweep", ["eval", "{huge}", "--sweep", "-1:1:3"], None, 2, "err",
     "error: all grid points singular"),
    ("eval-overflow-stratonovich", ["eval", "{huge}", "--method", "stratonovich", "--s", "1"],
     None, 2, "err", "error: all grid points singular"),
    ("eval-overflow-allpass", ["eval", "{huge}", "--method", "allpass", "--sweep", "-1:1:3"],
     None, 2, "err", "error: all grid points singular", "evaluated 3 point(s), 3 singular"),
    ("compose-overflow", ["compose", "{huge}", "{huge}", "--out", "{tmp}/c.json"], None, 2, "err",
     "error: series product overflowed: H contains non-finite entries"),
    # a family whose K(k) overflows fails its assumptions before the study runs
    ("limit-overflow-study", ["limit", "{huge_fam}", "--study", "10,100"], None, 1, "out",
     "  the generator K(k) overflows: K identity residual not finite (R_ss)",
     "assumptions: FAIL"),
    ("check-overflow-family", ["check", "{huge_fam}"], None, 1, "out", "FAIL",
     "K identity R_ss: nan"),
    # a PASS holds downstream: check fails the slh file whose K eval refuses
    ("check-overflow-slh", ["check", "{huge}"], None, 1, "out", "FAIL",
     "  the generator K = -L*L/2 - iH overflows: K is not finite"),
    # the slow model of lambda_system has a pole at s = 0: the limit pencil is singular
    ("limit-study-singular", ["limit", "{fam}", "--study", "10,100", "--s", "0"], None, 2,
     "err", "error: convergence study failed: (s - K(k)) not invertible at k = inf"),
]


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    """An slh, family and Stratonovich file, a family that the limit does not
    decouple, a model with S = -I exactly, which has no Stratonovich form, the
    lossless model at phase pi, whose S is -I up to rounding, two models with
    an eigenvalue of S at 1e-3 and 1e-4 from -1, a model that fails check
    (S = 2, H = i), an slh model
    whose L entries of 1e160 overflow K and fail check, and a family whose
    L0 entries of 1e160 overflow K(k) and fail check; then two files that are
    not model text: bytes that are not UTF-8, and arrays nested 200,000 deep."""
    tmp = tmp_path_factory.mktemp("cli")
    cavity = zoo.build("linear_passive", n_max=2)
    two_level = zoo.build("detuned_two_level")
    objects = {
        "slh": zoo.build("thermal_qubit"),
        "fam": zoo.build("lambda_system", n_max=2),
        "strat": ito_to_stratonovich(zoo.build("thermal_qubit")),
        "coupled": random_family(np.random.default_rng(5), 1, 1, 2),
        "minus": SLHModel(S=-identity(2), L=np.zeros((2, 2)), H=np.diag([0.0, 1.0])),
        "near_minus": zoo.build("lossless", phase=np.pi),
        "minus_delta3": near_minus_one_model(1e-3),
        "minus_delta4": near_minus_one_model(1e-4),
        "invalid": SLHModel(S=[[2.0]], L=[[1.0]], H=[[1j]]),
        "huge": SLHModel(S=cavity.S, L=cavity.L * 1e160, H=cavity.H),
        "huge_fam": dataclasses.replace(two_level, L0=two_level.L0 * 1e160),
    }
    paths = {"tmp": str(tmp), "missing": str(tmp / "missing")}
    for name, obj in objects.items():
        paths[name] = str(tmp / f"{name}.json")
        modelfile.write_model(paths[name], obj)
    deep = "[" * 200_000 + "]" * 200_000
    for name, data in (("not_utf8", b"\xff\xfe\x00{"),
                       ("too_deep", f'{{"kind":"slh","x":{deep}}}'.encode())):
        paths[name] = str(tmp / f"{name}.json")
        Path(paths[name]).write_bytes(data)
    return paths


def _branch(name, args, tol_env, code, stream, message, stdout=None):
    return pytest.param(args, tol_env, code, stream, message, stdout, id=name)


@pytest.mark.parametrize("args,tol_env,code,stream,message,stdout",
                         [_branch(*case) for case in _CLI_BRANCHES])
def test_cli_branches(cli_files, monkeypatch, args, tol_env, code, stream, message, stdout):
    if tol_env is not None:
        monkeypatch.setenv("SLHKIT_TOL", tol_env)
    res = CliRunner().invoke(main, [arg.format(**cli_files) for arg in args])
    assert res.exit_code == code, res.output
    assert "Traceback" not in res.output
    message = message.format(**cli_files)
    if stream == "err":
        assert isinstance(res.exception, SystemExit)
        assert len(res.stderr.splitlines()) == 1, res.stderr
        assert res.stderr.startswith("error: ")
        assert res.stderr.startswith(message)
    else:
        assert res.stderr == ""
        if code:
            assert isinstance(res.exception, SystemExit)
        else:
            assert res.exception is None
        assert message in res.stdout.splitlines()
    if stdout is not None:  # a line the command prints before its verdict or refusal
        assert stdout in res.stdout.splitlines()


@pytest.mark.parametrize("args", [
    ["eval"],                                  # missing PATH
    ["eval", "{slh}", "--axis", "bogus"],      # not a choice
    ["eval", "{slh}", "--bogus"],              # unknown option
    ["nosuchcmd"],                             # unknown command
    ["limit", "{fam}", "--study"],             # option without its value
    ["--bogus"],                               # unknown option of slhkit itself
], ids=["missing-path", "bad-choice", "unknown-option", "unknown-command", "no-value",
        "unknown-main-option"])
def test_cli_usage_errors_exit_one(cli_files, args):
    # click's own usage text, with the exit code of slhkit's argument refusals
    res = CliRunner().invoke(main, [arg.format(**cli_files) for arg in args])
    assert res.exit_code == 1, res.output
    assert isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output
    assert res.stdout == ""
    assert res.stderr.splitlines()[-1].startswith("Error: ")
