"""The command-line contract at any magnitude.

Every zoo entry at a small size, and one seeded random model and family,
has each non-S field scaled by 10^e alone and then every non-S field
together.  Each file runs through every command: the exit code is one of
0/1/2/3, a refusal is one ``error:`` line on stderr, a failed verdict is a
FAIL line on stdout, nothing prints a traceback, and an slh file that
``check`` passes, the slow model that ``limit --emit`` writes included,
reaches a per-point verdict in ``eval``.
"""

import dataclasses

import numpy as np
import pytest
from click.testing import CliRunner

from slhkit import SLHModel, modelfile, zoo
from slhkit.characteristic import METHODS
from slhkit.cli import main
from conftest import random_family, random_model

_SMALL = {"linear_passive": {"n_max": 2}, "optomech": {"n_max_cavity": 1, "n_max_mirror": 1},
          "kerr_qubit": {"n_max": 2}, "lambda_system": {"n_max": 2}}
_SEED = np.random.default_rng(20240817)
_MODELS = {name: zoo.build(name, **_SMALL.get(name, {})) for name in zoo.names()}
_MODELS["random_slh"] = random_model(_SEED, 2, 2)
_MODELS["random_family"] = random_family(_SEED, 1, 1, 2)
_EXPONENTS = (154, 155, 160, 300)  # and e = 0 once, with the "all" scaling


def _cases():
    for name, obj in _MODELS.items():
        fields = [f for f in obj.MATRIX_FIELDS if f != "S" and np.any(getattr(obj, f))]
        for scaled in [*fields, "all"]:
            yield pytest.param(name, scaled, id=f"{name}-{scaled}")


def _scaled(obj, scaled, e):
    fields = [f for f in obj.MATRIX_FIELDS if f != "S"] if scaled == "all" else [scaled]
    return dataclasses.replace(obj, **{f: getattr(obj, f) * 10.0 ** e for f in fields})


def _invoke(args):
    res = CliRunner().invoke(main, args)
    where = f"{args}: exit {res.exit_code}\n{res.output}"
    assert res.exit_code in (0, 1, 2, 3), where
    assert res.exception is None or isinstance(res.exception, SystemExit), where
    assert "Traceback" not in res.output, where
    if res.stderr:  # a refusal
        assert res.exit_code and len(res.stderr.splitlines()) == 1, where
        assert res.stderr.startswith("error: "), where
    elif res.exit_code:  # a failed verdict
        assert any(line.endswith("FAIL") for line in res.stdout.splitlines()), where
    return res


@pytest.mark.parametrize("name,scaled", _cases())
def test_cli_contract_at_every_magnitude(tmp_path, name, scaled):
    obj = _MODELS[name]
    for e in ((0,) if scaled == "all" else ()) + _EXPONENTS:
        path = str(tmp_path / f"{e}.json")
        modelfile.write_model(path, _scaled(obj, scaled, e))
        check = _invoke(["check", path])
        point = _invoke(["eval", path, "--s", "1"])
        for method in METHODS:
            _invoke(["eval", path, "--sweep", "-1:1:3", "--method", method])
        _invoke(["compose", path, path, "--out", str(tmp_path / "c.json")])
        if isinstance(obj, SLHModel) and check.exit_code == 0:
            _assert_reaches_a_point(point, e)
        if not isinstance(obj, SLHModel):
            slow = tmp_path / f"{e}_slow.json"
            _invoke(["limit", path])
            _invoke(["limit", path, "--emit", str(slow)])
            if slow.exists() and _invoke(["check", str(slow)]).exit_code == 0:
                _assert_reaches_a_point(_invoke(["eval", str(slow), "--s", "1"]), e)
            _invoke(["limit", path, "--study", "10,100"])


def _assert_reaches_a_point(res, e):
    # a check PASS holds downstream: eval reaches a verdict at the point
    assert res.stdout.startswith("evaluated 1 point(s), "), (e, res.output)
    assert res.stderr in ("", "error: all grid points singular\n"), (e, res.output)
