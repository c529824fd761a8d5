"""Command-line front end.

Commands: check, eval, limit, compose, zoo.  Exit codes are part of the
contract: 0 success, 1 validation or assumption failure (and usage errors),
2 numerical failure, 3 I/O failure.  Every refusal is a ``_Refusal``: one
``error:`` line on stderr and its exit code.  The default tolerance
(``operators.DEFAULT_TOL``) can be overridden with SLHKIT_TOL or per-command --tol.
"""

from __future__ import annotations

import os
import sys

import click
import numpy as np

from . import adiabatic, modelfile, operators, svgplot, zoo
from .adiabatic import ScaledSLHFamily
from .characteristic import (
    FrequencyGrid,
    char_op,
    char_op_allpass,
    char_op_stratonovich,
    sweep,
)
from .errors import BadParam, ShapeError, SingularMatrix, SlhkitError
from .model import SLHModel, series_product, validate
from .stratonovich import (
    StratonovichCoefficients,
    ito_to_stratonovich,
    stratonovich_to_ito,
)

EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3


class _Refusal(click.ClickException):
    """Every refusal slhkit makes: one ``error: <message>`` line on stderr, then ``code``."""

    def __init__(self, message: str, code: int = EXIT_VALIDATION):
        super().__init__(message)
        self.exit_code = code

    def show(self, file=None):
        click.echo(f"error: {self.format_message()}", err=True)


class _Main(click.Group):
    """Click's usage errors keep their text but exit 1, like slhkit's own refusals."""

    def make_context(self, *args, **kwargs):
        try:
            return super().make_context(*args, **kwargs)
        except click.UsageError as exc:  # e.g. an unknown option of slhkit itself
            exc.exit_code = EXIT_VALIDATION
            raise

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except click.UsageError as exc:  # an unknown command or a command's bad arguments
            exc.exit_code = EXIT_VALIDATION
            raise


def _resolve_tol(tol) -> float:
    """--tol, else SLHKIT_TOL, else DEFAULT_TOL; refused unless finite and >= 0."""
    source, raw = "--tol", tol
    if tol is None:
        source, raw = "SLHKIT_TOL", os.environ.get("SLHKIT_TOL", operators.DEFAULT_TOL)
    try:
        tol = float(raw)
    except ValueError:
        raise _Refusal(f"{source} is not a number: {raw!r}")
    if not (np.isfinite(tol) and tol >= 0):
        raise _Refusal(f"{source} must be finite and >= 0, got {tol:g}")
    return tol


def _read(path):
    try:
        return modelfile.read_model(path)
    except OSError as exc:
        raise _Refusal(f"cannot read {path}: {exc}", EXIT_IO)
    except SlhkitError as exc:  # parse errors and invalid matrices or partitions
        raise _Refusal(f"{path}: {exc}")


def _write_text(path, text):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _Refusal(f"cannot write {path}: {exc}", EXIT_IO)


def _parse_complex(text: str, what: str) -> complex:
    parts = text.split(",")
    try:
        if len(parts) <= 2:
            z = complex(*(float(p) for p in parts))
            if np.isfinite(z):
                return z
    except ValueError:
        pass
    raise _Refusal(f"cannot parse {what} {text!r}; use 're' or 're,im'")


@click.group(cls=_Main)
def main():
    """Characteristic operators of quantum input-plant-output models."""


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


@main.command("check")
@click.argument("path")
@click.option("--tol", default=None, help="validation tolerance")
def cmd_check(path, tol):
    """Validate a model file; families also get an assumption report."""
    tol = _resolve_tol(tol)
    obj = _read(path)
    failed = False
    if isinstance(obj, SLHModel):
        report = validate(obj, tol)
        click.echo(f"kind: slh  n_inputs={obj.n_inputs} dim={obj.dim}")
        click.echo(f"S unitarity residual:  {report.s_unitarity:.3e}")
        click.echo(f"H Hermiticity residual: {report.h_hermiticity:.3e}")
        for msg in report.messages:
            click.echo(f"  {msg}")
        failed = not report.passed(tol)
    elif isinstance(obj, ScaledSLHFamily):
        report = adiabatic.check_assumptions(obj)
        click.echo(f"kind: family  n_inputs={obj.n_inputs} dim={obj.dim} "
                   f"slow={list(obj.partition.slow_indices)}")
        for name, val in report.structural.items():
            click.echo(f"structure {name}: {val:.3e}")
        for name, val in report.hermiticity.items():
            click.echo(f"hermiticity {name}: {val:.3e}")
        click.echo(f"S unitarity residual: {report.s_unitarity:.3e}")
        click.echo(f"A_ff condition estimate: {report.aff_condition:.3e} "
                   f"(invertible: {report.aff_invertible})")
        for name, val in report.k_identity_residuals.items():
            click.echo(f"K identity {name}: {val:.3e}")
        failed = not report.passed(tol)
    elif isinstance(obj, StratonovichCoefficients):
        res = obj.hermiticity_residual()
        click.echo(f"kind: stratonovich  n_inputs={obj.n_inputs} dim={obj.dim}")
        click.echo(f"Hermiticity residual: {res:.3e}")
        failed = res > tol
    click.echo("FAIL" if failed else "PASS")
    if failed:
        sys.exit(EXIT_VALIDATION)


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


@main.command("eval")
@click.argument("path")
@click.option("--s", "s_point", default=None, help="single point 're,im'")
@click.option("--sweep", "sweep_spec", default=None, help="grid 'min:max:count'")
@click.option("--axis", type=click.Choice(["imaginary", "real"]), default="imaginary")
@click.option("--method", type=click.Choice(["direct", "allpass", "stratonovich"]),
              default="direct")
@click.option("--out", "out_path", default=None, help="CSV output path")
@click.option("--plot", "plot_path", default=None, help="SVG output path")
@click.option("--entry", "entry_spec", default="0,0",
              help="row,col of the full-matrix entry traced in the plot; "
                   "without --out only this entry is evaluated")
def cmd_eval(path, s_point, sweep_spec, axis, method, out_path, plot_path, entry_spec):
    """Evaluate the characteristic operator over a point or a grid."""
    obj = _read(path)
    if isinstance(obj, StratonovichCoefficients):
        try:
            model = stratonovich_to_ito(obj)
        except SlhkitError as exc:  # e.g. E00 not Hermitian
            raise _Refusal(f"{path}: {exc}")
    elif isinstance(obj, SLHModel):
        model = obj
    else:
        raise _Refusal("eval needs an slh or stratonovich file; use 'limit' for families")
    nm = model.n_inputs * model.dim
    try:
        r, c = (int(v) for v in entry_spec.split(","))
    except ValueError:
        raise _Refusal("--entry must be 'row,col'")
    if not (0 <= r < nm and 0 <= c < nm):
        raise _Refusal(f"--entry out of range for a {nm}x{nm} matrix")

    if (s_point is None) == (sweep_spec is None):
        raise _Refusal("give exactly one of --s or --sweep")
    # a plot alone forms only its traced entry; a CSV needs every entry
    selection = {"rows": [r], "cols": [c]} if plot_path and not out_path else {}
    if s_point is not None:
        # one arbitrary complex point, evaluated outside the grid machinery
        if plot_path:
            raise _Refusal("--plot needs a --sweep grid")
        z = _parse_complex(s_point, "--s")
        evaluators = {
            "direct": lambda s: char_op(model, s),
            "allpass": lambda s: char_op_allpass(model, s),
            "stratonovich": lambda s: char_op_stratonovich(
                ito_to_stratonovich(model), s),
        }
        try:
            matrices = [evaluators[method](z).data]
            statuses = ["ok"]
        except SingularMatrix as exc:
            matrices = [None]
            statuses = [str(exc)]
        except SlhkitError as exc:  # e.g. no Stratonovich form exists
            raise _Refusal(str(exc), EXIT_NUMERICAL)
        s_values = [z]
        grid_points = [z]
    else:
        try:
            lo, hi, count = sweep_spec.split(":")
            lo, hi, count = float(lo), float(hi), int(count)
        except ValueError:
            raise _Refusal("--sweep must be 'min:max:count'")
        if count < 1:
            raise _Refusal("--sweep count must be >= 1")
        if not np.isfinite(hi - lo):  # inf or nan for non-finite bounds too
            raise _Refusal("--sweep min, max and max - min must be finite")
        try:
            grid = FrequencyGrid(axis=axis, points=np.linspace(lo, hi, count))
            result = sweep(model, grid, method=method, **selection)
        except ShapeError as exc:
            raise _Refusal(str(exc))
        except SlhkitError as exc:
            raise _Refusal(str(exc), EXIT_NUMERICAL)
        s_values, matrices, statuses = modelfile.from_sweep_result(result)
        grid_points = list(grid.points)

    n_ok = sum(1 for v in matrices if v is not None)
    click.echo(f"evaluated {len(s_values)} point(s), "
               f"{len(s_values) - n_ok} singular")
    if out_path:
        try:
            modelfile.write_sweep_csv(out_path, s_values, matrices, statuses,
                                      model.n_inputs, model.dim)
        except OSError as exc:
            raise _Refusal(f"cannot write {out_path}: {exc}", EXIT_IO)
        click.echo(f"wrote {out_path}")
    if plot_path:
        at = (0, 0) if selection else (r, c)
        vals = [v[at] if v is not None else complex("nan") for v in matrices]
        _write_text(plot_path, svgplot.magnitude_phase_svg(
            grid_points, vals,
            x_label="omega" if axis == "imaginary" else "s"))
        click.echo(f"wrote {plot_path}")
    if n_ok == 0:
        raise _Refusal("all grid points singular", EXIT_NUMERICAL)


# ---------------------------------------------------------------------------
# limit
# ---------------------------------------------------------------------------


@main.command("limit")
@click.argument("path")
@click.option("--emit", "emit_path", default=None,
              help="write the reduced slow model here when decoupled")
@click.option("--study", "study_spec", default=None,
              help="comma-separated k values, each finite and > 0, for a "
                   "convergence study; the study checks the family at the "
                   "default tolerance 1e-9, whatever --tol is")
@click.option("--s", "s_point", default="1,0", help="evaluation point 're,im'")
@click.option("--tol", default=None,
              help="tolerance of the assumption report and the limit model")
def cmd_limit(path, emit_path, study_spec, s_point, tol):
    """Assumption report, limit model, decoupling verdict for a family file."""
    tol = _resolve_tol(tol)
    obj = _read(path)
    if not isinstance(obj, ScaledSLHFamily):
        raise _Refusal("limit needs a family file")
    s = _parse_complex(s_point, "--s")
    try:
        ks = [float(v) for v in study_spec.split(",") if v] if study_spec else []
    except ValueError:
        raise _Refusal("--study must be comma-separated numbers")
    report = adiabatic.check_assumptions(obj)
    click.echo(f"assumptions: {'PASS' if report.passed(tol) else 'FAIL'}")
    for name, val in report.structural.items():
        click.echo(f"  structure {name}: {val:.3e}")
    click.echo(f"  A_ff condition estimate: {report.aff_condition:.3e}")
    if not report.passed(tol):
        sys.exit(EXIT_VALIDATION)

    limit = adiabatic.limit_slh(obj, tol)
    click.echo(f"Shat unitarity residual: {limit.shat_unitarity:.3e}")
    click.echo(f"Hhat form agreement:     {limit.hhat_alt_residual:.3e}")
    click.echo(f"decoupling residual:     {limit.decoupling_residual:.3e}")
    click.echo(f"decoupled: {limit.decoupled}")
    if limit.decoupled and emit_path:
        _write_text(emit_path, modelfile.dumps(limit.slow_model))
        click.echo(f"wrote reduced slow model to {emit_path}")
    elif emit_path:
        click.echo("not decoupled; no slow model written")

    if study_spec:
        try:
            study = adiabatic.convergence_study(obj, s, ks)
        except SlhkitError as exc:  # the study re-checks the family at 1e-9
            raise _Refusal(f"convergence study failed: {exc}",
                           EXIT_NUMERICAL if isinstance(exc, SingularMatrix)
                           else EXIT_VALIDATION)
        click.echo("k, error")
        for k, err in study.rows():
            click.echo(f"{k:g}, {err:.6e}")
        if study.slope is not None:
            click.echo(f"log-log slope: {study.slope:.3f}")
        else:
            click.echo("log-log slope: not fitted (need >= 3 points with k >= 100)")


# ---------------------------------------------------------------------------
# compose
# ---------------------------------------------------------------------------


@main.command("compose")
@click.argument("downstream_path")
@click.argument("upstream_path")
@click.option("--out", "out_path", required=True)
def cmd_compose(downstream_path, upstream_path, out_path):
    """Series product: feed the upstream model's output into the downstream."""
    B = _read(downstream_path)
    A = _read(upstream_path)
    if not isinstance(B, SLHModel) or not isinstance(A, SLHModel):
        raise _Refusal("compose needs two slh model files")
    try:
        composed = series_product(B, A)
    except ShapeError as exc:
        raise _Refusal(str(exc))
    _write_text(out_path, modelfile.dumps(composed))
    click.echo(f"wrote {out_path} (n_inputs={composed.n_inputs}, dim={composed.dim})")


# ---------------------------------------------------------------------------
# zoo
# ---------------------------------------------------------------------------

_PARAM_ALIASES = {
    "γ": "gamma", "ω": "omega", "ω0": "omega0",
    "κ": "kappa", "κ1": "kappa1", "κ2": "kappa2", "κ3": "kappa3",
    "Δ": "delta", "α": "alpha", "β": "beta",
    "\U0001d5c0": "g", "χ0": "chi0",
    "φ+": "phi_plus", "φ-": "phi_minus",
}


@main.command("zoo")
@click.argument("name")
@click.argument("params", nargs=-1)
@click.option("--out", "out_path", default=None)
def cmd_zoo(name, params, out_path):
    """Emit a built-in model; 'zoo list' prints the available entries."""
    if name == "list":
        for entry_name in zoo.names():
            e = zoo.entry(entry_name)
            click.echo(f"{entry_name:20s} [{e.kind:6s}] {e.summary}")
        return
    try:
        defaults = zoo.entry(name).defaults
    except BadParam as exc:
        raise _Refusal(str(exc))
    kwargs = {}
    for raw in params:
        if "=" not in raw:
            raise _Refusal(f"parameters look like name=value, got {raw!r}")
        key, value = raw.split("=", 1)
        key = _PARAM_ALIASES.get(key, key)
        # a value takes the type of its default; zoo.build refuses unknown names
        typ = type(defaults.get(key, 0.0))
        try:
            if typ is complex:
                kwargs[key] = _parse_complex(value, key)
            elif typ in (int, float):
                kwargs[key] = typ(value)
            else:  # e.g. slow_indices, which only Python callers set
                raise ValueError(key)
        except (ValueError, _Refusal):
            raise _Refusal(f"cannot parse value for {key}: {value!r}")
    try:
        obj = zoo.build(name, **kwargs)
    except SlhkitError as exc:
        raise _Refusal(str(exc))
    text = modelfile.dumps(obj)
    if out_path:
        _write_text(out_path, text)
        click.echo(f"wrote {out_path}")
    else:
        click.echo(text, nl=False)


if __name__ == "__main__":
    main()
