"""Per-layer spans recorded from outside slhkit.

Wrappers replace slhkit's public layer functions at every place they are
bound.  ``cli`` imports ``sweep``, ``char_op`` and ``series_product`` by name,
and several modules import ``inverse`` by name, so patching only the defining
module would miss those calls: every ``slhkit.*`` module attribute that *is*
the original function gets the wrapper.  The root span of each CLI command
wraps the click command's callback.

Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time


def _count_inverse(args, kwargs, result, exc):
    n = len(args[0])
    # Complex LU costs 4 * (2/3) n^3 real flops; forming the inverse from
    # the factors (n right-hand sides, two triangular solves each) adds
    # 4 * 2 n^3.  A refused matrix stops after the LU.
    flops = 4 * (2 / 3) * n ** 3 + (0 if exc else 4 * 2 * n ** 3)
    return {"raised": int(exc is not None), "gflop_computed": flops / 1e9}


def _count_sweep(args, kwargs, result, exc):
    return {"points": len(args[1].points),
            "points_singular": result.n_failed if result is not None else 0}


def _count_csv_rows(args, kwargs, result, exc):
    s_values, n_inputs, dim = args[1], args[4], args[5]
    return {"rows": len(s_values) * (n_inputs * dim) ** 2}


def _count_loads(args, kwargs, result, exc):
    return {"mb": len(args[0]) / 1e6}


def _count_dumps(args, kwargs, result, exc):
    return {"mb": len(result) / 1e6 if result is not None else 0.0}


# (defining module, function, span name, counter or None)
LAYERS = (
    ("slhkit.operators", "inverse", "operators.inverse", _count_inverse),
    ("slhkit.characteristic", "char_op", "characteristic.char_op", None),
    ("slhkit.characteristic", "sweep", "characteristic.sweep", _count_sweep),
    ("slhkit.modelfile", "write_sweep_csv", "modelfile.write_sweep_csv", _count_csv_rows),
    ("slhkit.modelfile", "loads", "modelfile.loads", _count_loads),
    ("slhkit.modelfile", "dumps", "modelfile.dumps", _count_dumps),
    ("slhkit.adiabatic", "check_assumptions", "adiabatic.check_assumptions", None),
    ("slhkit.adiabatic", "limit_slh", "adiabatic.limit_slh", None),
    ("slhkit.adiabatic", "convergence_study", "adiabatic.convergence_study", None),
    ("slhkit.model", "series_product", "model.series_product", None),
    ("slhkit.zoo", "build", "zoo.build", None),
    ("slhkit.svgplot", "magnitude_phase_svg", "svgplot.magnitude_phase_svg", None),
)


class Tracer:
    """Records spans [name, start, end, parent index, job id, counts]."""

    def __init__(self):
        self.spans = []
        self.job = None
        self._stack = []
        self._sites = self._find_sites()

    def _wrap(self, name, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None,
                    self.job, {}]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            result = exc = None
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
                if count is not None:
                    span[5] = count(args, kwargs, result, exc)
        return traced

    def _find_sites(self):
        """(owner, attribute, original, wrapper) for every binding to patch."""
        modules = [m for name, m in sys.modules.items()
                   if name == "slhkit" or name.startswith("slhkit.")]
        sites = []
        for mod_name, attr, span_name, count in LAYERS:
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(span_name, original, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        sites.append((mod, key, original, wrapper))
        for cmd_name, cmd in sys.modules["slhkit.cli"].main.commands.items():
            sites.append((cmd, "callback", cmd.callback,
                          self._wrap(f"cli.{cmd_name}", cmd.callback, None)))
        return sites

    def begin(self, job_id):
        self.job = job_id
        for owner, key, _, wrapper in self._sites:
            setattr(owner, key, wrapper)

    def end(self):
        for owner, key, original, _ in self._sites:
            setattr(owner, key, original)
        self.job = None

    def totals(self):
        """name -> {"calls", "busy_s", "self_s", and summed counts}."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = {}
        for i, (name, start, end, _, _, counts) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["busy_s"] += end - start
            agg["self_s"] += end - start - child_time[i]
            for key, value in counts.items():
                agg[key] = agg.get(key, 0) + value
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, job, counts in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "job": job,
                                     "counts": counts}) + "\n")
