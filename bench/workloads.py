"""The three benchmark workloads: seeded job lists, CLI commands and checks.

Every job is a fixed sequence of ``slhkit`` CLI commands.  The seed fixes
the whole job list, and every job in a workload has the same problem sizes,
so job cost stays uniform and two seeds give jobs of equal cost.

``check`` runs after each job, outside its timer, and returns an error
message or None.  A job with ``sample`` set keeps its output files for
``deep_check``, which runs after the timed loop and compares them with the
numpy references in ``reference.py``.
"""

from __future__ import annotations

import math
import os
import random
import re
import shutil
from dataclasses import dataclass

import numpy as np

import reference

SAMPLE_EVERY = 10  # every tenth job, from the first timed one, gets the reference check
SWEEP_HEADER = "s_re,s_im,block_row,block_col,entry_row,entry_col,re,im,status"


@dataclass
class Job:
    index: int
    params: dict
    sample: bool
    commands: list


def _num(x: float) -> str:
    return f"{x:.6f}"


def _grid(w: str, count: int) -> str:
    # An odd grid symmetric about 0 always hits s = 0, which lies on the
    # spectrum of K (the joint vacuum), so each sweep has one singular point.
    return f"-{w}:{w}:{count}"


class Workload:
    name = ""
    keep_files = ()

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.rng = random.Random(f"{self.name}/{seed}")
        self.count = 0

    def path(self, name):
        return os.path.join(self.workdir, name)

    def setup(self, run_cli):
        """Make the input pool; run_cli(argv) -> (exit code, stdout, stderr)."""

    def next_job(self) -> Job:
        params = self.draw(self.rng)
        job = Job(index=self.count, params=params, sample=self.count % SAMPLE_EVERY == 1,
                  commands=self.commands(params))
        self.count += 1
        return job

    def keep(self, job, keep_root):
        dest = os.path.join(keep_root, str(job.index))
        os.makedirs(dest)
        for name in self.keep_files:
            shutil.copy(self.path(name), dest)
        return dest

    def deep_check(self, job, kept_dir):
        return None


def _expect_line(stdout, line):
    return None if line in stdout.splitlines() else f"stdout lacks {line!r}"


# ---------------------------------------------------------------------------
# sweep-plot: resolvent-bound sweeps of a 121-state optomechanical model.
# ---------------------------------------------------------------------------


class SweepPlot(Workload):
    name = "sweep-plot"
    keep_files = ("f.svg",)
    POOL = 6
    N_MAX = 10       # n_max_cavity = n_max_mirror, so m = 11 * 11 = 121
    POINTS = 71

    def setup(self, run_cli):
        self.pool = []
        self.pool_ref = {}  # parsed pool models, filled by deep_check
        for i in range(self.POOL):
            delta, g = self.rng.uniform(-1, 1), self.rng.uniform(0.1, 0.4)
            path = self.path(f"om{i}.json")
            code, out, err = run_cli(
                ["zoo", "optomech", f"n_max_cavity={self.N_MAX}",
                 f"n_max_mirror={self.N_MAX}", f"delta={_num(delta)}",
                 f"g={_num(g)}", "--out", path])
            if code != 0:
                raise RuntimeError(f"pool model {i}: exit {code}: {err.strip()}")
            self.pool.append(path)

    def draw(self, rng):
        # Diagonal entries of cavity levels below the cutoff: off-diagonal
        # entries between photon-number sectors are identically zero, and
        # the top cavity level's entries are constant, which leaves the
        # plot with no scale to check.
        level, mirror = rng.randrange(self.N_MAX), rng.randrange(self.N_MAX + 1)
        entry = level * (self.N_MAX + 1) + mirror
        return {"model": rng.randrange(self.POOL), "w": _num(rng.uniform(2, 4)),
                "entry": entry}

    def commands(self, p):
        return [["eval", self.pool[p["model"]], "--sweep", _grid(p["w"], self.POINTS),
                 "--plot", self.path("f.svg"), "--entry", f"{p['entry']},{p['entry']}"]]

    def sizes(self):
        m = (self.N_MAX + 1) ** 2
        return {"m": m, "n": 1, "points": self.POINTS, "pool_models": self.POOL}

    def check(self, job, outputs):
        return _expect_line(outputs[0][1], f"evaluated {self.POINTS} point(s), 1 singular")

    def deep_check(self, job, kept_dir):
        p = job.params
        if p["model"] not in self.pool_ref:
            self.pool_ref[p["model"]] = reference.read_slh(self.pool[p["model"]])
        S, L, H = self.pool_ref[p["model"]]
        w = float(p["w"])
        xs = np.linspace(-w, w, self.POINTS)
        r = p["entry"]
        vals = [complex("nan") if abs(x) < 1e-12 else reference.char_op(S, L, H, 1j * x, r)[r]
                for x in xs]
        got = reference.svg_polylines(os.path.join(kept_dir, "f.svg"))
        want = reference.magnitude_phase_pixels(xs, vals)
        if len(got) != 2:
            return f"plot has {len(got)} polylines, expected 2"
        for panel, g, e in zip(("magnitude", "phase"), got, want):
            if g.shape != e.shape:
                return f"{panel} polyline has {len(g)} points, expected {len(e)}"
            err = float(np.max(np.abs(g - e)))
            if err > 0.01:
                return f"{panel} polyline is {err:.3g} px off the numpy reference"
        return None


# ---------------------------------------------------------------------------
# sweep-csv: zoo -> compose -> eval to a 83,025-row CSV.
# ---------------------------------------------------------------------------


class SweepCsv(Workload):
    name = "sweep-csv"
    keep_files = ("cascade.json", "f.csv")
    M = 45           # optomech (3 x 5 states) after a 3-state cavity
    POINTS = 41
    ROWS = POINTS * M * M

    def draw(self, rng):
        return {"opto_gamma": _num(rng.uniform(0.5, 1.5)),
                "opto_delta": _num(rng.uniform(-1, 1)),
                "opto_g": _num(rng.uniform(0.1, 0.4)),
                "cav_gamma": _num(rng.uniform(0.5, 1.5)),
                "cav_delta": _num(rng.uniform(-1, 1)),
                "w": _num(rng.uniform(2, 4))}

    def commands(self, p):
        opto, cav, cascade = self.path("opto.json"), self.path("cav.json"), self.path("cascade.json")
        return [
            ["zoo", "optomech", "n_max_cavity=2", "n_max_mirror=4",
             f"gamma={p['opto_gamma']}", f"delta={p['opto_delta']}",
             f"g={p['opto_g']}", "--out", opto],
            ["zoo", "linear_passive", "n_max=2", f"gamma={p['cav_gamma']}",
             f"delta={p['cav_delta']}", "--out", cav],
            ["compose", opto, cav, "--out", cascade],
            ["eval", cascade, "--sweep", _grid(p["w"], self.POINTS),
             "--out", self.path("f.csv")],
        ]

    def sizes(self):
        return {"m": self.M, "n": 1, "points": self.POINTS, "csv_rows": self.ROWS}

    def check(self, job, outputs):
        error = (_expect_line(outputs[2][1], f"wrote {self.path('cascade.json')} "
                                            f"(n_inputs=1, dim={self.M})")
                 or _expect_line(outputs[3][1],
                                 f"evaluated {self.POINTS} point(s), 1 singular"))
        if error:
            return error
        with open(self.path("f.csv"), encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n")
            rows = sum(1 for _ in fh)
        if header != SWEEP_HEADER:
            return f"CSV header is {header!r}"
        if rows != self.ROWS:
            return f"CSV has {rows} rows, expected {self.ROWS}"
        return None

    def deep_check(self, job, kept_dir):
        S, L, H = reference.read_slh(os.path.join(kept_dir, "cascade.json"))
        w = float(job.params["w"])
        xs = np.linspace(-w, w, self.POINTS)
        with open(os.path.join(kept_dir, "f.csv"), encoding="utf-8") as fh:
            cells = [line.split(",") for line in fh.read().splitlines()[1:]]
        if any(len(c) != 9 for c in cells):
            return "CSV rows without 9 fields"
        cols = list(zip(*cells))
        s_re, s_im, re_, im_ = (np.array([float(v) for v in cols[i]]) for i in (0, 1, 6, 7))
        idx = np.array([[int(v) for v in cols[i]] for i in range(2, 6)])
        block = self.M * self.M
        point = np.repeat(np.arange(self.POINTS), block)
        if np.any(s_re != 0.0) or np.any(s_im != xs[point]):
            return "CSV rows carry the wrong s"
        if np.any(idx[:2] != 0) or np.any(idx[2] * self.M + idx[3] != np.tile(
                np.arange(block), self.POINTS)):
            return "CSV rows out of order"
        singular = self.POINTS // 2
        at_zero = point == singular
        if np.any(np.array([v == "ok" for v in cols[8]]) == at_zero):
            return "status is not ok exactly on the s = 0 rows"
        if not (np.all(np.isnan(re_[at_zero])) and np.all(np.isnan(im_[at_zero]))):
            return "rows at s = 0 are not nan"
        T = (re_ + 1j * im_).reshape(self.POINTS, self.M, self.M)
        for k in range(self.POINTS):
            if k == singular:
                continue
            err = float(np.max(np.abs(T[k] - reference.char_op(S, L, H, 1j * xs[k]))))
            if err > 1e-9:
                return f"grid point {k}: {err:.3g} off the numpy reference"
            res = reference.unitarity_residual(T[k])
            if res > 1e-9:
                return f"grid point {k}: unitarity residual {res:.3g}"
        return None


# ---------------------------------------------------------------------------
# limit-study: model-file I/O beside the adiabatic layer.
# ---------------------------------------------------------------------------


class LimitStudy(Workload):
    name = "limit-study"
    N_MAX = 40       # m = 3 * 41
    KS = ",".join(f"{k:.6g}" for k in np.logspace(1, 4, 13))
    _SLOPE = re.compile(r"^log-log slope: (\S+)$", re.M)

    def draw(self, rng):
        a, phase = rng.uniform(0.3, 0.8), rng.uniform(0, 2 * math.pi)
        return {"gamma": _num(rng.uniform(0.5, 2)),
                "alpha": f"{_num(a * math.cos(phase))},{_num(a * math.sin(phase))}",
                "g": _num(rng.uniform(0.8, 1.5)),
                "s": f"{_num(rng.uniform(0.2, 2))},{_num(rng.uniform(-1, 1))}"}

    def commands(self, p):
        fam = self.path("fam.json")
        return [
            ["zoo", "lambda_system", f"n_max={self.N_MAX}", f"gamma={p['gamma']}",
             f"alpha={p['alpha']}", f"g={p['g']}", "--out", fam],
            ["limit", fam, "--emit", self.path("slow.json"), "--study", self.KS,
             "--s", p["s"]],
        ]

    def sizes(self):
        return {"m": 3 * (self.N_MAX + 1), "n": 1, "k_count": len(self.KS.split(","))}

    def check(self, job, outputs):
        out = outputs[1][1]
        error = (_expect_line(out, "assumptions: PASS")
                 or _expect_line(out, "decoupled: True"))
        if error:
            return error
        slope = self._SLOPE.search(out)
        if slope is None or abs(float(slope.group(1)) + 1) > 0.05:
            return f"convergence slope {slope and slope.group(1)}, expected -1"
        p = job.params
        alpha = complex(*(float(v) for v in p["alpha"].split(",")))
        r = float(p["gamma"]) * abs(alpha) ** 2 / (2 * float(p["g"]) ** 2)
        S, L, H = reference.read_slh(self.path("slow.json"))
        for s in (complex(*(float(v) for v in p["s"].split(","))), 0.5j, 2.0):
            want = np.diag([(s - r) / (s + r), -1.0])
            err = float(np.max(np.abs(reference.char_op(S, L, H, s) - want)))
            if err > 1e-9:
                return f"slow model T({s}) is {err:.3g} off diag((s-r)/(s+r), -1)"
        return None


WORKLOADS = {w.name: w for w in (SweepPlot, SweepCsv, LimitStudy)}
