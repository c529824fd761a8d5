"""Evaluation of the characteristic operator by three independent routes.

The characteristic operator of an SLH triple is

    T(s) = S - L (sI + 1/2 L*L + iH)^-1 L* S,

an n x n matrix of m x m plant operators.  It is unitary on the imaginary
axis wherever i*omega lies in the resolvent set of K.  Two alternative
evaluations exist for cross-validation, the all-pass form built from
Sigma(s) = L (s + iH)^-1 L* and the Stratonovich-coefficient form; both end
in the one Cayley step of :mod:`slhkit.stratonovich`, a guarded solve.

Every route evaluates D + C (s - A)^-1 B of a realization (A, B, C, D):
the direct one of (K, -L*S, L, S), which :func:`slhkit.model.abcd` alone
writes, Sigma(s) of (-iH, L*, L, 0), the Stratonovich X(s) of (-iE00, E0l,
El0/2, (i/2)Ell).  A point solves s - A through one condition-guarded LU.
A direct sweep instead factors K = Z T Z* once, T upper triangular (Laub,
IEEE TAC 26(2), 1981), and per point solves (s - T) against Z* B, guarded
by a LAPACK 1-norm condition estimate of s - T; a row/column selection of
T(s) solves only for the selected columns.  The Schur form is taken per
strongly connected component of K's nonzero pattern, so entries that are
exactly zero in every point's result stay exactly zero.  Every route
refuses a condition estimate above ``operators.DEFAULT_COND_LIMIT`` (1e12)
and takes no limit of its own.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import ztrcon

from .errors import ResolventSingular, ShapeError, SingularMatrix
from .model import SLHModel, abcd
from .operators import (
    DEFAULT_TOL,
    _lu_with_cond,
    as_matrix,
    dagger,
    guard_cond,
    is_unitary,
    solve,
)
from .stratonovich import _cayley_step, ito_to_stratonovich


@contextmanager
def singular_at(s, message=None):
    """Re-raise a refused inversion inside the block as ResolventSingular at s.

    The one place where SingularMatrix becomes ResolventSingular; every
    route that evaluates a resolvent at a point goes through it.
    """
    try:
        yield
    except SingularMatrix as exc:
        raise ResolventSingular(s, message, cond_estimate=exc.cond_estimate) from None


def _transfer(A, B, C, D, s, rows=slice(None), cols=slice(None)) -> np.ndarray:
    """D[rows][:, cols] + C[rows] (s - A)^-1 B[:, cols]; ResolventSingular at s
    when the LU of s - A fails the condition guard."""
    with singular_at(s):
        X = solve(s * np.eye(A.shape[0]) - A, B[:, cols])
    return D[rows][:, cols] + C[rows] @ X


def char_op(model: SLHModel, s) -> np.ndarray:
    """Direct evaluation T(s) = S - L (s - K)^-1 L* S (nm x nm)."""
    return _transfer(*abcd(model), s)


def sigma_kernel(model: SLHModel, s) -> np.ndarray:
    """Sigma(s) = L (s + iH)^-1 L*, the all-pass kernel (nm x nm)."""
    nm = model.L.shape[0]
    return _transfer(-1j * model.H, dagger(model.L), model.L, np.zeros((nm, nm)), s)


def char_op_allpass(model: SLHModel, s) -> np.ndarray:
    """All-pass evaluation T(s) = (1 - Sigma/2)(1 + Sigma/2)^-1 S (nm x nm)."""
    return _cayley_at(0.5 * sigma_kernel(model, s), s, "(1 + Sigma/2) not invertible") @ model.S


def char_op_stratonovich(coeffs, s) -> np.ndarray:
    """Evaluate T(s) (nm x nm) from Stratonovich coefficients.

    With X(s) = (i/2) Ell + 1/2 El0 (s + i E00)^-1 E0l, the characteristic
    operator is (I - X)(I + X)^-1; its |s| -> infinity limit is the Cayley
    transform of Ell, i.e. the scattering matrix.
    """
    X = _transfer(-1j * coeffs.E00, coeffs.E0l, 0.5 * coeffs.El0, 0.5j * coeffs.Ell, s)
    return _cayley_at(X, s, "(I + X(s)) not invertible")


def _cayley_at(X, s, message) -> np.ndarray:
    """(I - X)(I + X)^-1; ResolventSingular at s with ``message`` when I + X fails the guard."""
    with singular_at(s, message):
        return _cayley_step(X)


# The T(s) methods, each as its point route: model -> (s -> nm x nm T(s)).
# The Stratonovich route converts the model once, for every point.
METHODS = {
    "direct": lambda model: partial(char_op, model),
    "allpass": lambda model: partial(char_op_allpass, model),
    "stratonovich": lambda model: partial(char_op_stratonovich, ito_to_stratonovich(model)),
}


def transfer_function(abcd_matrices, s) -> np.ndarray:
    """Classical transfer function T(s) = D + C (sI - A)^-1 B."""
    return _transfer(*(np.asarray(M, dtype=complex) for M in abcd_matrices), s)


def unitarity_check(model: SLHModel, omega: float):
    """Check T(i w)* T(i w) = T(i w) T(i w)* = I; return (ok, residual)."""
    T = char_op(model, 1j * omega)
    r = max(is_unitary(T)[1], is_unitary(dagger(T))[1])
    return r <= DEFAULT_TOL, r


def _vacuum_indices(size: int, dims, vacuum_modes) -> np.ndarray:
    """Flat indices of the rows (or columns) that <0|...|0> keeps.

    The axis of ``size`` entries is a stack of blocks of ``prod(dims)``
    entries.  Block by block, the kept tensor factors run in C order with
    every factor in ``vacuum_modes`` held at 0; ShapeError when a vacuum
    mode is not one of the factors.
    """
    nf = len(dims)
    vacuum_modes = range(nf) if vacuum_modes is None else {int(i) for i in vacuum_modes}
    if not all(0 <= v < nf for v in vacuum_modes):
        raise ShapeError(f"vacuum_modes {sorted(vacuum_modes)} must lie in [0, {nf})")
    idx = [0 if v in vacuum_modes else slice(None) for v in range(nf)]
    return np.arange(size).reshape(-1, *dims)[(slice(None), *idx)].ravel()


def vacuum_expectation_char(model: SLHModel, s, dims, vacuum_modes=None) -> np.ndarray:
    """Vacuum matrix elements <0|T(s)_jk|0> of the characteristic operator.

    ``dims`` lists the dimension of each tensor factor of the plant space
    and ``vacuum_modes`` selects the factors evaluated in <0|...|0>
    (default: all).  Returns an n x n scalar matrix when every factor is
    contracted, otherwise a block matrix of operators on the remaining
    factors.  Only the kept rows and columns of T(s) are formed;
    ShapeError unless the dims are >= 1 with product the plant dimension.
    """
    dims = tuple(int(d) for d in dims)
    if min(dims, default=1) < 1 or int(np.prod(dims)) != model.dim:
        raise ShapeError(f"product of dims {dims} must equal the plant dim {model.dim}, "
                         f"every dim >= 1")
    keep = _vacuum_indices(model.n_inputs * model.dim, dims, vacuum_modes)
    return _transfer(*abcd(model), s, keep, keep)


def perturbation_series(model0: SLHModel, V, lam: float, order: int, s) -> np.ndarray:
    """Neumann series for the Hamiltonian perturbation H = H0 + lam * V.

    T(s) = T0(s) - sum_{q=1}^{order} (-i lam)^q  L R0 (V R0)^q L* S,
    with R0 = (s - K0)^-1.  Valid for lam small enough that the series
    converges; the truncation order is explicit; s - K0 is factored once.
    """
    V = as_matrix(V, "V")
    if V.shape != (model0.dim, model0.dim):
        raise ShapeError("V must act on the plant space")
    if order < 0:
        raise ShapeError("order must be >= 0")
    A, B, C, D = abcd(model0)
    with singular_at(s):
        factors, cond = _lu_with_cond(s * np.eye(model0.dim) - A)
        guard_cond(cond)
    X = scipy.linalg.lu_solve(factors, B)
    T = D + C @ X
    for q in range(1, order + 1):
        X = scipy.linalg.lu_solve(factors, V @ X)
        T = T + (-1j * lam) ** q * (C @ X)
    return T


# ---------------------------------------------------------------------------
# Frequency sweeps.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FrequencyGrid:
    """Sampling grid for s: either s = i*omega (imaginary) or s real."""

    axis: str
    points: np.ndarray

    def __post_init__(self):
        if self.axis not in ("imaginary", "real"):
            raise ShapeError("axis must be 'imaginary' or 'real'")
        pts = np.asarray(self.points, dtype=float).ravel()
        if pts.size == 0:
            raise ShapeError("grid must be nonempty")
        if not (np.all(np.isfinite(pts)) and np.all(np.diff(pts) > 0)):
            raise ShapeError("grid points must be finite and strictly increasing")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def s_values(self) -> np.ndarray:
        return 1j * self.points if self.axis == "imaginary" else self.points.astype(complex)


@dataclass(frozen=True)
class SweepResult:
    """Per-point characteristic operators with per-point failure capture.

    ``values[i]`` is None exactly when point i failed; failures lists
    (point, error message) pairs in grid order.  A sweep over the whole
    operator holds nm x nm arrays; one with a row/column selection holds
    ``len(rows) x len(cols)`` arrays of T[rows][:, cols] and records the
    selection in ``rows`` and ``cols`` (None: every index).
    """

    grid: FrequencyGrid
    values: tuple
    failures: tuple
    rows: tuple | None = None
    cols: tuple | None = None

    @property
    def n_failed(self) -> int:
        return len(self.failures)

    @cached_property
    def unitarity_residuals(self) -> tuple:
        """max |T*T - I| per point, nan where the point failed; formed on first read.

        ShapeError for a selected sweep: unitarity needs the whole square T.
        """
        if self.rows is not None or self.cols is not None:
            raise ShapeError("unitarity residuals need the whole T(s); "
                             "this sweep holds a row/column selection")
        return tuple(float("nan") if T is None else is_unitary(T)[1]
                     for T in self.values)


def _block_schur(K):
    """Complex Schur form K = Z T Z*, one diagonal block per strong component.

    Index i links to j when K[i, j] != 0.  Ordering the strongly connected
    components of these links so that every link points forward makes K
    block upper triangular; each diagonal block gets its own Schur factor.
    So ``Z`` is a permutation times a block-diagonal unitary, and entries
    that are exactly zero in every T(s) of the model stay exactly zero when
    T(s) is computed from ``T`` and ``Z``.
    """
    K = np.asarray(K, dtype=complex)
    m = K.shape[0]
    reach = (K != 0) | np.eye(m, dtype=bool)
    while True:  # transitive closure by repeated squaring
        closed = (reach.astype(float) @ reach) > 0
        if np.array_equal(closed, reach):
            break
        reach = closed
    component = (reach & reach.T).argmax(axis=1)  # lowest index in the component
    # a component reaches strictly more indices than any component it links to
    order = np.lexsort((component, -reach.sum(axis=1)))
    Z = np.zeros((m, m), dtype=complex)
    diagonal = []
    for cols in np.split(np.arange(m), np.flatnonzero(np.diff(component[order])) + 1):
        rows = order[cols]
        T_c, Z[np.ix_(rows, cols)] = scipy.linalg.schur(K[np.ix_(rows, rows)],
                                                        output="complex")
        diagonal.append((np.ix_(cols, cols), T_c))
    T = np.triu(dagger(Z) @ K @ Z)
    for block, T_c in diagonal:
        T[block] = T_c
    return T, Z


def _schur_char_op(model: SLHModel, rows=slice(None), cols=slice(None)):
    """s -> T(s)[rows][:, cols] against one Schur factor of K.

    With (K, B, C, D) = abcd(model) and K = Z T Z*,
    T(s)[rows][:, cols] = D[rows][:, cols] + (C Z)[rows] (s - T)^-1 (Z* B)[:, cols],
    so a point costs a triangular solve with one right-hand side per
    selected column.  The default selection is the whole operator.
    """
    K, B, C, D = abcd(model)
    if not np.isfinite(K).all():  # overflowed: no Schur form, every point refused

        def evaluate(s):
            with singular_at(s):
                guard_cond(np.inf)

        return evaluate
    T, Z = _block_schur(K)
    CZ = C[rows] @ Z
    W = dagger(Z) @ B[:, cols]
    D = D[rows][:, cols]
    # s - T in one array; T is upper triangular, so a point rewrites only the
    # diagonal (ztrcon and solve_triangular read the upper triangle alone)
    A = -T
    d = np.arange(T.shape[0])
    t = T[d, d]

    def evaluate(s):
        A[d, d] = s - t
        rcond, _ = ztrcon(A, norm="1")
        with singular_at(s):
            guard_cond(1.0 / rcond if rcond > 0 else np.inf)
        X = scipy.linalg.solve_triangular(A, W, check_finite=False)
        return D + CZ @ X

    return evaluate


def _selection(indices, size: int, name: str):
    """A sequence of indices into [0, size) as a tuple; None stays None."""
    if indices is None:
        return None
    picked = np.asarray(indices).ravel()
    if not (picked.size and picked.dtype.kind in "iu"
            and 0 <= picked.min() and picked.max() < size):
        raise ShapeError(f"{name} must be a nonempty selection of integers in [0, {size})")
    return tuple(picked.tolist())


def sweep(model: SLHModel, grid: FrequencyGrid, method: str = "direct", *,
          rows=None, cols=None) -> SweepResult:
    """Evaluate T over a grid; singular points are recorded, not fatal.

    ``method`` is a name in :data:`METHODS`.  ``"direct"`` factors K once
    (see the module docstring); the other methods run their point route.
    ``rows`` and ``cols`` select entries of the nm x nm operator (None:
    all of them, in any order, repeats allowed); the direct route forms
    only T(s)[rows][:, cols], the other routes slice their full result.
    """
    if method not in METHODS:
        raise ShapeError(f"method must be one of {tuple(METHODS)}")
    nm = model.n_inputs * model.dim
    rows, cols = _selection(rows, nm, "rows"), _selection(cols, nm, "cols")
    pick_rows = slice(None) if rows is None else list(rows)
    pick_cols = slice(None) if cols is None else list(cols)
    selected = rows is not None or cols is not None
    if method == "direct":
        evaluate = _schur_char_op(model, pick_rows, pick_cols)
    else:
        full = METHODS[method](model)
        evaluate = (lambda s: full(s)[pick_rows][:, pick_cols]) if selected else full

    values = []
    failures = []
    for point, s in zip(grid.points, grid.s_values()):
        try:
            values.append(evaluate(s))
        except SingularMatrix as exc:
            values.append(None)
            failures.append((float(point), str(exc)))
    return SweepResult(grid=grid, values=tuple(values), failures=tuple(failures),
                       rows=rows, cols=cols)
