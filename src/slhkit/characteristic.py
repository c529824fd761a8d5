"""Evaluation of the characteristic operator by three independent routes.

The characteristic operator of an SLH triple is

    T(s) = S - L (sI + 1/2 L*L + iH)^-1 L* S,

an n x n matrix of m x m plant operators.  It is unitary on the imaginary
axis wherever i*omega lies in the resolvent set of K.  Two alternative
evaluations exist for cross-validation: the all-pass form built from
Sigma(s) = L (s + iH)^-1 L*, and the Stratonovich-coefficient form.

Single points go through a condition-guarded LU of (s - K).  A direct
sweep instead factors K once, K = Z T Z* with T upper triangular (Laub's
Schur-form frequency response, IEEE TAC 26(2), 1981), and solves each
point against (s - T): one triangular solve per point, guarded by a LAPACK
1-norm condition estimate of the triangular factor; a sweep that asks for
a row/column selection of T(s) solves only for the selected columns.  The
Schur form is taken per strongly connected component of K's nonzero
pattern, so entries that are exactly zero in every point's result stay
exactly zero.  Every route refuses a condition estimate above ``operators.DEFAULT_COND_LIMIT``
(1e12); no evaluation route takes a limit of its own.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import ztrcon

from .errors import ResolventSingular, ShapeError, SingularMatrix
from .model import BlockOperatorMatrix, SLHModel, k_operator
from .operators import (
    DEFAULT_TOL,
    as_matrix,
    dagger,
    guard_cond,
    inverse,
    is_unitary,
    max_abs,
    solve,
)
from .stratonovich import ito_to_stratonovich


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


def resolvent_solve(M, s, B=None) -> np.ndarray:
    """(sI - M)^-1 B, or (sI - M)^-1 when B is None; ResolventSingular on failure."""
    M = np.asarray(M, dtype=complex)
    A = s * np.eye(M.shape[0]) - M
    with singular_at(s):
        return inverse(A) if B is None else solve(A, B)


def char_op(model: SLHModel, s) -> BlockOperatorMatrix:
    """Direct evaluation T(s) = S - L (s - K)^-1 L* S."""
    return BlockOperatorMatrix(_char_op_entries(model, s), model.dim)


def _char_op_entries(model: SLHModel, s, rows=slice(None), cols=slice(None)) -> np.ndarray:
    """T(s)[rows][:, cols] = S[rows][:, cols] - L[rows] (s - K)^-1 (L* S)[:, cols]."""
    X = resolvent_solve(k_operator(model), s, dagger(model.L) @ model.S[:, cols])
    return model.S[rows][:, cols] - model.L[rows] @ X


def sigma_kernel(model: SLHModel, s) -> BlockOperatorMatrix:
    """Sigma(s) = L (s + iH)^-1 L*, the all-pass kernel (nm x nm)."""
    R = resolvent_solve(-1j * model.H, s)
    return BlockOperatorMatrix(model.L @ R @ dagger(model.L), model.dim)


def char_op_allpass(model: SLHModel, s) -> BlockOperatorMatrix:
    """All-pass evaluation T(s) = (1 - Sigma/2)(1 + Sigma/2)^-1 S."""
    Sig = sigma_kernel(model, s).data
    I = np.eye(Sig.shape[0], dtype=complex)
    with singular_at(s, "(1 + Sigma/2) not invertible"):
        denom = inverse(I + 0.5 * Sig)
    return BlockOperatorMatrix((I - 0.5 * Sig) @ denom @ model.S, model.dim)


def char_op_stratonovich(coeffs, s) -> BlockOperatorMatrix:
    """Evaluate T(s) from Stratonovich coefficients.

    With X(s) = (i/2) Ell + 1/2 El0 (s + i E00)^-1 E0l, the characteristic
    operator is (I - X)(I + X)^-1; its |s| -> infinity limit is the Cayley
    transform of Ell, i.e. the scattering matrix.
    """
    E00 = coeffs.E00
    R = resolvent_solve(-1j * E00, s)
    X = 0.5j * coeffs.Ell + 0.5 * coeffs.El0 @ R @ coeffs.E0l
    I = np.eye(X.shape[0], dtype=complex)
    with singular_at(s, "(I + X(s)) not invertible"):
        denom = inverse(I + X)
    return BlockOperatorMatrix((I - X) @ denom, E00.shape[0])


def transfer_function(abcd_matrices, s) -> np.ndarray:
    """Classical transfer function T(s) = D + C (sI - A)^-1 B."""
    A, B, C, D = (np.asarray(M, dtype=complex) for M in abcd_matrices)
    R = resolvent_solve(A, s)
    return D + C @ R @ B


def unitarity_check(model: SLHModel, omega: float):
    """Check T(i w)* T(i w) = T(i w) T(i w)* = I; return (ok, residual)."""
    T = char_op(model, 1j * omega).data
    r = max(is_unitary(T)[1], is_unitary(dagger(T))[1])
    return r <= DEFAULT_TOL, r


def _vacuum_indices(n_blocks: int, block_dim: int, dims, vacuum_modes) -> np.ndarray:
    """Flat indices of the block rows (or columns) that <0|...|0> keeps.

    Block by block, the kept tensor factors run in C order with every
    factor in ``vacuum_modes`` held at 0; ShapeError when ``dims`` does not
    factor ``block_dim`` or a vacuum mode is not one of its factors.
    """
    dims = tuple(int(d) for d in dims)
    if int(np.prod(dims)) != block_dim:
        raise ShapeError(f"product of dims {dims} must equal block dim {block_dim}")
    nf = len(dims)
    vacuum_modes = range(nf) if vacuum_modes is None else {int(i) for i in vacuum_modes}
    if not all(0 <= v < nf for v in vacuum_modes):
        raise ShapeError(f"vacuum_modes {sorted(vacuum_modes)} must lie in [0, {nf})")
    idx = [0 if v in vacuum_modes else slice(None) for v in range(nf)]
    return np.arange(n_blocks * block_dim).reshape(n_blocks, *dims)[(slice(None), *idx)].ravel()


def vacuum_expectation(block_matrix: BlockOperatorMatrix, dims, vacuum_modes=None) -> np.ndarray:
    """Contract selected tensor factors of each plant block with the vacuum.

    ``dims`` lists the dimension of each tensor factor of the plant space
    (product must equal the block dimension); ``vacuum_modes`` selects which
    factors are evaluated in <0|...|0> (default: all).  Returns an n x n
    scalar matrix when every factor is contracted, otherwise a block matrix
    of operators on the remaining factors.
    """
    m = block_matrix.block_dim
    rows = _vacuum_indices(block_matrix.n_blocks_row, m, dims, vacuum_modes)
    cols = _vacuum_indices(block_matrix.n_blocks_col, m, dims, vacuum_modes)
    return block_matrix.data[np.ix_(rows, cols)]


def vacuum_expectation_char(model: SLHModel, s, dims, vacuum_modes=None) -> np.ndarray:
    """Vacuum matrix elements <0|T(s)_jk|0> of the characteristic operator.

    Only the kept rows and columns of T(s) are formed.
    """
    keep = _vacuum_indices(model.n_inputs, model.dim, dims, vacuum_modes)
    return _char_op_entries(model, s, keep, keep)


def perturbation_series(model0: SLHModel, V, lam: float, order: int, s) -> BlockOperatorMatrix:
    """Neumann series for the Hamiltonian perturbation H = H0 + lam * V.

    T(s) = T0(s) - sum_{q=1}^{order} (-i lam)^q  L R0 (V R0)^q L* S,
    with R0 = (s - K0)^-1.  Valid for lam small enough that the series
    converges; the truncation order is explicit.
    """
    V = as_matrix(V, "V")
    if V.shape != (model0.dim, model0.dim):
        raise ShapeError("V must act on the plant space")
    if order < 0:
        raise ShapeError("order must be >= 0")
    R0 = resolvent_solve(k_operator(model0), s)
    LS = dagger(model0.L) @ model0.S
    T = model0.S - model0.L @ R0 @ LS
    W = R0
    for q in range(1, order + 1):
        W = W @ V @ R0
        T = T - (-1j * lam) ** q * (model0.L @ W @ LS)
    return BlockOperatorMatrix(T, model0.dim)


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
    operator holds BlockOperatorMatrix values; one with a row/column
    selection holds ``len(rows) x len(cols)`` arrays of T[rows][:, cols]
    and records the selection in ``rows`` and ``cols`` (None: every index).
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
        return tuple(float("nan") if T is None else is_unitary(T.data)[1]
                     for T in self.values)


_SWEEP_METHODS = ("direct", "allpass", "stratonovich")


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

    T(s)[rows][:, cols] = S[rows][:, cols] - (L Z)[rows] (s - T)^-1 (Z* L* S)[:, cols],
    so a point costs a triangular solve with one right-hand side per
    selected column.  The default selection is the whole operator.
    """
    K = k_operator(model)
    if not np.isfinite(K).all():  # overflowed: no Schur form, every point refused

        def evaluate(s):
            with singular_at(s):
                guard_cond(np.inf)

        return evaluate
    T, Z = _block_schur(K)
    LZ = model.L[rows] @ Z
    W = dagger(Z) @ (dagger(model.L) @ model.S[:, cols])
    S = model.S[rows][:, cols]
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
        return S - LZ @ X

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

    ``method="direct"`` factors K once (see the module docstring); the
    all-pass and Stratonovich routes evaluate each point independently.
    ``rows`` and ``cols`` select entries of the nm x nm operator (None:
    all of them, in any order, repeats allowed); the direct route forms
    only T(s)[rows][:, cols], the other routes slice their full result.
    """
    if method not in _SWEEP_METHODS:
        raise ShapeError(f"method must be one of {_SWEEP_METHODS}")
    nm = model.n_inputs * model.dim
    rows, cols = _selection(rows, nm, "rows"), _selection(cols, nm, "cols")
    pick_rows = slice(None) if rows is None else list(rows)
    pick_cols = slice(None) if cols is None else list(cols)
    selected = rows is not None or cols is not None
    if method == "direct":
        entries = _schur_char_op(model, pick_rows, pick_cols)
        evaluate = entries if selected else (
            lambda s: BlockOperatorMatrix(entries(s), model.dim))
    else:
        if method == "stratonovich":
            coeffs = ito_to_stratonovich(model)
            full = lambda s: char_op_stratonovich(coeffs, s)
        else:
            full = lambda s: char_op_allpass(model, s)
        evaluate = (lambda s: full(s).data[pick_rows][:, pick_cols]) if selected else full

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
