"""SLH triples: validation, the damping generator K, composition, rotations.

An SLH model on an m-dimensional plant with n inputs stores

* ``S``: nm x nm unitary scattering matrix, an n x n grid of m x m blocks,
* ``L``: nm x m coupling column, the n operators L_1..L_n stacked,
* ``H``: m x m Hermitian Hamiltonian.

The effective (non-Hermitian) generator is K = -1/2 sum_i L_i* L_i - i H,
and the model matrix collects all coefficients into one block matrix.

The same two numbers size every kind of object in the package: a field is
nm or m rows by nm or m columns (:func:`field_shape`).  SLH triples, scaled
families and both Stratonovich kinds list their matrix fields once, as
``MATRIX_FIELDS``, and check them in their constructors with one helper,
which also sets their ``n_inputs`` and ``dim``; the model-file reader checks
a file's fields against the same rule.  Empty matrices are refused with
ShapeError.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BadParam, ShapeError
from .operators import (
    DEFAULT_TOL,
    annihilator,
    as_matrix,
    dagger,
    identity,
    imag_part,
    is_hermitian,
    is_unitary,
    kron,
)


@dataclass(frozen=True)
class ValidationReport:
    """Residuals from validating an SLH triple (report style, never raises)."""

    s_unitarity: float
    h_hermiticity: float
    k_finite: bool
    messages: tuple = ()

    def passed(self, tol: float = DEFAULT_TOL) -> bool:
        return self.s_unitarity <= tol and self.h_hermiticity <= tol and self.k_finite


# The one field-shape rule, for every kind: n*m rows for a field that stacks
# the n inputs, n*m columns for one that spans them, m for every other axis.
_NM_ROWS = frozenset({"S", "L", "L0", "L1", "El0", "Ell", "Fl0", "Fll"})
_NM_COLS = frozenset({"S", "E0l", "Ell", "Fll"})


def field_shape(field: str, n: int, m: int) -> tuple:
    """Declared shape of a matrix field for n inputs and m plant states."""
    return (n * m if field in _NM_ROWS else m, n * m if field in _NM_COLS else m)


def _check_fields(obj) -> None:
    """Coerce the ``MATRIX_FIELDS`` of a frozen dataclass with as_matrix,
    check them against :func:`field_shape` and store them back, with the
    object's ``n_inputs`` and ``dim``.

    m is the row count of the first plant-row field and n*m that of the
    first stacked field.  ShapeError unless n*m is a positive multiple of
    m >= 1, and ShapeError naming the first field not of its declared shape.
    """
    mats = {name: as_matrix(getattr(obj, name), name) for name in obj.MATRIX_FIELDS}
    plant = next(name for name in mats if name not in _NM_ROWS)
    stacked = next(name for name in mats if name in _NM_ROWS)
    m, nm = mats[plant].shape[0], mats[stacked].shape[0]
    if m < 1 or nm < m or nm % m:
        raise ShapeError(
            f"{stacked} has shape {mats[stacked].shape} and {plant} has shape "
            f"{mats[plant].shape}; the rows of {stacked} must be n*m for "
            f"n >= 1 inputs and m >= 1 plant states"
        )
    n = nm // m
    for name, M in mats.items():
        want = field_shape(name, n, m)
        if M.shape != want:
            raise ShapeError(
                f"{name} must have shape {want} for n = {n}, m = {m}, got {M.shape}"
            )
        object.__setattr__(obj, name, M)
    object.__setattr__(obj, "n_inputs", n)
    object.__setattr__(obj, "dim", m)


@dataclass(frozen=True)
class SLHModel:
    """Validated-shape SLH triple; unitarity/Hermiticity checked via validate()."""

    MATRIX_FIELDS = ("S", "L", "H")

    S: np.ndarray
    L: np.ndarray
    H: np.ndarray
    n_inputs: int = field(init=False)
    dim: int = field(init=False)
    basis_labels: tuple | None = None

    def __post_init__(self):
        _check_fields(self)
        if self.basis_labels is not None:
            labels = tuple(str(x) for x in self.basis_labels)
            if len(labels) != self.dim:
                raise ShapeError("basis_labels length must equal dim")
            object.__setattr__(self, "basis_labels", labels)


def validate(model: SLHModel, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Residual report: S unitarity, H Hermiticity and a finite generator K
    (shapes are checked on construction).  A K that overflows fails: no
    evaluation route reaches a point of such a model."""
    _, s_res = is_unitary(model.S)
    _, h_res = is_hermitian(model.H)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is this report's finding
        k_finite = bool(np.isfinite(k_operator(model)).all())
    msgs = []
    if s_res > tol:
        msgs.append(f"S fails unitarity: residual {s_res:.3e} > tol {tol:.1e}")
    if h_res > tol:
        msgs.append(f"H fails Hermiticity: residual {h_res:.3e} > tol {tol:.1e}")
    if not k_finite:
        msgs.append("the generator K = -L*L/2 - iH overflows: K is not finite")
    return ValidationReport(
        s_unitarity=s_res, h_hermiticity=h_res, k_finite=k_finite, messages=tuple(msgs)
    )


def k_operator(model: SLHModel) -> np.ndarray:
    """K = -1/2 sum_i L_i* L_i - i H (m x m)."""
    return -0.5 * dagger(model.L) @ model.L - 1j * model.H


def model_matrix(model: SLHModel) -> np.ndarray:
    """The (n+1)m x (n+1)m matrix [[A, B], [C, D]] = [[K, -L*S], [L, S]] of :func:`abcd`."""
    A, B, C, D = abcd(model)
    return np.block([[A, B], [C, D]])


# Largest block Kronecker product series_product forms, in complex entries
# (2**24 entries, 256 MiB): its S product holds n (n mB mA)^2 of them.
SERIES_ENTRY_LIMIT = 2**24


def _block_kron(X, Y, dx: int, dy: int) -> np.ndarray:
    """Block Kronecker product (X (*) Y)_jk = sum_l X_jl (x) Y_lk.

    X is a grid of dx x dx blocks and Y a grid of dy x dy blocks, with as
    many block columns in X as block rows in Y.  The products are broadcast
    the way np.kron forms them and summed over l in order, so a single block
    column gives np.kron's bits (np.einsum rounds complex products
    differently).
    """
    nj, nl, nk = X.shape[0] // dx, X.shape[1] // dx, Y.shape[1] // dy
    Xl = X.reshape(nj, dx, nl, dx).transpose(2, 0, 1, 3)  # axes (l, j, b, c)
    P = Xl[:, :, :, None, None, :, None] * Y.reshape(nl, 1, 1, dy, nk, 1, dy)
    return P.sum(axis=0).reshape(nj * dx * dy, nk * dx * dy)  # rows (j, b, a)


def series_product(downstream: SLHModel, upstream: SLHModel) -> SLHModel:
    """Cascade: feed the upstream output into the downstream input.

    The composite lives on the tensor space (downstream plant) x (upstream
    plant) and has parameters

        S = S_B (*) S_A
        L = L_B (*) I_A + S_B (*) L_A
        H = H_B (x) I_A + I_B (x) H_A + Im{ (L_B* S_B) (*) L_A }

    where B is downstream, A is upstream and (*) is the block Kronecker
    product of :func:`_block_kron`, so S_jk = sum_l S^B_jl (x) S^A_lk.
    ShapeError, before anything is formed, when that product for S would
    exceed ``SERIES_ENTRY_LIMIT`` entries.
    """
    B, A = downstream, upstream
    if B.n_inputs != A.n_inputs:
        raise ShapeError(
            f"series product needs matching input counts, got {B.n_inputs} and {A.n_inputs}"
        )
    n, mB, mA = B.n_inputs, B.dim, A.dim
    entries = n * (n * mB * mA) ** 2
    if entries > SERIES_ENTRY_LIMIT:
        raise ShapeError(
            f"series product of models with (n_inputs, dim) = ({n}, {mB}) and "
            f"({n}, {mA}) would form {entries:,} complex entries, over the limit "
            f"of {SERIES_ENTRY_LIMIT:,}"
        )
    IA, IB = identity(mA), identity(mB)
    S = _block_kron(B.S, A.S, mB, mA)
    L = _block_kron(B.L, IA, mB, mA) + _block_kron(B.S, A.L, mB, mA)
    cross = _block_kron(dagger(B.L) @ B.S, A.L, mB, mA)
    H = kron(B.H, IA) + kron(IB, A.H) + imag_part(cross)
    return SLHModel(S=S, L=L, H=H)


def _check_unitary(V):
    ok, res = is_unitary(V)
    if not ok:
        raise BadParam(f"V is not unitary: residual {res:.3e}")


def rotate(model: SLHModel, V) -> SLHModel:
    """Basis rotation (V*SV, V*LV, V*HV), applied blockwise to S and L."""
    V = as_matrix(V, "V")
    _check_unitary(V)
    n = model.n_inputs
    Vn = kron(identity(n), V)
    return SLHModel(
        S=dagger(Vn) @ model.S @ Vn,
        L=dagger(Vn) @ model.L @ V,
        H=dagger(V) @ model.H @ V,
    )


def gauge(model: SLHModel, V) -> SLHModel:
    """Gauge change (S, LV, V*HV); leaves the characteristic operator invariant."""
    V = as_matrix(V, "V")
    _check_unitary(V)
    return SLHModel(S=model.S.copy(), L=model.L @ V, H=dagger(V) @ model.H @ V)


# ---------------------------------------------------------------------------
# Linear passive realizations on truncated Fock spaces.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearPassiveSpec:
    """Linear passive data: scalar scattering D, couplings C, mode Hamiltonian.

    ``D`` is n x n, ``C`` is n x (number of modes), ``omega`` is the Hermitian
    quadratic-form matrix, and ``cutoffs`` gives the Fock cutoff n_max of each
    mode.  Realization: S_ij = D_ij, L_i = sum_a C_ia a_a,
    H = sum_ab omega_ab a_a* a_b.
    """

    D: np.ndarray
    C: np.ndarray
    omega: np.ndarray
    cutoffs: tuple

    def __post_init__(self):
        D = as_matrix(self.D, "D")
        C = as_matrix(self.C, "C")
        W = as_matrix(self.omega, "omega")
        cutoffs = tuple(int(c) for c in self.cutoffs)
        n_modes = C.shape[1]
        if D.shape[0] != D.shape[1] or D.shape[0] != C.shape[0]:
            raise ShapeError("D must be n x n with n = C rows")
        if W.shape != (n_modes, n_modes):
            raise ShapeError("omega must be square with one row per mode")
        if len(cutoffs) != n_modes:
            raise BadParam("one Fock cutoff per mode is required")
        if any(c < 1 for c in cutoffs):
            raise BadParam("Fock cutoffs must be >= 1")
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "omega", W)
        object.__setattr__(self, "cutoffs", cutoffs)


def _mode_operators(cutoffs) -> list:
    """Annihilators of each mode lifted to the tensor of all truncated modes."""
    cutoffs = tuple(int(c) for c in cutoffs)
    dims = [c + 1 for c in cutoffs]
    ops = []
    for idx, c in enumerate(cutoffs):
        op = np.array([[1.0 + 0j]])
        for jdx, d in enumerate(dims):
            factor = annihilator(c) if jdx == idx else identity(d)
            op = kron(op, factor)
        ops.append(op)
    return ops


def realize_passive(spec: LinearPassiveSpec) -> SLHModel:
    """Build the SLH model of a linear passive system on truncated modes."""
    modes = _mode_operators(spec.cutoffs)
    m = modes[0].shape[0]
    n = spec.D.shape[0]
    L = np.zeros((n * m, m), dtype=complex)
    for i in range(n):
        for a, op in enumerate(modes):
            L[i * m:(i + 1) * m, :] += spec.C[i, a] * op
    H = np.zeros((m, m), dtype=complex)
    for a, oa in enumerate(modes):
        for b, ob in enumerate(modes):
            H += spec.omega[a, b] * (dagger(oa) @ ob)
    S = kron(spec.D, identity(m))
    return SLHModel(S=S, L=L, H=H)


def abcd(model: SLHModel):
    """The matrices (A, B, C, D) of the equivalent linear passive system.

    A = K (m x m), B = -L*S (m x nm), C = L (nm x m), D = S (nm x nm),
    so that A + A* + C*C = 0 and B = -C*D, and T(s) = D + C (s - A)^-1 B.
    The one place the package writes this realization.
    """
    A = k_operator(model)
    C = model.L.copy()
    D = model.S.copy()
    B = -dagger(C) @ D
    return A, B, C, D
