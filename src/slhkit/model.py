"""SLH triples: validation, the damping generator K, composition, rotations.

An SLH model on an m-dimensional plant with n inputs stores

* ``S``: nm x nm unitary scattering matrix, an n x n grid of m x m blocks,
* ``L``: nm x m coupling column, the n operators L_1..L_n stacked,
* ``H``: m x m Hermitian Hamiltonian.

The effective (non-Hermitian) generator is K = -1/2 sum_i L_i* L_i - i H,
and the model matrix collects all coefficients into one block matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BadParam, ShapeError
from .operators import (
    annihilator,
    as_matrix,
    dagger,
    identity,
    imag_part,
    is_hermitian,
    is_unitary,
    kron,
)

DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class BlockOperatorMatrix:
    """A grid of equally sized operator blocks stored as one dense matrix.

    Carries the characteristic operator T(s), the all-pass kernel Sigma(s)
    and the model matrix.
    """

    data: np.ndarray
    block_dim: int

    def __post_init__(self):
        data = as_matrix(self.data, "block matrix data")
        object.__setattr__(self, "data", data)
        d = self.block_dim
        if d < 1 or data.shape[0] % d or data.shape[1] % d:
            raise ShapeError(
                f"block matrix data has shape {data.shape}, "
                f"not a grid of {d} x {d} blocks"
            )

    @property
    def n_blocks_row(self) -> int:
        return self.data.shape[0] // self.block_dim

    @property
    def n_blocks_col(self) -> int:
        return self.data.shape[1] // self.block_dim

    def block(self, j: int, k: int) -> np.ndarray:
        """The (j, k) operator block (block_dim x block_dim)."""
        d = self.block_dim
        return self.data[j * d:(j + 1) * d, k * d:(k + 1) * d]


@dataclass(frozen=True)
class ValidationReport:
    """Residuals from validating an SLH triple (report style, never raises)."""

    s_unitarity: float
    h_hermiticity: float
    messages: tuple = ()

    def passed(self, tol: float = DEFAULT_TOL) -> bool:
        return self.s_unitarity <= tol and self.h_hermiticity <= tol


@dataclass(frozen=True)
class HeisenbergCoefficients:
    """Coefficients of the Heisenberg equation of motion for one observable.

    ``drift`` is the Lindblad generator applied to X, ``creation[i]`` and
    ``annihilation[i]`` multiply dB_i* and dB_i, and ``gauge[j][k]`` multiplies
    the gauge process increment for input pair (j, k).
    """

    drift: np.ndarray
    creation: tuple
    annihilation: tuple
    gauge: tuple  # tuple of tuples, n x n


@dataclass(frozen=True)
class SLHModel:
    """Validated-shape SLH triple; unitarity/Hermiticity checked via validate()."""

    S: np.ndarray
    L: np.ndarray
    H: np.ndarray
    n_inputs: int = field(default=0)
    dim: int = field(default=0)
    basis_labels: tuple | None = None

    def __post_init__(self):
        S = as_matrix(self.S, "S")
        L = as_matrix(self.L, "L")
        H = as_matrix(self.H, "H")
        m = H.shape[0]
        if H.shape != (m, m):
            raise ShapeError(f"H must be square, got {H.shape}")
        if L.shape[1] != m or L.shape[0] % m != 0:
            raise ShapeError(
                f"L must be (n*m) x m with m = {m}, got {L.shape}"
            )
        n = L.shape[0] // m
        if S.shape != (n * m, n * m):
            raise ShapeError(
                f"S must be {n * m} x {n * m} for n = {n}, m = {m}, got {S.shape}"
            )
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "n_inputs", n)
        object.__setattr__(self, "dim", m)
        if self.basis_labels is not None:
            labels = tuple(str(x) for x in self.basis_labels)
            if len(labels) != m:
                raise ShapeError("basis_labels length must equal dim")
            object.__setattr__(self, "basis_labels", labels)

    # -- block views ---------------------------------------------------------
    def s_block(self, i: int, j: int) -> np.ndarray:
        m = self.dim
        return self.S[i * m:(i + 1) * m, j * m:(j + 1) * m]

    def l_block(self, i: int) -> np.ndarray:
        m = self.dim
        return self.L[i * m:(i + 1) * m, :]


def validate(model: SLHModel, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Residual report: S unitarity and H Hermiticity (shapes are checked on construction)."""
    _, s_res = is_unitary(model.S, tol)
    _, h_res = is_hermitian(model.H, tol)
    msgs = []
    if s_res > tol:
        msgs.append(f"S fails unitarity: residual {s_res:.3e} > tol {tol:.1e}")
    if h_res > tol:
        msgs.append(f"H fails Hermiticity: residual {h_res:.3e} > tol {tol:.1e}")
    return ValidationReport(
        s_unitarity=s_res, h_hermiticity=h_res, messages=tuple(msgs)
    )


def k_operator(model: SLHModel) -> np.ndarray:
    """K = -1/2 sum_i L_i* L_i - i H (m x m)."""
    return -0.5 * dagger(model.L) @ model.L - 1j * model.H


def model_matrix(model: SLHModel) -> BlockOperatorMatrix:
    """The (n+1) x (n+1) block matrix [[K, -L*S], [L, S]] with m x m blocks."""
    n, m = model.n_inputs, model.dim
    V = np.zeros(((n + 1) * m, (n + 1) * m), dtype=complex)
    V[:m, :m] = k_operator(model)
    V[:m, m:] = -dagger(model.L) @ model.S
    V[m:, :m] = model.L
    V[m:, m:] = model.S
    return BlockOperatorMatrix(V, m)


def heisenberg_coeffs(model: SLHModel, X) -> HeisenbergCoefficients:
    """Heisenberg equation coefficients for the plant observable X.

    drift          = 1/2 sum_i L_i*[X, L_i] + 1/2 sum_i [L_i*, X] L_i - i[X, H]
    creation[i]    = sum_j S_ji* [X, L_j]
    annihilation[i]= sum_k [L_k*, X] S_ki
    gauge[i][k]    = sum_j S_ji* X S_jk - delta_ik X

    With X_n = I_n (x) X these are the blocks of whole matrices: the drift
    is 1/2 L*(X_n L - L X) + 1/2 (L* X_n - X L*) L - i[X, H], creation and
    annihilation split S*(X_n L - L X) and (L* X_n - X L*) S, and gauge
    splits S* X_n S - X_n.
    """
    X = as_matrix(X, "X")
    n, m = model.n_inputs, model.dim
    if X.shape != (m, m):
        raise ShapeError(f"X must be {m} x {m}, got {X.shape}")
    S, Sd, L, Ld = model.S, dagger(model.S), model.L, dagger(model.L)
    Xn = kron(identity(n), X)
    XL = Xn @ L - L @ X      # stacked [X, L_j]
    LX = Ld @ Xn - X @ Ld    # row of [L_k*, X]
    drift = 0.5 * Ld @ XL + 0.5 * LX @ L - 1j * (X @ model.H - model.H @ X)
    G = Sd @ Xn @ S - Xn
    return HeisenbergCoefficients(
        drift=drift,
        creation=tuple(np.split(Sd @ XL, n)),
        annihilation=tuple(np.split(LX @ S, n, axis=1)),
        gauge=tuple(tuple(np.split(row, n, axis=1)) for row in np.split(G, n)),
    )


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
    """
    B, A = downstream, upstream
    if B.n_inputs != A.n_inputs:
        raise ShapeError(
            f"series product needs matching input counts, got {B.n_inputs} and {A.n_inputs}"
        )
    mB, mA = B.dim, A.dim
    IA, IB = identity(mA), identity(mB)
    S = _block_kron(B.S, A.S, mB, mA)
    L = _block_kron(B.L, IA, mB, mA) + _block_kron(B.S, A.L, mB, mA)
    cross = _block_kron(dagger(B.L) @ B.S, A.L, mB, mA)
    H = kron(B.H, IA) + kron(IB, A.H) + imag_part(cross)
    return SLHModel(S=S, L=L, H=H)


def _check_unitary(V, tol: float = DEFAULT_TOL):
    ok, res = is_unitary(V, tol)
    if not ok:
        raise BadParam(f"V is not unitary: residual {res:.3e}")


def rotate(model: SLHModel, V, tol: float = DEFAULT_TOL) -> SLHModel:
    """Basis rotation (V*SV, V*LV, V*HV), applied blockwise to S and L."""
    V = as_matrix(V, "V")
    _check_unitary(V, tol)
    n = model.n_inputs
    Vn = kron(identity(n), V)
    return SLHModel(
        S=dagger(Vn) @ model.S @ Vn,
        L=dagger(Vn) @ model.L @ V,
        H=dagger(V) @ model.H @ V,
    )


def gauge(model: SLHModel, V, tol: float = DEFAULT_TOL) -> SLHModel:
    """Gauge change (S, LV, V*HV); leaves the characteristic operator invariant."""
    V = as_matrix(V, "V")
    _check_unitary(V, tol)
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


def mode_operators(cutoffs) -> list:
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
    modes = mode_operators(spec.cutoffs)
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
    so that A + A* + C*C = 0 and B = -C*D.
    """
    A = k_operator(model)
    C = model.L.copy()
    D = model.S.copy()
    B = -dagger(C) @ D
    return A, B, C, D
