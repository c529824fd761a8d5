"""Block decomposition over a direct-sum split and Schur-Feshbach resolvents.

A partition splits the plant space into two orthogonal index sets (called
slow and fast throughout, matching the adiabatic use).  Partitioning is
permutation based, so extraction and reassembly are bit exact.  The
Schur-Feshbach identity expresses the blocks of (s - K)^-1 through the
shifted generator

    Khat_11(s) = K_11 + K_12 (s - K_22)^-1 K_21.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadParam, ShapeError, SingularMatrix, ResolventSingular
from .model import SLHModel, k_operator
from .operators import DEFAULT_COND_LIMIT, dagger, inverse, max_abs


@dataclass(frozen=True)
class BlockPartition:
    """Disjoint index sets covering 0..dim-1; order within each set is kept."""

    dim: int
    slow_indices: tuple
    fast_indices: tuple = None

    def __post_init__(self):
        slow = tuple(int(i) for i in self.slow_indices)
        if self.fast_indices is None:
            fast = tuple(i for i in range(self.dim) if i not in set(slow))
        else:
            fast = tuple(int(i) for i in self.fast_indices)
        sset, fset = set(slow), set(fast)
        if not slow or not fast:
            raise BadParam("both partition blocks must be nonempty")
        if len(sset) != len(slow) or len(fset) != len(fast):
            raise BadParam("partition indices must be distinct")
        if sset & fset or sset | fset != set(range(self.dim)):
            raise BadParam("partition blocks must be disjoint and cover 0..dim-1")
        object.__setattr__(self, "slow_indices", slow)
        object.__setattr__(self, "fast_indices", fast)

    @property
    def n_slow(self) -> int:
        return len(self.slow_indices)

    @property
    def n_fast(self) -> int:
        return len(self.fast_indices)

    @property
    def perm(self) -> np.ndarray:
        """Permutation placing slow indices first, then fast."""
        return np.array(self.slow_indices + self.fast_indices, dtype=int)

    def stacked_rows(self, n_inputs: int, which: str) -> np.ndarray:
        """Row indices of one plant block inside an (n*dim)-row stacked matrix."""
        idx = self.slow_indices if which == "slow" else self.fast_indices
        return np.concatenate([i * self.dim + np.array(idx, dtype=int)
                               for i in range(n_inputs)])


@dataclass(frozen=True)
class BlockedOperator:
    """The four blocks of an operator with respect to a partition."""

    X_ss: np.ndarray
    X_sf: np.ndarray
    X_fs: np.ndarray
    X_ff: np.ndarray

    def block(self, a: str, b: str) -> np.ndarray:
        return getattr(self, f"X_{a}{b}")


def partition_operator(X, partition: BlockPartition) -> BlockedOperator:
    """Exact permutation-based extraction of the four blocks of X."""
    X = np.asarray(X, dtype=complex)
    if X.shape != (partition.dim, partition.dim):
        raise ShapeError(f"operator shape {X.shape} does not match partition dim {partition.dim}")
    s = np.array(partition.slow_indices, dtype=int)
    f = np.array(partition.fast_indices, dtype=int)
    return BlockedOperator(
        X_ss=X[np.ix_(s, s)], X_sf=X[np.ix_(s, f)],
        X_fs=X[np.ix_(f, s)], X_ff=X[np.ix_(f, f)],
    )


def reassemble_operator(blocked: BlockedOperator, partition: BlockPartition) -> np.ndarray:
    """Inverse of :func:`partition_operator` (bit exact)."""
    X = np.zeros((partition.dim, partition.dim), dtype=complex)
    s = np.array(partition.slow_indices, dtype=int)
    f = np.array(partition.fast_indices, dtype=int)
    X[np.ix_(s, s)] = blocked.X_ss
    X[np.ix_(s, f)] = blocked.X_sf
    X[np.ix_(f, s)] = blocked.X_fs
    X[np.ix_(f, f)] = blocked.X_ff
    return X


@dataclass(frozen=True)
class SchurFeshbachBlocks:
    """Blocks of the resolvent (s - K)^-1 plus the shifted generator Khat_11."""

    D11: np.ndarray
    D12: np.ndarray
    D21: np.ndarray
    D22: np.ndarray
    Khat11: np.ndarray
    s: complex

    def assemble(self, partition: BlockPartition) -> np.ndarray:
        return reassemble_operator(
            BlockedOperator(self.D11, self.D12, self.D21, self.D22), partition
        )


def schur_feshbach(Kblocked: BlockedOperator, s,
                   cond_limit: float = DEFAULT_COND_LIMIT) -> SchurFeshbachBlocks:
    """Resolvent blocks of (s - K)^-1 from the Schur-Feshbach identity.

    With Delta_22 = (s - K_22)^-1 and Khat_11(s) = K_11 + K_12 Delta_22 K_21:

        D11 = (s - Khat_11)^-1
        D12 = D11 K_12 Delta_22
        D21 = Delta_22 K_21 D11
        D22 = Delta_22 + Delta_22 K_21 D11 K_12 Delta_22
    """
    mf = Kblocked.X_ff.shape[0]
    ms = Kblocked.X_ss.shape[0]
    try:
        Delta22 = inverse(s * np.eye(mf) - Kblocked.X_ff, cond_limit)
    except SingularMatrix as exc:
        raise ResolventSingular(s, "(s - K_22) not invertible",
                                cond_estimate=exc.cond_estimate) from None
    Khat11 = Kblocked.X_ss + Kblocked.X_sf @ Delta22 @ Kblocked.X_fs
    try:
        D11 = inverse(s * np.eye(ms) - Khat11, cond_limit)
    except SingularMatrix as exc:
        raise ResolventSingular(s, "(s - Khat_11(s)) not invertible",
                                cond_estimate=exc.cond_estimate) from None
    D12 = D11 @ Kblocked.X_sf @ Delta22
    D21 = Delta22 @ Kblocked.X_fs @ D11
    D22 = Delta22 + Delta22 @ Kblocked.X_fs @ D11 @ Kblocked.X_sf @ Delta22
    return SchurFeshbachBlocks(D11=D11, D12=D12, D21=D21, D22=D22,
                               Khat11=Khat11, s=complex(s))


def _coupling_blocks(model: SLHModel, partition: BlockPartition):
    """Plant blocks of the stacked coupling L and of L*S, keyed by (row, col)."""
    n = model.n_inputs
    rows = {a: partition.stacked_rows(n, a) for a in ("slow", "fast")}
    cols = {
        "slow": np.array(partition.slow_indices, dtype=int),
        "fast": np.array(partition.fast_indices, dtype=int),
    }
    LS = dagger(model.L) @ model.S  # m x nm
    Lb = {(a, b): model.L[np.ix_(rows[a], cols[b])] for a in rows for b in cols}
    LSb = {(a, b): LS[np.ix_(cols[a], rows[b])] for a in cols for b in rows}
    Sb = {(a, b): model.S[np.ix_(rows[a], rows[b])] for a in rows for b in rows}
    return Lb, LSb, Sb


def char_blocks(model: SLHModel, partition: BlockPartition, s,
                cond_limit: float = DEFAULT_COND_LIMIT) -> BlockedOperator:
    """Blocks T_ab(s) of the characteristic operator over the partition.

    Computed through the Schur-Feshbach resolvent blocks (not by slicing a
    direct evaluation):

        T_ab = S_ab - sum_de L_ad Dhat_de (L* S)_eb.
    """
    if partition.dim != model.dim:
        raise ShapeError("partition dim must equal the plant dim")
    Kb = partition_operator(k_operator(model), partition)
    R = schur_feshbach(Kb, s, cond_limit)
    Dhat = {
        ("slow", "slow"): R.D11, ("slow", "fast"): R.D12,
        ("fast", "slow"): R.D21, ("fast", "fast"): R.D22,
    }
    Lb, LSb, Sb = _coupling_blocks(model, partition)
    out = {}
    for a in ("slow", "fast"):
        for b in ("slow", "fast"):
            T = Sb[(a, b)].copy()
            for d in ("slow", "fast"):
                for e in ("slow", "fast"):
                    T -= Lb[(a, d)] @ Dhat[(d, e)] @ LSb[(e, b)]
            out[(a, b)] = T
    return BlockedOperator(
        X_ss=out[("slow", "slow")], X_sf=out[("slow", "fast")],
        X_fs=out[("fast", "slow")], X_ff=out[("fast", "fast")],
    )


def reassemble_char_blocks(blocks: BlockedOperator, model: SLHModel,
                           partition: BlockPartition) -> np.ndarray:
    """Scatter T_ab blocks back into the full nm x nm matrix."""
    n, m = model.n_inputs, model.dim
    T = np.zeros((n * m, n * m), dtype=complex)
    rows = {a: partition.stacked_rows(n, a) for a in ("slow", "fast")}
    for a in ("slow", "fast"):
        for b in ("slow", "fast"):
            T[np.ix_(rows[a], rows[b])] = blocks.block(a[0], b[0])
    return T


def is_decoupled(model: SLHModel, partition: BlockPartition, s_samples,
                 tol: float = 1e-9, cond_limit: float = DEFAULT_COND_LIMIT):
    """Certify T_21 = T_12 = 0 at the sampled points only.

    Returns (decoupled, max_off_block_residual, skipped) where ``skipped``
    lists sample points at which the resolvent was singular.  True
    decoupling quantifies over all s; a finite sample is what is checkable,
    so choose the grid accordingly.
    """
    worst = 0.0
    skipped = []
    checked = 0
    for s in s_samples:
        try:
            blocks = char_blocks(model, partition, s, cond_limit)
        except SingularMatrix as exc:
            skipped.append((complex(s), str(exc)))
            continue
        checked += 1
        worst = max(worst, max_abs(blocks.X_sf), max_abs(blocks.X_fs))
    ok = checked > 0 and worst <= tol
    return ok, worst, tuple(skipped)


def is_reduced_model(full: SLHModel, candidate: SLHModel,
                     partition: BlockPartition, s_samples,
                     tol: float = 1e-9, cond_limit: float = DEFAULT_COND_LIMIT):
    """Check T_full = diag(T_candidate, I) over the partition at the samples.

    The candidate must live on the slow subspace with the same input count.
    Returns (ok, worst_residual, skipped).
    """
    from .characteristic import char_op

    if candidate.n_inputs != full.n_inputs:
        raise ShapeError("candidate must have the same number of inputs")
    if candidate.dim != partition.n_slow:
        raise ShapeError("candidate dim must equal the slow block size")
    worst = 0.0
    skipped = []
    checked = 0
    n_f = partition.n_fast * full.n_inputs
    I_f = np.eye(n_f)
    for s in s_samples:
        try:
            blocks = char_blocks(full, partition, s, cond_limit)
            Tc = char_op(candidate, s, cond_limit).data
        except SingularMatrix as exc:
            skipped.append((complex(s), str(exc)))
            continue
        checked += 1
        worst = max(
            worst,
            max_abs(blocks.X_ss - Tc),
            max_abs(blocks.X_sf),
            max_abs(blocks.X_fs),
            max_abs(blocks.X_ff - I_f),
        )
    return checked > 0 and worst <= tol, worst, tuple(skipped)
