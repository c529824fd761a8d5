"""Block decomposition over a direct-sum split and Schur-Feshbach resolvents.

A partition splits the plant space into two orthogonal index sets (called
slow and fast throughout, matching the adiabatic use).  Partitioning is
permutation based, so extraction and reassembly are bit exact.  One rule cuts
every slow/fast block of any stacked axis: k * dim entries split in the order
of :meth:`BlockPartition.stacked_rows`, so plant operators (k = 1), stacked
couplings (nm x m) and n x n grids of plant blocks (nm x nm) share
:func:`partition_operator` and :func:`reassemble_operator`.

Every 2 x 2 block inverse in the package goes through one Schur-complement
step, :func:`block_inverse`: the blocks of [[a, b], [c, d]]^-1 from d^-1 and
the complement a - b d^-1 c.  The Schur-Feshbach identity is that step
applied to s - K; it expresses the blocks of (s - K)^-1 through the shifted
generator

    Khat_11(s) = K_11 + K_12 (s - K_22)^-1 K_21,

and the adiabatic limits apply it to the k-scaled generator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .characteristic import char_op, singular_at
from .errors import BadParam, ShapeError, SingularMatrix
from .model import SLHModel, k_operator
from .operators import DEFAULT_TOL, dagger, inverse, max_abs


@dataclass(frozen=True)
class BlockPartition:
    """Slow indices in the given order; the fast set is the rest of 0..dim-1, ascending."""

    dim: int
    slow_indices: tuple
    fast_indices: tuple = field(init=False)

    def __post_init__(self):
        slow = tuple(int(i) for i in self.slow_indices)
        sset = set(slow)
        fast = tuple(i for i in range(self.dim) if i not in sset)
        if not slow or not fast:
            raise BadParam("both partition blocks must be nonempty")
        if len(sset) != len(slow):
            raise BadParam("partition indices must be distinct")
        if not sset <= set(range(self.dim)):
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


def _split_axis(length: int, partition: BlockPartition):
    """Slow and fast indices of an axis of k * dim entries, k plant blocks stacked."""
    k, rest = divmod(length, partition.dim)
    if rest or not k:
        raise ShapeError(f"axis of length {length} is not a stack of "
                         f"dim-{partition.dim} plant blocks")
    return partition.stacked_rows(k, "slow"), partition.stacked_rows(k, "fast")


def partition_operator(X, partition: BlockPartition) -> BlockedOperator:
    """Exact permutation-based extraction of the four blocks of X.

    Each axis of k * dim entries is cut in :meth:`BlockPartition.stacked_rows` order.
    """
    X = np.asarray(X, dtype=complex)
    if X.ndim != 2:
        raise ShapeError(f"operator must be a matrix, got shape {X.shape}")
    rows = _split_axis(X.shape[0], partition)
    cols = _split_axis(X.shape[1], partition)
    return BlockedOperator(*(X[np.ix_(r, c)] for r in rows for c in cols))


def reassemble_operator(blocked: BlockedOperator, partition: BlockPartition) -> np.ndarray:
    """Inverse of :func:`partition_operator` (bit exact)."""
    n_rows = blocked.X_ss.shape[0] + blocked.X_fs.shape[0]
    n_cols = blocked.X_ss.shape[1] + blocked.X_sf.shape[1]
    rows, cols = _split_axis(n_rows, partition), _split_axis(n_cols, partition)
    X = np.zeros((n_rows, n_cols), dtype=complex)
    for r, a in zip(rows, "sf"):
        for c, b in zip(cols, "sf"):
            block = np.asarray(blocked.block(a, b))
            if block.shape != (len(r), len(c)):
                raise ShapeError(f"X_{a}{b} must be {len(r)} x {len(c)}, got {block.shape}")
            X[np.ix_(r, c)] = block
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


def block_inverse(a, b, c, d):
    """Blocks of [[a, b], [c, d]]^-1 through the Schur complement of d, and d^-1.

    With x = (a - b d^-1 c)^-1 the inverse is

        [[ x,             -x b d^-1                  ],
         [ -d^-1 c x,      d^-1 + d^-1 c x b d^-1     ]].

    Returns (BlockedOperator, d^-1); SingularMatrix when d or the complement
    fails the condition guard.
    """
    dinv = inverse(d)
    x = inverse(a - b @ dinv @ c)
    x_b_dinv = x @ b @ dinv
    dinv_c_x = dinv @ c @ x
    blocks = BlockedOperator(X_ss=x, X_sf=-x_b_dinv, X_fs=-dinv_c_x,
                             X_ff=dinv + dinv_c_x @ b @ dinv)
    return blocks, dinv


def schur_feshbach(Kblocked: BlockedOperator, s) -> SchurFeshbachBlocks:
    """Resolvent blocks of (s - K)^-1 from the Schur-Feshbach identity.

    :func:`block_inverse` of (s - K) with Delta_22 = (s - K_22)^-1, whose
    complement is s - Khat_11(s), Khat_11(s) = K_11 + K_12 Delta_22 K_21:

        D11 = (s - Khat_11)^-1
        D12 = D11 K_12 Delta_22
        D21 = Delta_22 K_21 D11
        D22 = Delta_22 + Delta_22 K_21 D11 K_12 Delta_22
    """
    Kb = Kblocked
    with singular_at(s, "(s - K_22) or (s - Khat_11(s)) not invertible"):
        D, Delta22 = block_inverse(s * np.eye(Kb.X_ss.shape[0]) - Kb.X_ss, -Kb.X_sf,
                                   -Kb.X_fs, s * np.eye(Kb.X_ff.shape[0]) - Kb.X_ff)
    return SchurFeshbachBlocks(D11=D.X_ss, D12=D.X_sf, D21=D.X_fs, D22=D.X_ff,
                               Khat11=Kb.X_ss + Kb.X_sf @ Delta22 @ Kb.X_fs,
                               s=complex(s))


def char_blocks(model: SLHModel, partition: BlockPartition, s) -> BlockedOperator:
    """Blocks T_ab(s) of the characteristic operator over the partition.

    Computed through the Schur-Feshbach resolvent blocks (not by slicing a
    direct evaluation): T = S - L Dhat (L* S), with Dhat the reassembled
    Schur-Feshbach blocks of (s - K)^-1, is cut into its slow/fast blocks.
    """
    if partition.dim != model.dim:
        raise ShapeError("partition dim must equal the plant dim")
    Kb = partition_operator(k_operator(model), partition)
    Dhat = schur_feshbach(Kb, s).assemble(partition)
    return partition_operator(model.S - model.L @ Dhat @ (dagger(model.L) @ model.S),
                              partition)


def reassemble_char_blocks(blocks: BlockedOperator, model: SLHModel,
                           partition: BlockPartition) -> np.ndarray:
    """Scatter T_ab blocks back into the full nm x nm matrix."""
    if partition.dim != model.dim:
        raise ShapeError("partition dim must equal the plant dim")
    return reassemble_operator(blocks, partition)


def _worst_over_samples(residual, s_samples):
    """(ok, worst, skipped) of ``residual(s)`` over the samples: singular
    points are skipped and listed; ``ok`` needs a checked point within DEFAULT_TOL."""
    worst, skipped, checked = 0.0, [], 0
    for s in s_samples:
        try:
            r = residual(s)
        except SingularMatrix as exc:
            skipped.append((complex(s), str(exc)))
            continue
        checked += 1
        worst = max(worst, r)
    return checked > 0 and worst <= DEFAULT_TOL, worst, tuple(skipped)


def is_decoupled(model: SLHModel, partition: BlockPartition, s_samples):
    """Certify T_21 = T_12 = 0 at the sampled points only.

    Returns (decoupled, max_off_block_residual, skipped) where ``skipped``
    lists sample points at which the resolvent was singular.  True
    decoupling quantifies over all s; a finite sample is what is checkable,
    so choose the grid accordingly.
    """
    def residual(s):
        blocks = char_blocks(model, partition, s)
        return max(max_abs(blocks.X_sf), max_abs(blocks.X_fs))

    return _worst_over_samples(residual, s_samples)


def is_reduced_model(full: SLHModel, candidate: SLHModel,
                     partition: BlockPartition, s_samples):
    """Check T_full = diag(T_candidate, I) over the partition at the samples.

    The candidate must live on the slow subspace with the same input count.
    Returns (ok, worst_residual, skipped).
    """
    if candidate.n_inputs != full.n_inputs:
        raise ShapeError("candidate must have the same number of inputs")
    if candidate.dim != partition.n_slow:
        raise ShapeError("candidate dim must equal the slow block size")
    I_f = np.eye(partition.n_fast * full.n_inputs)

    def residual(s):
        blocks = char_blocks(full, partition, s)
        Tc = char_op(candidate, s).data
        return max(max_abs(blocks.X_ss - Tc), max_abs(blocks.X_sf),
                   max_abs(blocks.X_fs), max_abs(blocks.X_ff - I_f))

    return _worst_over_samples(residual, s_samples)
