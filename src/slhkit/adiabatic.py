"""Strength-scaled SLH families and their adiabatic-elimination limits.

A scaled family has coupling L(k) = k L1 + L0 and Hamiltonian
H(k) = H0 + k H1 + k^2 H2 over a slow/fast split of the plant space, with

  1. L1 annihilates the slow subspace (zero slow columns),
  2. H1 has no slow-slow block; H2 has only a fast-fast block,
  3. the fast-fast generator A_ff = -1/2 sum_a L1_af* L1_af - i H2_ff is
     invertible.

The generator decomposes as K(k) = k^2 A + k Z + R with A supported on the
fast-fast block.  As k grows the characteristic operator converges to a
limit model whose coefficients are Schur complements in A_ff.  One balanced
pencil in eps = 1/k gives T_k(s) for every k in (0, inf]; eps = 0 is the limit.
The slow-first permutation of the plant axis, the blocks A, Z, R and the
structural residuals are derived once per family object and shared by every
routine here; no other module reads a family's slow/fast layout.  The stacked
input axis is never permuted and limit models are written back by slow index,
so every limit comes back in the family's own order.  Structure and
Hermiticity are judged at ``operators.DEFAULT_TOL``; only the assumption
report's ``passed`` and ``limit_slh`` take a caller's ``tol``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .characteristic import char_op, singular_at
from .errors import AssumptionViolated, BadParam, InvalidFamily, ShapeError
from .model import BlockOperatorMatrix, SLHModel, _check_fields
from .operators import (
    DEFAULT_TOL,
    as_matrix,
    cond_ok,
    condition_estimate,
    dagger,
    imag_part,
    inverse,
    is_hermitian,
    is_unitary,
    max_abs,
    solve,
)
from .reduction import BlockPartition, BlockedOperator, block_inverse, partition_operator

AFF_COND_LIMIT = 1e10
AFF_COND_WARN = 1e8


@dataclass(frozen=True)
class ScaledSLHFamily:
    """k-parametrized triple (S, k L1 + L0, H0 + k H1 + k^2 H2) with a split."""

    MATRIX_FIELDS = ("S", "L0", "L1", "H0", "H1", "H2")

    S: np.ndarray
    L0: np.ndarray
    L1: np.ndarray
    H0: np.ndarray
    H1: np.ndarray
    H2: np.ndarray
    partition: BlockPartition
    n_inputs: int = field(init=False)
    dim: int = field(init=False)

    def __post_init__(self):
        _check_fields(self)
        if self.partition.dim != self.dim:
            raise ShapeError("partition dim must equal the plant dim")

    @cached_property
    def _slow_first(self) -> _SlowFirst:
        # The fields are read-only arrays, so the view never goes stale.
        return _SlowFirst(self)


class _SlowFirst:
    """A family's slow-first data, derived once and read-only.

    Only the plant axis is reordered so the slow block leads: the columns of
    L0 and L1 and both axes of H0, H1, H2, A, Z and R.  S and the rows of L0
    and L1 (the stacked input axis) keep the family's order, so every result
    built from them is already in that order.  Holds K(k) = k^2 A + k Z + R,
    the structural, Hermiticity and K-identity residuals, and the condition
    estimate of A_ff.  A lives on the fast-fast block and Z_ss = 0.  By
    construction the K identities R_ss + R_ss* = -L0_s* L0_s,
    Z_sf + Z_fs* = -L0_s* L1_f and A_ff + A_ff* = -L1_f* L1_f hold;
    ``identities`` holds their residuals.
    """

    def __init__(self, family: ScaledSLHFamily):
        part = family.partition
        self.m, self.n, self.ms = family.dim, family.n_inputs, part.n_slow
        self.sl, self.fa = slice(0, self.ms), slice(self.ms, self.m)
        perm = part.perm
        self.S = family.S
        self.L0 = family.L0[:, perm]
        self.L1 = family.L1[:, perm]
        self.H0 = family.H0[perm[:, None], perm]
        self.H1 = family.H1[perm[:, None], perm]
        self.H2 = family.H2[perm[:, None], perm]
        self.A = -0.5 * dagger(self.L1) @ self.L1 - 1j * self.H2
        self.Z = (-0.5 * (dagger(self.L1) @ self.L0 + dagger(self.L0) @ self.L1)
                  - 1j * self.H1)
        self.R = -0.5 * dagger(self.L0) @ self.L0 - 1j * self.H0
        for M in (self.S, self.L0, self.L1, self.H0, self.H1, self.H2,
                  self.A, self.Z, self.R):
            M.setflags(write=False)
        sl, fa = self.sl, self.fa
        self.structural = {
            "L1_slow_columns": max_abs(self.L1[:, sl]),
            "H1_ss": max_abs(self.H1[sl, sl]),
            "H2_ss": max_abs(self.H2[sl, sl]),
            "H2_sf": max_abs(self.H2[sl, fa]),
            "H2_fs": max_abs(self.H2[fa, sl]),
        }
        self.hermiticity = {
            name: is_hermitian(M)[1]
            for name, M in (("H0", family.H0), ("H1", family.H1), ("H2", family.H2))
        }
        L0s, L1f, A_ff = self.L0[:, sl], self.L1[:, fa], self.A[fa, fa]
        R_ss, Z_sf, Z_fs = self.R[sl, sl], self.Z[sl, fa], self.Z[fa, sl]
        self.identities = {
            "R_ss": max_abs(R_ss + dagger(R_ss) + dagger(L0s) @ L0s),
            "Z_sf": max_abs(Z_sf + dagger(Z_fs) + dagger(L0s) @ L1f),
            "A_ff": max_abs(A_ff + dagger(A_ff) + dagger(L1f) @ L1f),
        }
        self.aff_condition = condition_estimate(A_ff)


def _require_structure(family: ScaledSLHFamily) -> _SlowFirst:
    """The family's slow-first view, once its structure and Hermiticity hold."""
    p = family._slow_first
    bad = {k: v for k, v in p.structural.items() if v > DEFAULT_TOL}
    if bad:
        raise InvalidFamily(f"family violates its block structure: {bad}")
    for name, r in p.hermiticity.items():
        if r > DEFAULT_TOL:
            raise InvalidFamily(f"{name} is not Hermitian: residual {r:.3e}")
    return p


def assemble_k(family: ScaledSLHFamily, k: float) -> SLHModel:
    """The SLH triple at strength k: (S, k L1 + L0, H0 + k H1 + k^2 H2)."""
    _require_structure(family)
    return SLHModel(
        S=family.S,
        L=k * family.L1 + family.L0,
        H=family.H0 + k * family.H1 + k * k * family.H2,
    )


@dataclass(frozen=True)
class AssumptionReport:
    """Residual report for the scaled-family assumptions."""

    structural: dict
    hermiticity: dict
    s_unitarity: float
    aff_condition: float
    aff_invertible: bool
    k_identity_residuals: dict
    messages: tuple = ()

    def passed(self, tol: float = DEFAULT_TOL) -> bool:
        worst = max(
            max(self.structural.values()),
            max(self.hermiticity.values()),
            self.s_unitarity,
        )
        return worst <= tol and self.aff_invertible


def check_assumptions(family: ScaledSLHFamily) -> AssumptionReport:
    """Report on structure, Hermiticity, S unitarity, and A_ff invertibility."""
    p = family._slow_first
    _, s_res = is_unitary(family.S)
    cond = p.aff_condition
    invertible = cond_ok(cond, AFF_COND_LIMIT)
    msgs = []
    if invertible and cond > AFF_COND_WARN:
        msgs.append(f"A_ff condition estimate {cond:.3e} is near the limit")
        warnings.warn(msgs[-1], RuntimeWarning, stacklevel=2)
    if not invertible:
        msgs.append(f"A_ff is not invertible (condition estimate {cond:.3e})")
    try:  # reported only once structure and Hermiticity hold at DEFAULT_TOL
        identities = dict(_require_structure(family).identities)
    except InvalidFamily:
        identities = {}
    return AssumptionReport(
        structural=dict(p.structural),
        hermiticity=dict(p.hermiticity),
        s_unitarity=s_res,
        aff_condition=cond,
        aff_invertible=invertible,
        k_identity_residuals=identities,
        messages=tuple(msgs),
    )


def _require_assumptions(family: ScaledSLHFamily, tol: float = DEFAULT_TOL) -> _SlowFirst:
    """The family's slow-first view, once it passes the limit assumptions."""
    report = check_assumptions(family)
    if not report.passed(tol):
        raise AssumptionViolated(
            "family fails the limit assumptions: "
            f"structural={report.structural}, A_ff condition={report.aff_condition:.3e}"
        )
    return family._slow_first


def scaled_resolvent_limit(M11, M12, M21, M22, s) -> BlockedOperator:
    """k -> infinity limit of diag(1, k) (s + M(k))^-1 diag(1, k).

    For M(k) = [[M11, k M12 + o(k)], [k M21 + o(k), k^2 M22 + o(k)]] with M22
    invertible, the limit blocks are

        [[ (s + Mhat11)^-1,              -(s + Mhat11)^-1 M12 M22^-1 ],
         [ -M22^-1 M21 (s + Mhat11)^-1,   M22^-1 + M22^-1 M21 (s + Mhat11)^-1 M12 M22^-1 ]]

    with the Schur complement Mhat11 = M11 - M12 M22^-1 M21: the
    :func:`~slhkit.reduction.block_inverse` of [[s + M11, M12], [M21, M22]].
    """
    M11, M12, M21, M22 = (np.asarray(M, dtype=complex) for M in (M11, M12, M21, M22))
    with singular_at(s):
        D, _ = block_inverse(s * np.eye(M11.shape[0]) + M11, M12, M21, M22)
    return D


def _pencil_char_op(p: _SlowFirst, s, eps: float) -> np.ndarray:
    """T_k(s) = S - G N^-1 G* S at eps = 1/k; eps = 0 is the limit.

    With W = diag(1, eps), Z_ss = 0 and A fast-fast only, N = W (s - K(1/eps)) W
    and G = L(1/eps) W are O(1) for every k >= 1:

        N = [[ s - R_ss,            -(Z_sf + eps R_sf)                    ],
             [ -(Z_fs + eps R_fs),  -(A_ff + eps Z_ff) + eps^2 (s - R_ff) ]]
        G = [ L0_s | L1_f + eps L0_f ]

    Below k = 1, W = I.  N is solved whole: its fast block can be singular
    where s - K(k) is not.
    """
    t, u = (eps, 1.0) if eps <= 1.0 else (1.0, 1.0 / eps)  # W = diag(1, t), k = u / t
    sl, fa = p.sl, p.fa
    w = np.where(np.arange(p.m) < p.ms, 1.0, t)
    N = w[:, None] * (s * np.eye(p.m) - p.R) * w
    N[sl, fa] -= u * p.Z[sl, fa]
    N[fa, sl] -= u * p.Z[fa, sl]
    N[fa, fa] -= u * (u * p.A[fa, fa] + t * p.Z[fa, fa])
    G = np.hstack([p.L0[:, sl], u * p.L1[:, fa] + t * p.L0[:, fa]])
    with singular_at(s, f"(s - K(k)) not invertible at k = {1 / eps if eps else np.inf:g}"):
        X = solve(N, dagger(G) @ p.S)
    return p.S - G @ X


def limit_char_op(family: ScaledSLHFamily, s) -> BlockOperatorMatrix:
    """Limit characteristic operator That(s), the balanced pencil at eps = 0.

    There N = [[s - R_ss, -Z_sf], [-Z_fs, -A_ff]], whose Schur complement in
    A_ff is s - Khat_ss.
    """
    return BlockOperatorMatrix(_pencil_char_op(_require_assumptions(family), s, 0.0),
                               family.dim)


@dataclass(frozen=True)
class LimitModel:
    """Limit SLH triple (Shat, Lhat, Hhat) in the original basis order.

    Lhat has zero fast columns and Hhat is supported on the slow-slow block.
    ``hhat_alt_residual`` is the discrepancy between the two equivalent
    closed forms of the slow Hamiltonian (should be at rounding level).
    """

    Shat: np.ndarray
    Lhat: np.ndarray
    Hhat: np.ndarray
    partition: BlockPartition
    n_inputs: int
    shat_unitarity: float
    hhat_alt_residual: float
    decoupling_residual: float
    decoupled: bool
    slow_model: SLHModel | None

    def as_model(self) -> SLHModel:
        return SLHModel(S=self.Shat, L=self.Lhat, H=self.Hhat)


def limit_slh(family: ScaledSLHFamily, tol: float = DEFAULT_TOL) -> LimitModel:
    """Limit SLH parameters, all Schur complements in A_ff:

        Shat_ab = (delta_ac + L1_af A_ff^-1 L1_cf*) S_cb
        Lhat_a  = L0_as - L1_af A_ff^-1 Z_fs
        Hhat_ss = H0_ss + Im{ Z_sf A_ff^-1 Z_fs }

    The slow Hamiltonian is also computed through its expanded alternative
    form and the two are compared; the result carries the decoupling verdict
    (Lhat_f = Shat_sf = Shat_fs = 0) and, when decoupled, the reduced slow
    model (Shat_ss, Lhat_s, Hhat_ss).
    """
    p = _require_assumptions(family, tol)
    sl, fa = p.sl, p.fa
    Aff_inv = inverse(p.A[fa, fa])
    Z_sf, Z_fs = p.Z[sl, fa], p.Z[fa, sl]
    L0s, L1f = p.L0[:, sl], p.L1[:, fa]

    Shat = p.S + L1f @ Aff_inv @ dagger(L1f) @ p.S
    Lhat_slow = L0s - L1f @ Aff_inv @ Z_fs          # nm x ms
    Hhat_ss = p.H0[sl, sl] + imag_part(Z_sf @ Aff_inv @ Z_fs)

    # Alternative expanded form; the conjugated resolvents are essential.
    H1_sf, H1_fs = p.H1[sl, fa], p.H1[fa, sl]
    Aff_inv_star = dagger(Aff_inv)
    Hhat_alt = (
        p.H0[sl, sl]
        - dagger(Z_fs) @ Aff_inv_star @ H1_fs
        - H1_sf @ Aff_inv @ Z_fs
        + dagger(Z_fs) @ Aff_inv @ p.H2[fa, fa] @ Aff_inv_star @ Z_fs
    )
    alt_residual = max_abs(Hhat_ss - Hhat_alt)

    slow = np.array(family.partition.slow_indices)
    Lhat = np.zeros((p.n * p.m, p.m), dtype=complex)
    Lhat[:, slow] = Lhat_slow
    Hhat = np.zeros((p.m, p.m), dtype=complex)
    Hhat[np.ix_(slow, slow)] = Hhat_ss
    _, shat_res = is_unitary(Shat)

    dec_residual = _decoupling_residual(Shat, Lhat, family.partition)
    decoupled = dec_residual <= tol
    return LimitModel(
        Shat=Shat,
        Lhat=Lhat,
        Hhat=Hhat,
        partition=family.partition,
        n_inputs=p.n,
        shat_unitarity=shat_res,
        hhat_alt_residual=alt_residual,
        decoupling_residual=dec_residual,
        decoupled=decoupled,
        slow_model=(_slow_block(Shat, Lhat, Hhat, family.partition)
                    if decoupled else None),
    )


def _decoupling_residual(Shat, Lhat, part: BlockPartition) -> float:
    """Max of |Lhat_f|, |Shat_sf|, |Shat_fs|: limit transitions into fast states."""
    Sb, Lb = partition_operator(Shat, part), partition_operator(Lhat, part)
    return max(max_abs(Lb.X_fs), max_abs(Lb.X_ff), max_abs(Lb.X_sf),
               max_abs(Sb.X_sf), max_abs(Sb.X_fs))


def _slow_block(Shat, Lhat, Hhat, part: BlockPartition) -> SLHModel:
    """The reduced slow model (Shat_ss, Lhat_s, Hhat_ss)."""
    return SLHModel(S=partition_operator(Shat, part).X_ss,
                    L=partition_operator(Lhat, part).X_ss,
                    H=partition_operator(Hhat, part).X_ss)


def check_decoupling(limit: LimitModel):
    """Re-examine the decoupling conditions Lhat_f = Shat_sf = Shat_fs = 0.

    Returns (decoupled, residual).  When decoupled, the limit characteristic
    operator must also be block diagonal, equal to diag(T_slow(s), Shat_ff)
    at s = 1; :class:`AssumptionViolated` is raised when it is not.
    """
    part = limit.partition
    residual = _decoupling_residual(limit.Shat, limit.Lhat, part)
    ok = residual <= DEFAULT_TOL
    if ok:
        slow_model = limit.slow_model
        if slow_model is None:  # possible after limit_slh with a tighter tol
            slow_model = _slow_block(limit.Shat, limit.Lhat, limit.Hhat, part)
        Tb = partition_operator(char_op(limit.as_model(), 1.0).data, part)
        block_res = max(
            max_abs(Tb.X_sf),
            max_abs(Tb.X_fs),
            max_abs(Tb.X_ss - char_op(slow_model, 1.0).data),
            max_abs(Tb.X_ff - partition_operator(limit.Shat, part).X_ff),
        )
        if block_res > DEFAULT_TOL:
            raise AssumptionViolated(
                f"decoupled limit is not block diagonal: residual {block_res:.3e}"
            )
    return ok, residual


@dataclass(frozen=True)
class ConvergenceStudy:
    """Finite-k errors against the limit, with an optional power-law fit."""

    k_values: tuple
    errors: tuple
    slope: float | None
    log_intercept: float | None

    def rows(self):
        return list(zip(self.k_values, self.errors))


def convergence_study(family: ScaledSLHFamily, s, k_values) -> ConvergenceStudy:
    """Tabulate ||T_k(s) - That(s)|| over k and fit the log-log slope.

    Both come from the balanced pencil; each k must be finite and > 0.  The
    fit uses least squares over points with k >= 100 and is omitted when
    fewer than 3 such points exist.  The expected slope is -1 (leading 1/k
    correction), or -2 when the first-order term vanishes (``kerr_qubit``).

    Structure residuals <= ``DEFAULT_TOL`` count as exact zeros, so the study
    describes the ideal family; its literal T_k, whose residuals grow as k^2,
    can stop converging: on ``detuned_two_level`` (delta = 2) with H2_ss =
    1e-10, k = 1e2 ... 1e5 give study errors 3.2e-3 ... 3.2e-6 (slope -1) but
    char_op(assemble_k(family, k)) errors 3.2e-3, 3.2e-4, 4.0e-3, 0.30.
    """
    ks = [float(k) for k in k_values]
    bad = [k for k in ks if not (np.isfinite(k) and k > 0)]
    if bad:
        raise BadParam(f"strengths k must be finite and > 0, got {bad}")
    p = _require_assumptions(family)
    That = _pencil_char_op(p, s, 0.0)
    errors = [max_abs(_pencil_char_op(p, s, 1.0 / k) - That) for k in ks]
    fit_pts = [(k, e) for k, e in zip(ks, errors) if k >= 100 and e > 0]
    slope = intercept = None
    if len(fit_pts) >= 3:
        lk = np.log10([k for k, _ in fit_pts])
        le = np.log10([e for _, e in fit_pts])
        slope_, intercept_ = np.polyfit(lk, le, 1)
        slope, intercept = float(slope_), float(intercept_)
    return ConvergenceStudy(
        k_values=tuple(ks), errors=tuple(errors),
        slope=slope, log_intercept=intercept,
    )


def slow_indices_from_kernel(L1, H2):
    """Slow indices = joint null space of A = -1/2 L1*L1 - i H2 and A*.

    Only basis-aligned kernels are supported: the null-space projector must
    be diagonal with 0/1 entries to within the threshold.  User-supplied
    partitions always take precedence over this helper.
    """
    L1 = as_matrix(L1, "L1")
    H2 = as_matrix(H2, "H2")
    m = H2.shape[0]
    A = -0.5 * dagger(L1) @ L1 - 1j * H2

    def _null_projector(M):
        U, sing, Vh = np.linalg.svd(M)
        smax = sing[0] if sing.size else 0.0
        null = Vh[sing <= 1e-10 * max(smax, 1.0), :].conj().T
        return null @ dagger(null), null.shape[1]

    P, dim_null = _null_projector(A)
    P_star, dim_null_star = _null_projector(dagger(A))
    if dim_null == 0 or dim_null >= m:
        raise BadParam(f"kernel of A has dimension {dim_null}; no proper split exists")
    if dim_null != dim_null_star or max_abs(P - P_star) > 1e-8:
        raise BadParam("kernels of A and A* differ; no invariant basis split exists")
    diag = np.real(np.diag(P))
    off = max_abs(P - np.diag(np.diag(P)))
    if off > 1e-8 or not np.all((diag < 1e-8) | (diag > 1 - 1e-8)):
        raise BadParam("kernel of A is not aligned with the computational basis")
    return tuple(int(i) for i in np.flatnonzero(diag > 0.5))
