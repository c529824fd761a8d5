"""Reference routes that the tests check the library against.

The Stratonovich route to a scaled family's adiabatic limit is an independent
derivation of what :func:`slhkit.limit_char_op` computes through the balanced
pencil.  It reads the family through its public fields and partition only.
"""

import numpy as np

from slhkit import (
    AssumptionViolated,
    InvalidFamily,
    SLHModel,
    check_assumptions,
    dagger,
    inverse,
    ito_to_stratonovich,
    max_abs,
    partition_operator,
    scaled_resolvent_limit,
)
from slhkit.adiabatic import AFF_COND_LIMIT
from slhkit.characteristic import singular_at
from slhkit.operators import DEFAULT_TOL, _lu_with_cond, cond_ok


def strat_adiabatic_limit(family, s) -> np.ndarray:
    """Adiabatic limit of T_k(s) through the Stratonovich form.

    InvalidFamily when the block structure or Hermiticity fails.
    :func:`~slhkit.ito_to_stratonovich` on (S, L0, H0) gives Ell, G0 and P0
    (CayleySingular when S has an eigenvalue at -1); with
    (S + 1)^-1 = (1 + (i/2) Ell)/2 the coefficients are

        El0(k) = G0 + k G1,              G1 = -i (1 + (i/2) Ell) L1
        E00(k) = P0 + k P1 + k^2 P2,     P1 = H1 + 1/4 (L1* Ell L0 + L0* Ell L1)
                                         P2 = H2 + 1/4 L1* Ell L1

    G1 has no slow columns.  Requires Ell to be block diagonal over the
    partition and P2_ff to be invertible (AssumptionViolated otherwise).  It
    raises ResolventSingular at poles of (s + i Ehat00_ss)^-1 that cancel in
    (I - X)(I + X)^-1, where the limit is finite; limit_char_op evaluates
    there.
    """
    report = check_assumptions(family)
    bad = {k: v for k, v in report.structural.items() if v > DEFAULT_TOL}
    if bad:
        raise InvalidFamily(f"family violates its block structure: {bad}")
    for name, r in report.hermiticity.items():
        if r > DEFAULT_TOL:
            raise InvalidFamily(f"{name} is not Hermitian: residual {r:.3e}")

    sl = np.array(family.partition.slow_indices)
    fa = np.array(family.partition.fast_indices)
    E0 = ito_to_stratonovich(SLHModel(S=family.S, L=family.L0, H=family.H0))
    Ell = E0.Ell
    cut = partition_operator(Ell, family.partition)
    off = max(max_abs(cut.X_sf), max_abs(cut.X_fs))
    if off > DEFAULT_TOL:
        raise AssumptionViolated(
            f"Ell is not block diagonal over the slow/fast split (residual {off:.3e})"
        )

    I = np.eye(Ell.shape[0], dtype=complex)
    L1f = family.L1[:, fa]
    G1f = -1j * (I + 0.5j * Ell) @ L1f
    P2ff = family.H2[np.ix_(fa, fa)] + 0.25 * dagger(L1f) @ Ell @ L1f
    P2ff = 0.5 * (P2ff + dagger(P2ff))  # Hermitian, as in ito_to_stratonovich
    P1 = family.H1 + 0.25 * (dagger(family.L1) @ Ell @ family.L0
                             + dagger(family.L0) @ Ell @ family.L1)
    cond = _lu_with_cond(P2ff)[1]
    if not cond_ok(cond, AFF_COND_LIMIT):
        raise AssumptionViolated(
            f"E00 fast-fast block is not invertible (condition estimate {cond:.3e})"
        )

    with singular_at(s, "(s + i Ehat00_ss) not invertible"):
        D = scaled_resolvent_limit(
            1j * E0.E00[np.ix_(sl, sl)], 1j * P1[np.ix_(sl, fa)],
            1j * P1[np.ix_(fa, sl)], 1j * P2ff, s)
    G = np.hstack([E0.El0[:, sl], G1f])  # columns ordered (slow, fast)
    X = 0.5j * Ell + 0.5 * G @ np.block([[D.X_ss, D.X_sf], [D.X_fs, D.X_ff]]) @ dagger(G)
    with singular_at(s, "(I + X(s)) not invertible"):
        return (I - X) @ inverse(I + X)
