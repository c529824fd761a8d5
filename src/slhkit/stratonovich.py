"""Conversion between HP (Ito) parameters and Stratonovich coefficients.

The Stratonovich form collects its coefficients into one Hermitian matrix

    E = [[E00, E0l], [El0, Ell]],

with E00 (m x m) and Ell (nm x nm) Hermitian and E0l = El0*.  The forward
map to HP parameters is

    S = (1 - (i/2) Ell)(1 + (i/2) Ell)^-1          (Cayley transform)
    L = i (1 + (i/2) Ell)^-1 El0
    H = E00 + 1/2 Im{ E0l (1 + (i/2) Ell)^-1 El0 }

and is taken as ground truth; the inverse map is derived to satisfy the
round trip exactly:

    Ell = 2i (S - 1)(S + 1)^-1
    El0 = -2i (S + 1)^-1 L
    E00 = H + 1/4 L* Ell L

(The sign of El0 differs from one printed source; substituting the printed
sign back into the forward map yields -L, so the round-trip-consistent sign
is used here.)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AssumptionViolated,
    CayleySingular,
    InvalidCoefficients,
    ShapeError,
    SingularMatrix,
)
from .adiabatic import AFF_COND_LIMIT, scaled_resolvent_limit
from .characteristic import singular_at
from .model import SLHModel
from .operators import (
    as_matrix,
    cond_ok,
    condition_estimate,
    dagger,
    imag_part,
    inverse,
    max_abs,
)

STRAT_TOL = 1e-9


@dataclass(frozen=True)
class StratonovichCoefficients:
    """Hermitian coefficient matrix of the Stratonovich-form QSDE."""

    E00: np.ndarray
    E0l: np.ndarray
    El0: np.ndarray
    Ell: np.ndarray

    def __post_init__(self):
        E00 = as_matrix(self.E00, "E00")
        E0l = as_matrix(self.E0l, "E0l")
        El0 = as_matrix(self.El0, "El0")
        Ell = as_matrix(self.Ell, "Ell")
        m = E00.shape[0]
        nm = Ell.shape[0]
        if E00.shape != (m, m) or Ell.shape != (nm, nm):
            raise ShapeError("E00 and Ell must be square")
        if El0.shape != (nm, m) or E0l.shape != (m, nm):
            raise ShapeError("El0 must be nm x m and E0l must be m x nm")
        if nm % m != 0:
            raise ShapeError("Ell dimension must be a multiple of dim")
        for name, val in (("E00", E00), ("E0l", E0l), ("El0", El0), ("Ell", Ell)):
            object.__setattr__(self, name, val)

    @property
    def dim(self) -> int:
        return self.E00.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.Ell.shape[0] // self.dim

    def hermiticity_residual(self) -> float:
        return max(
            max_abs(self.E00 - dagger(self.E00)),
            max_abs(self.Ell - dagger(self.Ell)),
            max_abs(self.E0l - dagger(self.El0)),
        )


def coefficients_from_parts(E00, El0, Ell) -> StratonovichCoefficients:
    """Build coefficients with E0l fixed to El0* (the Hermitian pairing)."""
    El0 = as_matrix(El0, "El0")
    return StratonovichCoefficients(E00=E00, E0l=dagger(El0), El0=El0, Ell=Ell)


def cayley(E) -> np.ndarray:
    """Cayley transform (1 - (i/2) E)(1 + (i/2) E)^-1; unitary for Hermitian E."""
    E = np.asarray(E, dtype=complex)
    I = np.eye(E.shape[0], dtype=complex)
    return (I - 0.5j * E) @ inverse(I + 0.5j * E)


def stratonovich_to_ito(coeffs: StratonovichCoefficients,
                        tol: float = STRAT_TOL) -> SLHModel:
    """Forward map E -> (S, L, H).  Hermitian Ell makes the inverse exist."""
    r = coeffs.hermiticity_residual()
    if r > tol:
        raise InvalidCoefficients(
            f"coefficients violate Hermiticity requirements: residual {r:.3e}"
        )
    nm = coeffs.Ell.shape[0]
    I = np.eye(nm, dtype=complex)
    Winv = inverse(I + 0.5j * coeffs.Ell)
    S = (I - 0.5j * coeffs.Ell) @ Winv
    L = 1j * Winv @ coeffs.El0
    H = coeffs.E00 + 0.5 * imag_part(coeffs.E0l @ Winv @ coeffs.El0)
    return SLHModel(S=S, L=L, H=H)


def k_from_stratonovich(coeffs: StratonovichCoefficients) -> np.ndarray:
    """K = -i E00 - 1/2 E0l (1 + (i/2) Ell)^-1 El0."""
    nm = coeffs.Ell.shape[0]
    Winv = inverse(np.eye(nm, dtype=complex) + 0.5j * coeffs.Ell)
    return -1j * coeffs.E00 - 0.5 * coeffs.E0l @ Winv @ coeffs.El0


def ito_to_stratonovich(model: SLHModel) -> StratonovichCoefficients:
    """Inverse map (S, L, H) -> E; fails when S has an eigenvalue at -1."""
    nm = model.n_inputs * model.dim
    I = np.eye(nm, dtype=complex)
    try:
        P = inverse(model.S + I)
    except SingularMatrix as exc:
        raise CayleySingular(
            f"S + 1 is not invertible (condition estimate "
            f"{exc.cond_estimate}); no Stratonovich coefficients exist"
        ) from None
    Ell = 2j * (model.S - I) @ P
    El0 = -2j * P @ model.L
    E00 = model.H + 0.25 * dagger(model.L) @ Ell @ model.L
    # Symmetrize away the rounding skew so the result passes its invariants.
    Ell = 0.5 * (Ell + dagger(Ell))
    E00 = 0.5 * (E00 + dagger(E00))
    return coefficients_from_parts(E00=E00, El0=El0, Ell=Ell)


# ---------------------------------------------------------------------------
# k-scaled Stratonovich families and their limits.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StratScaledFamily:
    """Strength-scaled Stratonovich coefficients.

    At strength k the coefficients are E00 = k^2 F00, El0 = k Fl0, Ell = Fll.
    (The drift block must scale as k^2 for the scattering-limit formula to
    hold; a linear-in-k drift produces a different, F00-independent limit.)
    """

    F00: np.ndarray
    Fl0: np.ndarray
    Fll: np.ndarray

    def __post_init__(self):
        F00 = as_matrix(self.F00, "F00")
        Fl0 = as_matrix(self.Fl0, "Fl0")
        Fll = as_matrix(self.Fll, "Fll")
        if max_abs(F00 - dagger(F00)) > STRAT_TOL:
            raise InvalidCoefficients("F00 must be Hermitian")
        if max_abs(Fll - dagger(Fll)) > STRAT_TOL:
            raise InvalidCoefficients("Fll must be Hermitian")
        if Fl0.shape != (Fll.shape[0], F00.shape[0]):
            raise ShapeError("Fl0 must be nm x m")
        object.__setattr__(self, "F00", F00)
        object.__setattr__(self, "Fl0", Fl0)
        object.__setattr__(self, "Fll", Fll)

    def coefficients_at(self, k: float) -> StratonovichCoefficients:
        return coefficients_from_parts(
            E00=k * k * self.F00, El0=k * self.Fl0, Ell=self.Fll,
        )


def strat_scaling_limit(family: StratScaledFamily) -> np.ndarray:
    """k -> infinity limit of T_k(s): the shifted scattering matrix.

    The limit is the Cayley transform of the Schur complement
    Ell_hat = Fll - Fl0 F00^-1 F0l; it is s-independent (a pure scattering
    model, the high-energy strong-damping regime).
    """
    F00inv = inverse(family.F00)
    Ehat = family.Fll - family.Fl0 @ F00inv @ dagger(family.Fl0)
    return cayley(Ehat)


def strat_adiabatic_limit(family, s) -> np.ndarray:
    """Adiabatic limit of T_k(s) computed through the Stratonovich form.

    ``family`` is a slow/fast :class:`~slhkit.adiabatic.ScaledSLHFamily`.
    Requires Ell (computed from S) to be block diagonal with respect to the
    partition and the k^2 drift block E00_ff to be invertible.  The result
    equals the limit of the direct route (limit_slh / limit_char_op) and is
    returned in the original basis order.  It raises ResolventSingular at
    poles of (s + i Ehat00_ss)^-1 that cancel in (I - X)(I + X)^-1, where
    the limit is finite; limit_char_op evaluates there.
    """
    p = family._slow_first
    S, L0, L1, H0, H1, H2 = p.S, p.L0, p.L1, p.H0, p.H1, p.H2
    m, n, sl, fa = p.m, p.n, p.sl, p.fa
    nm = n * m

    I = np.eye(nm, dtype=complex)
    try:
        P = inverse(S + I)
    except SingularMatrix as exc:
        raise CayleySingular(
            "S + 1 not invertible; Stratonovich route unavailable"
        ) from exc
    Ell = 2j * (S - I) @ P
    Ell = 0.5 * (Ell + dagger(Ell))

    # Ell must not couple slow and fast plant sectors (within each input block).
    blocks = Ell.reshape(n, m, n, m)
    off = max(max_abs(blocks[:, sl, :, fa]), max_abs(blocks[:, fa, :, sl]))
    if off > STRAT_TOL:
        raise AssumptionViolated(
            f"Ell is not block diagonal over the slow/fast split (residual {off:.3e})"
        )

    G1 = -2j * P @ L1   # k-linear part of El0; slow columns vanish with L1's
    G0 = -2j * P @ L0
    # E00(k) = P0 + k P1 + k^2 P2 from E00 = H + (1/4) L* Ell L.
    P2 = H2 + 0.25 * dagger(L1) @ Ell @ L1
    P1 = H1 + 0.25 * (dagger(L1) @ Ell @ L0 + dagger(L0) @ Ell @ L1)
    P0 = H0 + 0.25 * dagger(L0) @ Ell @ L0

    E00ff = P2[fa, fa]
    cond = condition_estimate(E00ff)
    if not cond_ok(cond, AFF_COND_LIMIT):
        raise AssumptionViolated(
            f"E00 fast-fast block is not invertible (condition estimate {cond:.3e})"
        )

    with singular_at(s, "(s + i Ehat00_ss) not invertible"):
        D = scaled_resolvent_limit(
            1j * P0[sl, sl], 1j * P1[sl, fa], 1j * P1[fa, sl], 1j * E00ff, s)
    G = np.hstack([G0[:, sl], G1[:, fa]])  # columns ordered (slow, fast)
    X = 0.5j * Ell + 0.5 * G @ np.block([[D.X_ss, D.X_sf], [D.X_fs, D.X_ff]]) @ dagger(G)
    with singular_at(s, "(I + X(s)) not invertible"):
        T = (I - X) @ inverse(I + X)
    return p.unpermute_full(T)
