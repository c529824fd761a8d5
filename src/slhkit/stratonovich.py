"""Conversion between HP (Ito) parameters and Stratonovich coefficients.

The Stratonovich form collects its coefficients into one Hermitian matrix

    E = [[E00, E0l], [El0, Ell]],

with E00 (m x m) and Ell (nm x nm) Hermitian and E0l = El0*.  The forward
map to HP parameters is

    S = (1 - (i/2) Ell)(1 + (i/2) Ell)^-1          (Cayley transform)
    L = i (1 + (i/2) Ell)^-1 El0
    H = E00 + 1/2 Im{ E0l (1 + (i/2) Ell)^-1 El0 }

and is taken as ground truth: one guarded solve (1 + (i/2) Ell) [S | Y] =
[1 - (i/2) Ell | El0], L = iY.  Every Cayley transform in the package is the
one step ``_cayley_step``.  The inverse map is derived to satisfy the round
trip exactly:

    Ell = 2i (S - 1)(S + 1)^-1
    El0 = -2i (S + 1)^-1 L
    E00 = H + 1/4 L* Ell L

(The sign of El0 differs from one printed source; substituting the printed
sign back into the forward map yields -L, so the round-trip-consistent sign
is used here.)  The inverse map refuses S with an eigenvalue at or near -1
as CayleySingular: where max|(S + 1)^-1| exceeds ``DEFAULT_COND_LIMIT``,
and where the rounding loss it predicts, max|(S + 1)^-1|^2 eps, exceeds
``DEFAULT_TOL`` (a maximum of about 2.1e3); Hermiticity is judged at
``DEFAULT_TOL``.

Besides the two maps, this module holds the Stratonovich-scaled family
(E00 = k^2 F00, El0 = k Fl0) and its scattering limit.  It knows nothing of
a slow/fast split.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CayleySingular, InvalidCoefficients, SingularMatrix
from .model import SLHModel, _check_fields
from .operators import (DEFAULT_TOL, as_matrix, dagger, guard_cond, imag_part,
                        inverse, is_hermitian, max_abs, solve, worst)


@dataclass(frozen=True)
class StratonovichCoefficients:
    """Hermitian coefficient matrix of the Stratonovich-form QSDE."""

    MATRIX_FIELDS = ("E00", "E0l", "El0", "Ell")

    E00: np.ndarray
    E0l: np.ndarray
    El0: np.ndarray
    Ell: np.ndarray
    n_inputs: int = field(init=False)
    dim: int = field(init=False)

    def __post_init__(self):
        _check_fields(self)

    def hermiticity_residual(self) -> float:
        return worst(
            is_hermitian(self.E00)[1],
            is_hermitian(self.Ell)[1],
            max_abs(self.E0l - dagger(self.El0)),
        )


def coefficients_from_parts(E00, El0, Ell) -> StratonovichCoefficients:
    """Build coefficients with E0l fixed to El0* (the Hermitian pairing)."""
    El0 = as_matrix(El0, "El0")
    return StratonovichCoefficients(E00=E00, E0l=dagger(El0), El0=El0, Ell=Ell)


def _cayley_step(X) -> np.ndarray:
    """(I - X)(I + X)^-1 as the guarded solve (I + X)^-1 (I - X); the factors commute."""
    I = np.eye(X.shape[0], dtype=complex)
    return solve(I + X, I - X)


def cayley(E) -> np.ndarray:
    """Cayley transform (1 - (i/2) E)(1 + (i/2) E)^-1; unitary for Hermitian E."""
    return _cayley_step(0.5j * np.asarray(E, dtype=complex))


def stratonovich_to_ito(coeffs: StratonovichCoefficients) -> SLHModel:
    """Forward map E -> (S, L, H).  Hermitian Ell makes the inverse exist."""
    r = coeffs.hermiticity_residual()
    if r > DEFAULT_TOL:
        raise InvalidCoefficients(
            f"coefficients violate Hermiticity requirements: residual {r:.3e}"
        )
    nm = coeffs.Ell.shape[0]
    I, X = np.eye(nm, dtype=complex), 0.5j * coeffs.Ell
    SY = solve(I + X, np.hstack([I - X, coeffs.El0]))  # (I + X) [S | Y] = [I - X | El0]
    S, Y = SY[:, :nm], SY[:, nm:]
    return SLHModel(S=S, L=1j * Y, H=coeffs.E00 + 0.5 * imag_part(coeffs.E0l @ Y))


def ito_to_stratonovich(model: SLHModel) -> StratonovichCoefficients:
    """Inverse map (S, L, H) -> E; fails when S has an eigenvalue at or near -1."""
    I = np.eye(model.S.shape[0], dtype=complex)
    try:
        P = inverse(model.S + I)
        # ||S + 1|| <= 2 for unitary S, so ||(S + 1)^-1|| is its condition; the
        # pivot ratio misses an S + 1 that is uniformly small
        p_max = max_abs(P)
        guard_cond(p_max)
    except SingularMatrix as exc:
        raise CayleySingular(
            f"S + 1 is not invertible (condition estimate "
            f"{exc.cond_estimate:.3e}); no Stratonovich coefficients exist"
        ) from None
    # the coefficients lose about max|(S + 1)^-1|^2 eps to rounding
    loss = p_max ** 2 * np.finfo(float).eps
    if loss > DEFAULT_TOL:
        raise CayleySingular(
            f"S + 1 is too near singular for the Stratonovich form: max|(S + 1)^-1| = "
            f"{p_max:.3e} predicts an error of {loss:.3e} > {DEFAULT_TOL:.1e}"
        )
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

    MATRIX_FIELDS = ("F00", "Fl0", "Fll")

    F00: np.ndarray
    Fl0: np.ndarray
    Fll: np.ndarray
    n_inputs: int = field(init=False)
    dim: int = field(init=False)

    def __post_init__(self):
        _check_fields(self)
        if not is_hermitian(self.F00)[0]:
            raise InvalidCoefficients("F00 must be Hermitian")
        if not is_hermitian(self.Fll)[0]:
            raise InvalidCoefficients("Fll must be Hermitian")

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
    Ehat = family.Fll - family.Fl0 @ solve(family.F00, dagger(family.Fl0))
    return cayley(Ehat)
