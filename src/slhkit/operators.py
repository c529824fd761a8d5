"""Dense complex matrix algebra and constructors for standard operators.

Everything in this package runs on plain ``numpy`` arrays of dtype
``complex128``.  Problem sizes are desk scale (a few hundred rows at most),
so all storage is dense and all tolerance checks use the max-absolute-entry
norm returned by :func:`max_abs`; :func:`worst` folds several residuals into
one verdict.

``DEFAULT_TOL`` (1e-9) is the one default tolerance and ``DEFAULT_COND_LIMIT``
(1e12) the one inversion limit; :func:`cond_ok` alone also decides other
limits, and only the checks that the command line's ``--tol`` sets take a tol.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.linalg

from .errors import BadParam, ShapeError, SingularMatrix

DEFAULT_TOL = 1e-9
DEFAULT_COND_LIMIT = 1e12


def as_matrix(A, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-D complex128 array (copies; result is read-only)."""
    M = np.ascontiguousarray(np.array(A, dtype=complex))
    if M.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got ndim={M.ndim}")
    if not np.all(np.isfinite(M)):
        raise BadParam(f"{name} contains non-finite entries")
    M.setflags(write=False)
    return M


def max_abs(A) -> float:
    """Max absolute entry, the norm used for every tolerance check here."""
    A = np.asarray(A)
    return 0.0 if A.size == 0 else float(np.max(np.abs(A)))


def worst(*residuals) -> float:
    """The largest residual, 0.0 for none and nan when any is nan.

    Every residual verdict folds with this: Python's ``max`` keeps a nan
    only when it comes first, so a nan residual could pass a check.
    """
    return float(np.max(residuals, initial=0.0))


def dagger(A) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(A).conj().T


def kron(A, B) -> np.ndarray:
    """Kronecker product (thin alias of :func:`numpy.kron`)."""
    return np.kron(np.asarray(A, dtype=complex), np.asarray(B, dtype=complex))


def imag_part(X) -> np.ndarray:
    """Operator imaginary part Im{X} = (X - X*)/(2i); Hermitian by construction."""
    X = np.asarray(X, dtype=complex)
    return (X - dagger(X)) / 2j


def _lu_with_cond(A: np.ndarray):
    """LU factor with partial pivoting plus a cheap condition estimate.

    The estimate is max|u_ii| / min|u_ii| from the U factor diagonal.  It is
    deliberately crude; its only job is to provide an explicit failure mode
    for resolvents evaluated at or near the spectrum.  A matrix with a
    non-finite entry (an overflowed generator, say) gets the estimate inf.
    """
    finite = np.isfinite(A).all()  # the one scan; lu_factor skips its own
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # scipy warns on exactly singular U
        lu, piv = scipy.linalg.lu_factor(A, check_finite=False)
    d = np.abs(np.diag(lu))
    dmin = d.min() if d.size else 0.0
    cond = np.inf if not finite or dmin == 0.0 else float(d.max() / dmin)
    return (lu, piv), cond


def cond_ok(cond: float, limit: float) -> bool:
    """The guard decision: a condition estimate passes when finite and <= the limit."""
    return bool(np.isfinite(cond) and cond <= limit)


def guard_cond(cond: float) -> None:
    """Raise SingularMatrix carrying ``cond`` unless it passes DEFAULT_COND_LIMIT."""
    if not cond_ok(cond, DEFAULT_COND_LIMIT):
        raise SingularMatrix(
            f"condition estimate {cond:.3e} exceeds limit {DEFAULT_COND_LIMIT:.3e}",
            cond_estimate=cond,
        )


def solve(A, B) -> np.ndarray:
    """A^-1 B for square A, refusing when the condition estimate is too large.

    Raises
    ------
    SingularMatrix
        If A has a non-finite entry, the LU diagonal signals rank deficiency
        or the condition estimate exceeds ``DEFAULT_COND_LIMIT``.
    """
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ShapeError(f"solve needs a square matrix, got {A.shape}")
    if A.shape[0] == 0:
        return np.zeros(B.shape, dtype=complex)
    factors, cond = _lu_with_cond(A)
    guard_cond(cond)
    return scipy.linalg.lu_solve(factors, B)


def inverse(A) -> np.ndarray:
    """A^-1 through :func:`solve` against the identity (same guard)."""
    A = np.asarray(A, dtype=complex)
    return solve(A, np.eye(A.shape[0] if A.ndim else 0))


def is_hermitian(A):
    """Return (ok, residual) with residual = ||A - A*|| in max-abs norm."""
    A = np.asarray(A, dtype=complex)
    if A.shape[0] != A.shape[1]:
        raise ShapeError("is_hermitian needs a square matrix")
    r = max_abs(A - dagger(A))
    return r <= DEFAULT_TOL, r


def is_unitary(A):
    """Return (ok, residual) with residual = ||A*A - I|| in max-abs norm."""
    A = np.asarray(A, dtype=complex)
    if A.shape[0] != A.shape[1]:
        raise ShapeError("is_unitary needs a square matrix")
    r = max_abs(dagger(A) @ A - np.eye(A.shape[0]))
    return r <= DEFAULT_TOL, r


# ---------------------------------------------------------------------------
# Standard operator constructors.
#
# Conventions: Fock basis order |0>, |1>, ..., |n_max>; qubit basis order
# puts the up state first, |up> = (1, 0)^T, so pauli("minus") maps up to down.
# ---------------------------------------------------------------------------

_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "plus": np.array([[0, 1], [0, 0]], dtype=complex),
    "minus": np.array([[0, 0], [1, 0]], dtype=complex),
}


def pauli(kind: str) -> np.ndarray:
    """Pauli matrix: one of x, y, z, plus, minus (basis {|up>, |down>})."""
    try:
        return _PAULI[kind].copy()
    except KeyError:
        raise BadParam(f"unknown Pauli kind {kind!r}; use x|y|z|plus|minus") from None


def identity(dim: int) -> np.ndarray:
    if dim < 1:
        raise BadParam("identity dimension must be >= 1")
    return np.eye(dim, dtype=complex)


def annihilator(n_max: int) -> np.ndarray:
    """Truncated bosonic annihilator on states |0>..|n_max| (dim n_max + 1).

    The truncated pair satisfies [a, a*] = I except for the (n_max, n_max)
    entry, which equals -n_max instead of 1.
    """
    if n_max < 1:
        raise BadParam("annihilator needs n_max >= 1 (dim >= 2)")
    return np.diag(np.sqrt(np.arange(1, n_max + 1, dtype=float)), k=1).astype(complex)


def number(n_max: int) -> np.ndarray:
    """Truncated number operator diag(0, 1, ..., n_max)."""
    if n_max < 1:
        raise BadParam("number needs n_max >= 1 (dim >= 2)")
    return np.diag(np.arange(0, n_max + 1, dtype=float)).astype(complex)

