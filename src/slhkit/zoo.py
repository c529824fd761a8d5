"""Built-in example models with closed-form characteristic-operator oracles.

Each entry builds either a plain SLH model or a strength-scaled family, and
where a closed-form characteristic operator exists it is provided as an
independent oracle for the evaluators.  Two closed forms are corrected
against direct evaluation rather than transcribed verbatim (the thermal
qubit's resolvent denominators and the lambda system's decay-rate power);
both corrections are forced by unitarity on the imaginary axis and by
finite-strength convergence, respectively.
"""

from __future__ import annotations

import inspect
import numbers
from dataclasses import dataclass

import numpy as np

from .adiabatic import ScaledSLHFamily
from .errors import BadParam, NoClosedForm
from .model import LinearPassiveSpec, SLHModel, realize_passive
from .operators import annihilator, dagger, identity, kron, number, pauli
from .reduction import BlockPartition


@dataclass(frozen=True)
class ZooEntry:
    kind: str                 # "slh" or "family"
    build: callable
    closed_form: callable | None
    summary: str

    @property
    def defaults(self) -> dict:
        """Parameter defaults, read from the signature of ``build``."""
        return {name: p.default
                for name, p in inspect.signature(self.build).parameters.items()}


def _positive(value, name):
    v = float(value)
    if v <= 0:
        raise BadParam(f"{name} must be positive, got {value}")
    return v


def _cutoff(value, name="n_max", minimum=2):
    v = int(value)
    if v < minimum:
        raise BadParam(f"{name} must be >= {minimum}, got {value}")
    return v


# ---------------------------------------------------------------------------
# Lossless system: no coupling, characteristic operator constant in s.
# ---------------------------------------------------------------------------


def build_lossless(dim=2, n_inputs=1, phase=0.0, h_scale=1.0):
    m = int(dim)
    n = int(n_inputs)
    if m < 1 or n < 1:
        raise BadParam("dim and n_inputs must be >= 1")
    S = np.exp(1j * float(phase)) * identity(n * m)
    H = float(h_scale) * np.diag(np.arange(m, dtype=float)).astype(complex)
    return SLHModel(S=S, L=np.zeros((n * m, m), dtype=complex), H=H)


def closed_lossless(params, s):
    m, n = int(params["dim"]), int(params["n_inputs"])
    return np.exp(1j * float(params["phase"])) * identity(n * m)


# ---------------------------------------------------------------------------
# Single-mode linear passive cavity.
# ---------------------------------------------------------------------------


def build_linear_passive(gamma=1.0, delta=0.0, n_max=8):
    gamma = _positive(gamma, "gamma")
    spec = LinearPassiveSpec(
        D=np.array([[1.0]]), C=np.array([[np.sqrt(gamma)]]),
        omega=np.array([[float(delta)]]), cutoffs=(_cutoff(n_max, minimum=1),),
    )
    return realize_passive(spec)


def closed_linear_passive(params, s):
    """Ideal diagonal rational, one entry per Fock level (no truncation fix).

    Entry n is 1 - gamma (n+1) / (s - a (n+1)) with a = -(gamma/2 + i delta).
    On a truncated space the evaluator matches every entry except the top
    one, where the truncated raising operator removes the coupling.
    """
    gamma, delta = float(params["gamma"]), float(params["delta"])
    n_max = int(params["n_max"])
    a = -(0.5 * gamma + 1j * delta)
    levels = np.arange(n_max + 1)
    vals = 1.0 - gamma * (levels + 1) / (s - a * (levels + 1))
    return np.diag(vals.astype(complex))


# ---------------------------------------------------------------------------
# Thermal qubit with polarization-dependent scattering phases.
# ---------------------------------------------------------------------------


def build_thermal_qubit(gamma=1.0, n=0.0, omega=0.0, phi_plus=0.0, phi_minus=0.0):
    gamma = _positive(gamma, "gamma")
    occupancy = float(n)
    if not 0.0 <= occupancy <= 1.0:
        raise BadParam(f"occupancy n must be in [0, 1], got {n}")
    S = np.diag([np.exp(1j * float(phi_plus)), np.exp(1j * float(phi_minus))])
    L = np.sqrt(gamma * (occupancy + 1)) * pauli("minus") \
        + np.sqrt(gamma * occupancy) * pauli("plus")
    H = float(omega) * pauli("z")
    return SLHModel(S=S, L=L, H=H, basis_labels=("up", "down"))


def closed_thermal_qubit(params, s):
    """Diagonal rational form in the {up, down} basis.

    Derived by substituting K = diag(-g(n+1)/2 - iw, -gn/2 + iw) into the
    definition; the resolvent signs follow the derivation (which is the
    unitarity-consistent choice), not the transcription they were checked
    against.
    """
    g, n, w = float(params["gamma"]), float(params["n"]), float(params["omega"])
    fp, fm = float(params["phi_plus"]), float(params["phi_minus"])
    t_up = (s - 0.5 * g * n - 1j * w) / (s + 0.5 * g * n - 1j * w)
    t_dn = (s - 0.5 * g * (n + 1) + 1j * w) / (s + 0.5 * g * (n + 1) + 1j * w)
    return np.diag([np.exp(1j * fp) * t_up, np.exp(1j * fm) * t_dn])


# ---------------------------------------------------------------------------
# Optomechanical cavity: leaky mode with a mirror-position-dependent detuning.
# ---------------------------------------------------------------------------


def build_optomech(gamma=1.0, delta=0.0, omega0=0.0, g=0.2,
                   n_max_cavity=4, n_max_mirror=6):
    gamma = _positive(gamma, "gamma")
    nc = _cutoff(n_max_cavity, "n_max_cavity", minimum=1)
    nm_ = _cutoff(n_max_mirror, "n_max_mirror", minimum=1)
    a = kron(annihilator(nc), identity(nm_ + 1))
    b = kron(identity(nc + 1), annihilator(nm_))
    X = b + dagger(b)
    N_cav = dagger(a) @ a
    H = float(delta) * N_cav + float(omega0) * dagger(b) @ b + float(g) * X @ N_cav
    m = (nc + 1) * (nm_ + 1)
    return SLHModel(S=identity(m), L=np.sqrt(gamma) * a, H=H)


def closed_optomech(params, s):
    """Cavity-vacuum expectation as an operator on the truncated mirror space.

    Requires omega0 = 0 (static mirror).  With A(X) = -(gamma/2 + i(delta +
    g X)) the expectation is (s - gamma - A(X))(s - A(X))^-1, an operator
    rational in the mirror position X = b + b*, evaluated by diagonalizing X.
    The sign convention follows direct evaluation of the linear-passive form.
    """
    if abs(float(params["omega0"])) > 0:
        raise NoClosedForm("optomech closed form is only defined at omega0 = 0")
    gamma, delta, g = float(params["gamma"]), float(params["delta"]), float(params["g"])
    nm_ = int(params["n_max_mirror"])
    b = annihilator(nm_)
    X = b + dagger(b)
    evals, vecs = np.linalg.eigh(X)
    a_vals = -(0.5 * gamma + 1j * (delta + g * evals))
    f_vals = 1.0 - gamma / (s - a_vals)
    return vecs @ np.diag(f_vals.astype(complex)) @ dagger(vecs)


# ---------------------------------------------------------------------------
# Detuned two-level atom (scaled family): basis order (excited, ground).
# ---------------------------------------------------------------------------


def build_detuned_two_level(gamma=1.0, kappa=0.5, delta=2.0, beta=1.0 + 0j, omega0=1.0):
    gamma = _positive(gamma, "gamma")
    kappa = _positive(kappa, "kappa")
    if float(delta) <= 0:
        raise BadParam("delta must be positive (A_ff = -i delta must be invertible)")
    beta = complex(beta)
    sz = pauli("z")
    sm = pauli("minus")   # |g><e| in the (e, g) ordering
    sp = pauli("plus")
    L0 = np.sqrt(gamma) * sz + np.sqrt(kappa) * sm
    H1 = beta * sp + np.conj(beta) * sm
    H2 = np.diag([float(delta), 0.0]).astype(complex)
    H0 = float(omega0) * identity(2)
    return ScaledSLHFamily(
        S=identity(2), L0=L0, L1=np.zeros((2, 2), dtype=complex),
        H0=H0, H1=H1, H2=H2,
        partition=BlockPartition(dim=2, slow_indices=(1,)),
    )


def closed_detuned_two_level(params, s):
    """Limit form diag(1, (s - g/2 + i w')(s + g/2 + i w')^-1), basis (e, g),
    with the shifted frequency w' = omega0 - |beta|^2 / delta."""
    gamma = float(params["gamma"])
    wprime = float(params["omega0"]) - abs(complex(params["beta"])) ** 2 / float(params["delta"])
    t_g = (s - 0.5 * gamma + 1j * wprime) / (s + 0.5 * gamma + 1j * wprime)
    return np.diag([1.0 + 0j, t_g])


# ---------------------------------------------------------------------------
# Qubit driven by three input fields.
# ---------------------------------------------------------------------------


def _qubit_sigma():
    """Lowering operator |0><1| on the qubit basis (|0>, |1>)."""
    s_ = np.zeros((2, 2), dtype=complex)
    s_[0, 1] = 1.0
    return s_


def build_three_input_qubit(kappa1=1.0, kappa2=0.7, kappa3=0.4, delta=0.3, alpha=0.5 + 0j):
    kappas = [_positive(k, f"kappa{i + 1}") for i, k in enumerate((kappa1, kappa2, kappa3))]
    alpha = complex(alpha)
    sig = _qubit_sigma()
    L = np.vstack([np.sqrt(k) * sig for k in kappas])
    H = float(delta) * dagger(sig) @ sig \
        - 1j * np.sqrt(kappas[0]) * (alpha * dagger(sig) - np.conj(alpha) * sig)
    return SLHModel(S=identity(6), L=L, H=H)


def _driven_qubit_blocks(kappas, delta, alpha, s):
    """T_jk = delta_jk I2 - sqrt(k_j k_k) s / q(s) * sigma sigma*, with
    q(s) = s^2 + (kappa/2 + i delta) s + kappa_1 |alpha|^2; at alpha = 0 the
    common factor s is cancelled analytically."""
    kappa = sum(kappas)
    sig = _qubit_sigma()
    proj = sig @ dagger(sig)                      # |0><0|
    alpha = complex(alpha)
    if alpha == 0:
        weight = 1.0 / (s + 0.5 * kappa + 1j * delta)
    else:
        q = s * s + (0.5 * kappa + 1j * delta) * s + kappas[0] * abs(alpha) ** 2
        weight = s / q
    n = len(kappas)
    T = np.zeros((2 * n, 2 * n), dtype=complex)
    for j in range(n):
        for k in range(n):
            blk = -np.sqrt(kappas[j] * kappas[k]) * weight * proj
            if j == k:
                blk = blk + identity(2)
            T[2 * j:2 * j + 2, 2 * k:2 * k + 2] = blk
    return T


def closed_three_input_qubit(params, s):
    kappas = [float(params[f"kappa{i}"]) for i in (1, 2, 3)]
    return _driven_qubit_blocks(kappas, float(params["delta"]), params["alpha"], s)


# ---------------------------------------------------------------------------
# Kerr-nonlinear cavity reducing to a driven qubit (scaled family).
# ---------------------------------------------------------------------------


def build_kerr_qubit(kappa1=1.0, kappa2=0.7, delta=0.3, alpha=0.5 + 0j, chi0=1.0, n_max=8):
    """Two-input Kerr cavity at the t = 0 snapshot of its rotating frame.

    The drive's rotating phase is frozen at t = 0; the phase cancels in
    every printed limit quantity.
    """
    k1 = _positive(kappa1, "kappa1")
    k2 = _positive(kappa2, "kappa2")
    chi0 = _positive(chi0, "chi0")
    n_max = _cutoff(n_max)
    alpha = complex(alpha)
    a = annihilator(n_max)
    N = number(n_max)
    m = n_max + 1
    L0 = np.vstack([np.sqrt(k1) * a, np.sqrt(k2) * a])
    H0 = float(delta) * N - 1j * np.sqrt(k1) * (alpha * dagger(a) - np.conj(alpha) * a)
    H2 = chi0 * dagger(a) @ dagger(a) @ a @ a      # chi0 N(N-1)
    return ScaledSLHFamily(
        S=identity(2 * m), L0=L0, L1=np.zeros((2 * m, m), dtype=complex),
        H0=H0, H1=np.zeros((m, m), dtype=complex), H2=H2,
        partition=BlockPartition(dim=m, slow_indices=(0, 1)),
    )


def closed_kerr_qubit(params, s):
    """Limit characteristic operator on the slow space span{|0>, |1>}:
    the two-input driven-qubit block form (kappa = kappa1 + kappa2)."""
    kappas = [float(params["kappa1"]), float(params["kappa2"])]
    return _driven_qubit_blocks(kappas, float(params["delta"]), params["alpha"], s)


def kerr_bright_mode_rational(params, s):
    """Scalar limit entry for the bright input combination at plant state |0>:
    (s^2 - kappa s/2 + i delta s + kappa1 |alpha|^2) / (s^2 + kappa s/2 + ...)."""
    k1, k2 = float(params["kappa1"]), float(params["kappa2"])
    kappa = k1 + k2
    delta = float(params["delta"])
    drive = k1 * abs(complex(params["alpha"])) ** 2
    q = s * s + (0.5 * kappa + 1j * delta) * s + drive
    return (q - kappa * s) / q


# ---------------------------------------------------------------------------
# Lambda system: three-level atom in a lossy cavity (scaled family).
# ---------------------------------------------------------------------------


def build_lambda_system(gamma=1.0, alpha=0.5 + 0j, g=1.0, n_max=8):
    """Levels ordered (g1, g2, e); plant space is level (x) cavity mode.

    The slow subspace is the kernel of the fast generator,
    span{|g1, 0>, |g2, 0>} = indices (0, n_max + 1) at every cutoff.
    """
    gamma = _positive(gamma, "gamma")
    gcoh = _positive(g, "g")
    n_max = _cutoff(n_max)
    alpha = complex(alpha)
    d = n_max + 1
    a = annihilator(n_max)
    I3 = identity(3)
    Im = identity(d)

    def lv(i, j):
        M = np.zeros((3, 3), dtype=complex)
        M[i, j] = 1.0
        return M

    L1 = np.sqrt(gamma) * kron(I3, a)
    H2 = 1j * gcoh * (kron(lv(2, 0), a) - kron(lv(0, 2), dagger(a)))
    H1 = 1j * (alpha * kron(lv(2, 1), Im) - np.conj(alpha) * kron(lv(1, 2), Im))
    m = 3 * d
    return ScaledSLHFamily(
        S=identity(m), L0=np.zeros((m, m), dtype=complex), L1=L1,
        H0=np.zeros((m, m), dtype=complex), H1=H1, H2=H2,
        partition=BlockPartition(dim=m, slow_indices=(0, d)),
    )


def lambda_pole(params) -> float:
    """Decay rate of the limit model: gamma |alpha|^2 / (2 g^2).

    One power of gamma, not two: the limit coupling is -(sqrt(gamma)
    alpha / g) sigma, as finite-strength convergence confirms.
    """
    return float(params["gamma"]) * abs(complex(params["alpha"])) ** 2 \
        / (2.0 * float(params["g"]) ** 2)


def closed_lambda_system(params, s):
    """Limit characteristic operator on the kernel basis (|g1,0>, |g2,0>).

    diag((s - r)/(s + r), -1) with r = gamma |alpha|^2 / (2 g^2).  The -1 is
    the scattering matrix I - 2 sigma* sigma acting on the dark state; the
    rational entry matches the printed limit at gamma = 1.
    """
    r = lambda_pole(params)
    return np.diag([(s - r) / (s + r), -1.0 + 0j])


# ---------------------------------------------------------------------------
# Registry.
# ---------------------------------------------------------------------------


ENTRIES = {
    "lossless": ZooEntry(
        kind="slh", build=build_lossless,
        closed_form=closed_lossless,
        summary="no coupling; T(s) = S for every s",
    ),
    "linear_passive": ZooEntry(
        kind="slh", build=build_linear_passive,
        closed_form=closed_linear_passive,
        summary="single passive cavity mode on a truncated Fock space",
    ),
    "thermal_qubit": ZooEntry(
        kind="slh", build=build_thermal_qubit,
        closed_form=closed_thermal_qubit,
        summary="qubit in a thermal bath with polarization phases",
    ),
    "optomech": ZooEntry(
        kind="slh", build=build_optomech,
        closed_form=closed_optomech,
        summary="leaky cavity with mirror-position-dependent detuning",
    ),
    "detuned_two_level": ZooEntry(
        kind="family", build=build_detuned_two_level,
        closed_form=closed_detuned_two_level,
        summary="strongly detuned driven atom; limit shifts the frequency",
    ),
    "three_input_qubit": ZooEntry(
        kind="slh", build=build_three_input_qubit,
        closed_form=closed_three_input_qubit,
        summary="driven qubit with three input fields",
    ),
    "kerr_qubit": ZooEntry(
        kind="family", build=build_kerr_qubit,
        closed_form=closed_kerr_qubit,
        summary="strong Kerr cavity reducing to a driven qubit",
    ),
    "lambda_system": ZooEntry(
        kind="family", build=build_lambda_system,
        closed_form=closed_lambda_system,
        summary="three-level atom in a lossy cavity; two-dim dark subspace",
    ),
}


def names():
    return sorted(ENTRIES)


def entry(name: str) -> ZooEntry:
    try:
        return ENTRIES[name]
    except KeyError:
        raise BadParam(f"unknown zoo entry {name!r}; known: {', '.join(names())}") from None


# A value must fit the type of its default, the rule ``zoo`` on the command
# line parses by; a bool is never a number here.
_FITS = {int: (numbers.Integral, "an integer"), float: (numbers.Real, "a real number"),
         complex: (numbers.Number, "a number")}


def _fits(value, default) -> bool:
    return isinstance(value, _FITS[type(default)][0]) and not isinstance(value, bool)


def build(name: str, **params):
    """Instantiate a zoo entry; unknown names or parameters, values that do
    not fit the type of their default, and values out of range raise BadParam."""
    e = entry(name)
    defaults = e.defaults
    unknown = set(params) - set(defaults)
    if unknown:
        raise BadParam(f"unknown parameters for {name}: {sorted(unknown)}")
    for key, value in params.items():
        if not _fits(value, defaults[key]):
            raise BadParam(f"{name}: {key} must be {_FITS[type(defaults[key])][1]}, "
                           f"got {value!r}")
    return e.build(**params)


def closed_form_char(name: str, params: dict, s):
    """Evaluate the printed closed form of an entry at s (oracle)."""
    e = entry(name)
    if e.closed_form is None:
        raise NoClosedForm(f"{name} has no closed-form characteristic operator")
    return e.closed_form({**e.defaults, **params}, s)
