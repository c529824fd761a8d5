"""Shared generators for random models and families, plus acceptance reporting.

All randomness is seeded per test via fresh numpy Generators so runs are
deterministic.  The terminal-summary hook prints one PASS/FAIL line per
acceptance criterion after the run.
"""

import numpy as np
import pytest

from slhkit import BlockPartition, ScaledSLHFamily, SLHModel
from slhkit.operators import dagger


def random_complex(rng, rows, cols, scale=1.0):
    return scale * (rng.standard_normal((rows, cols))
                    + 1j * rng.standard_normal((rows, cols)))


def random_hermitian(rng, dim, scale=1.0):
    G = random_complex(rng, dim, dim, scale)
    return 0.5 * (G + dagger(G))


def random_unitary(rng, dim):
    Q, R = np.linalg.qr(random_complex(rng, dim, dim))
    d = np.diag(R)
    return Q * (d / np.abs(d))


def random_model(rng, n_inputs, dim, coupling_scale=1.0):
    """Random valid SLH model: Haar-ish unitary S, Gaussian L, Hermitian H."""
    return SLHModel(
        S=random_unitary(rng, n_inputs * dim),
        L=random_complex(rng, n_inputs * dim, dim, coupling_scale),
        H=random_hermitian(rng, dim),
    )


def random_family(rng, n_inputs, n_slow, n_fast, contiguous=True, slow=None):
    """Random scaled family satisfying the structural assumptions.

    A_ff is pushed away from singularity with a Hamiltonian offset so that
    check_assumptions passes for every draw.  ``slow`` fixes the slow
    indices; otherwise they lead, or are drawn when not ``contiguous``.
    """
    m = n_slow + n_fast
    nm = n_inputs * m
    if slow is not None:
        slow = tuple(slow)
    elif contiguous:
        slow = tuple(range(n_slow))
    else:
        slow = tuple(sorted(rng.choice(m, size=n_slow, replace=False).tolist()))
    part = BlockPartition(dim=m, slow_indices=slow)
    fast = np.array(part.fast_indices, dtype=int)
    slow_arr = np.array(part.slow_indices, dtype=int)

    L0 = random_complex(rng, nm, m)
    L1 = random_complex(rng, nm, m)
    L1[:, slow_arr] = 0.0
    H0 = random_hermitian(rng, m)
    H1 = random_hermitian(rng, m)
    H1[np.ix_(slow_arr, slow_arr)] = 0.0
    H2 = np.zeros((m, m), dtype=complex)
    H2[np.ix_(fast, fast)] = random_hermitian(rng, n_fast) + 2.0 * np.eye(n_fast)
    return ScaledSLHFamily(
        S=random_unitary(rng, nm), L0=L0, L1=L1, H0=H0, H1=H1, H2=H2,
        partition=part,
    )


def near_limit_family():
    """An m = 3 family whose A_ff = -diag(1, 9e-10)/2 has the condition
    estimate 1.111e9: invertible, but near the limit of 1e10."""
    L1 = np.zeros((3, 3))
    L1[0, 1], L1[1, 2] = 1.0, 3e-5
    L0 = np.zeros((3, 3))
    L0[2, 0] = 0.5
    H1 = np.zeros((3, 3))
    H1[0, 1] = H1[1, 0] = 0.5
    H1[0, 2] = H1[2, 0] = 0.2
    return ScaledSLHFamily(S=np.eye(3), L0=L0, L1=L1, H0=np.diag([0.3, 0.0, 0.0]),
                           H1=H1, H2=np.zeros((3, 3)),
                           partition=BlockPartition(dim=3, slow_indices=(0,)))


def near_minus_one_model(delta, seed=2032):
    """An m = 3 model whose S has the eigenvalue e^{i(pi - delta)}, delta from -1.

    S = U diag(e^{i(pi - delta)}, e^{0.3i}, e^{1.1i}) U* with a random unitary
    U, and random L and H; max|(S + 1)^-1| grows as 1/delta.
    """
    rng = np.random.default_rng(seed)
    U = random_unitary(rng, 3)
    S = U @ np.diag(np.exp(1j * np.array([np.pi - delta, 0.3, 1.1]))) @ dagger(U)
    return SLHModel(S=S, L=random_complex(rng, 3, 3), H=random_hermitian(rng, 3))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


# ---------------------------------------------------------------------------
# One PASS/FAIL line per acceptance criterion at the end of the run.
# ---------------------------------------------------------------------------


def _criterion_lines(terminalreporter):
    lines = {}
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance.py" not in nodeid or report.when != "call":
                continue
            name = nodeid.split("::")[-1]
            if not name.startswith("test_c"):
                continue
            label = name[len("test_"):]
            status = "PASS" if outcome == "passed" else "FAIL"
            lines[label] = status
    return lines


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = _criterion_lines(terminalreporter)
    if not lines:
        return
    terminalreporter.section("acceptance criteria")
    for label in sorted(lines):
        terminalreporter.write_line(f"{lines[label]}  {label}")
