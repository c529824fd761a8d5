#!/usr/bin/env python3
"""Adiabatic elimination: limit models of strength-scaled families.

A scaled family (S, k L1 + L0, H0 + k H1 + k^2 H2) over a slow/fast split
converges, as k grows, to a limit model whose coefficients are Schur
complements in the fast-fast generator A_ff.  This script works three
examples end to end:

  1. Strongly detuned two-level atom: the limit is a one-dimensional decay
     model with the drive-shifted frequency.
  2. Lambda system (three-level atom in a lossy cavity): the fast generator
     has a two-dimensional kernel, discovered automatically; the limit has
     zero Hamiltonian, a dark-state scattering sign flip, and a coupling
     proportional to the drive.
  3. Kerr cavity: a strong nonlinearity freezes the plant into its two
     lowest photon states, leaving a driven, detuned qubit.

For each family the finite-strength evaluation is swept over k to witness
the 1/k convergence rate toward the closed-form limit.
"""

import numpy as np

import slhkit as sk

K_VALUES = [10.0, 100.0, 1000.0, 10000.0]


def show_study(name, family, s=1.0):
    study = sk.convergence_study(family, s, K_VALUES)
    print(f"  finite-k error against the limit at s = {s}:")
    for k, err in study.rows():
        print(f"    k = {k:>7g}:  {err:.3e}")
    print(f"  fitted log-log slope: {study.slope:+.3f}  "
          "(-1 generically; steeper when the linear-in-k generator vanishes)")
    return study


def main():
    overall = True

    print("1. detuned two-level atom")
    print("-------------------------")
    params = dict(gamma=1.0, kappa=0.5, delta=2.0, beta=1.0, omega0=1.0)
    fam = sk.zoo.build("detuned_two_level", **params)
    report = sk.check_assumptions(fam)
    print(f"  assumptions pass: {report.passed()}  "
          f"(A_ff condition {report.aff_condition:.2e})")
    shifted = params["omega0"] - abs(params["beta"]) ** 2 / params["delta"]
    s = 0.9
    T = sk.limit_char_op(fam, s)
    want = (s - 0.5 * params["gamma"] + 1j * shifted) \
        / (s + 0.5 * params["gamma"] + 1j * shifted)
    r = abs(T[1, 1] - want)
    print(f"  ground-state entry vs shifted rational: {r:.3e} "
          f"(shifted frequency {shifted:+.3f})")
    study = show_study("detuned", fam)
    overall &= r <= 1e-10 and abs(study.slope + 1) <= 0.3
    print()

    print("2. lambda system")
    print("----------------")
    lam_params = dict(gamma=2.0, alpha=0.5, g=1.0, n_max=6)
    lam = sk.zoo.build("lambda_system", **lam_params)
    print(f"  discovered slow indices (dark states): "
          f"{lam.partition.slow_indices} of dim {lam.dim}")
    limit = sk.limit_slh(lam)
    rows = lam.partition.stacked_rows(1, "slow")
    cols = np.array(lam.partition.slow_indices)
    S_ss = limit.Shat[np.ix_(rows, rows)]
    L_s = limit.Lhat[np.ix_(rows, cols)]
    H_ss = limit.Hhat[np.ix_(cols, cols)]
    c = np.sqrt(lam_params["gamma"]) * lam_params["alpha"] / lam_params["g"]
    print(f"  limit scattering diag: {np.round(np.diag(S_ss).real, 6)}")
    print(f"  limit coupling entry:  {L_s[0, 1]:.6f}  "
          f"(closed form {-c:.6f}, one sqrt of the decay rate)")
    print(f"  limit Hamiltonian norm: {sk.max_abs(H_ss):.3e}")
    ok_dec, _ = sk.check_decoupling(limit)
    print(f"  decoupling conditions hold: {ok_dec}")
    study = show_study("lambda", lam)
    overall &= (abs(L_s[0, 1] + c) <= 1e-10 and ok_dec
                and abs(study.slope + 1) <= 0.3)
    print()

    print("3. Kerr cavity -> qubit")
    print("-----------------------")
    kerr = sk.zoo.build("kerr_qubit", kappa1=1.0, kappa2=0.7, delta=0.3,
                        alpha=0.5, chi0=1.0, n_max=8)
    klimit = sk.limit_slh(kerr)
    rows = kerr.partition.stacked_rows(2, "slow")
    cols = np.array(kerr.partition.slow_indices)
    print(f"  slow space: photon states {kerr.partition.slow_indices}")
    print(f"  limit scattering is the identity: "
          f"{sk.max_abs(klimit.Shat[np.ix_(rows, rows)] - sk.identity(4)):.3e}")
    print(f"  limit Hamiltonian (drive + detuning on the qubit):")
    print(np.round(klimit.Hhat[np.ix_(cols, cols)], 4))
    ok_dec, _ = sk.check_decoupling(klimit)
    print(f"  decoupling conditions hold: {ok_dec}")
    # the Kerr family has no linear-in-k generator term, so it converges
    # one order faster than the generic 1/k rate
    study = show_study("kerr", kerr)
    overall &= ok_dec and study.slope <= -0.7
    print()

    print("adiabatic elimination:", "PASS" if overall else "FAIL")
    return 0 if overall else 1


if __name__ == "__main__":
    raise SystemExit(main())
