#!/usr/bin/env python3
"""Stratonovich coefficient form: conversions, evaluation, scaling limits.

The midpoint-rule form of a model collects its coefficients into one
Hermitian matrix E = [[E00, E0l], [El0, Ell]]; the scattering matrix is the
Cayley transform of Ell.  This script demonstrates:

  1. Round-trip conversion between the two parameter sets, including the
     Hermiticity of the converted blocks.
  2. The Cayley pole: a scattering matrix with a -1 eigenvalue (the lambda
     system's limit) has no Stratonovich form.
  3. Characteristic-operator evaluation straight from the coefficients, and
     its high-frequency limit (the Cayley transform of Ell).
  4. The strength-scaling limit: quadratically scaled drift plus linearly
     scaled coupling produce a pure scattering model whose matrix is the
     Cayley transform of a Schur complement.
"""

import numpy as np

import slhkit as sk


def main():
    rng = np.random.default_rng(12)
    overall = True

    print("1. round trip")
    print("-------------")
    model = sk.zoo.build("thermal_qubit", gamma=1.2, n=0.3, omega=0.7,
                         phi_plus=0.5, phi_minus=1.9)
    E = sk.ito_to_stratonovich(model)
    herm = E.hermiticity_residual()
    back = sk.stratonovich_to_ito(E)
    r_round = max(sk.max_abs(back.S - model.S), sk.max_abs(back.L - model.L),
                  sk.max_abs(back.H - model.H))
    print(f"  Hermiticity residual of converted blocks: {herm:.3e}")
    print(f"  round-trip residual: {r_round:.3e}")
    overall &= herm <= 1e-12 and r_round <= 1e-10
    print()

    print("2. Cayley pole")
    print("--------------")
    dark = sk.SLHModel(S=np.diag([1.0, -1.0]).astype(complex),
                       L=np.zeros((2, 2)), H=np.zeros((2, 2)))
    try:
        sk.ito_to_stratonovich(dark)
        caught = False
    except sk.CayleySingular as exc:
        caught = True
        print(f"  scattering with a -1 eigenvalue rejected: {exc}")
    overall &= caught
    print()

    print("3. evaluation from coefficients")
    print("-------------------------------")
    s = 0.8 + 0.4j
    r_route = sk.max_abs(sk.char_op_stratonovich(E, s)
                         - sk.char_op(model, s))
    r_hf = sk.max_abs(sk.char_op_stratonovich(E, 1e8) - sk.cayley(E.Ell))
    print(f"  agreement with the direct route at s = {s}: {r_route:.3e}")
    print(f"  high-frequency limit vs Cayley(Ell):        {r_hf:.3e}")
    overall &= r_route <= 1e-10 and r_hf <= 1e-6
    print()

    print("4. strength-scaling limit")
    print("-------------------------")
    F00 = np.array([[2.0, 0.3], [0.3, 1.5]], dtype=complex)
    Fl0 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    Fll = np.array([[0.0, 0.7], [0.7, -0.4]], dtype=complex)
    family = sk.StratScaledFamily(F00=F00, Fl0=Fl0, Fll=Fll)
    S_hat = sk.strat_scaling_limit(family)
    _, unit_res = sk.is_unitary(S_hat)
    print(f"  limit scattering unitarity residual: {unit_res:.3e}")
    errs = []
    for k in (1e2, 1e3):
        T_k = sk.char_op_stratonovich(family.coefficients_at(k), 0.9)
        errs.append(sk.max_abs(T_k - S_hat))
        print(f"  k = {k:>6g}: ||T_k - S_hat|| = {errs[-1]:.3e}")
    overall &= unit_res <= 1e-10 and errs[1] < errs[0] / 10
    print()

    print("stratonovich forms:", "PASS" if overall else "FAIL")
    return 0 if overall else 1


if __name__ == "__main__":
    raise SystemExit(main())
