#!/usr/bin/env python3
"""Characteristic-operator basics on a thermal qubit.

Walks through the core objects of the library on the simplest nontrivial
model: a qubit relaxing in a thermal bath, with polarization-dependent
scattering phases.

  1. Build the model and validate it (scattering unitary, Hamiltonian
     Hermitian).
  2. Form the damping generator K and the model matrix.
  3. Evaluate the characteristic operator T(s) three independent ways
     (direct resolvent, all-pass kernel, Stratonovich coefficients) and
     compare against the known diagonal rational form.
  4. Check unitarity of T on the imaginary axis, where the model acts as a
     pure frequency-dependent phase on its input.

Prints diagnostics and a final PASS/FAIL line.
"""

import numpy as np

import slhkit as sk

GAMMA = 1.0
OCCUPANCY = 0.4
OMEGA = 0.9
PHI_PLUS = 0.3
PHI_MINUS = 1.7


def main():
    params = dict(gamma=GAMMA, n=OCCUPANCY, omega=OMEGA,
                  phi_plus=PHI_PLUS, phi_minus=PHI_MINUS)
    model = sk.zoo.build("thermal_qubit", **params)

    print("thermal qubit model")
    print("-------------------")
    print(f"inputs n = {model.n_inputs}, plant dim m = {model.dim}")
    report = sk.validate(model)
    print(f"S unitarity residual:   {report.s_unitarity:.3e}")
    print(f"H Hermiticity residual: {report.h_hermiticity:.3e}")
    print()

    K = sk.k_operator(model)
    print("damping generator K = -1/2 L*L - iH (diagonal here):")
    print(np.round(K, 6))
    V = sk.model_matrix(model)
    m = model.dim
    print(f"model matrix: {V.shape[0] // m}x{V.shape[1] // m} blocks of {m}x{m}")
    print()

    s = 0.8 + 0.5j
    T_direct = sk.char_op(model, s)
    T_allpass = sk.char_op_allpass(model, s)
    coeffs = sk.ito_to_stratonovich(model)
    T_strat = sk.char_op_stratonovich(coeffs, s)
    oracle = sk.zoo.closed_form_char("thermal_qubit", params, s)

    r_allpass = sk.max_abs(T_allpass - T_direct)
    r_strat = sk.max_abs(T_strat - T_direct)
    r_oracle = sk.max_abs(T_direct - oracle)
    print(f"T({s}) three-route agreement:")
    print(f"  all-pass vs direct:     {r_allpass:.3e}")
    print(f"  stratonovich vs direct: {r_strat:.3e}")
    print(f"  direct vs closed form:  {r_oracle:.3e}")
    print()

    print("unitarity on the imaginary axis:")
    worst = 0.0
    for omega in np.linspace(0.1, 6.0, 12):
        ok, res = sk.unitarity_check(model, omega)
        worst = max(worst, res)
    print(f"  worst residual over 12 frequencies: {worst:.3e}")
    print()

    ok = (r_allpass <= 1e-10 and r_strat <= 1e-10
          and r_oracle <= 1e-10 and worst <= 1e-10)
    print("characteristic basics:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
