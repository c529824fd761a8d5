#!/usr/bin/env python3
"""Series-product composition and what it does to characteristic operators.

Cascading feeds one system's output into another's input.  On state space
the composite lives on the tensor product of the two plants, and its
characteristic operator is NOT the tensor product of the factors' operators;
this script exhibits both facts concretely.

  1. Compose two leaky cavities and compare against the hand-expanded
     composite triple.
  2. Show the composite stays a valid model (unitary S, Hermitian H).
  3. Evaluate the cascade's characteristic operator and measure how far it
     is from the naive tensor product.
  4. Take cavity-vacuum expectations and recover the classical transfer
     functions, which DO multiply for a cascade.
"""

import numpy as np

import slhkit as sk

G_UP, D_UP = 0.8, 0.2      # upstream cavity: damping, detuning
G_DN, D_DN = 1.3, -0.4     # downstream cavity
N_MAX = 5


def scalar_cavity_transfer(gamma, delta, s):
    return 1.0 - gamma / (s + 0.5 * gamma + 1j * delta)


def main():
    up = sk.zoo.build("linear_passive", gamma=G_UP, delta=D_UP, n_max=N_MAX)
    down = sk.zoo.build("linear_passive", gamma=G_DN, delta=D_DN, n_max=N_MAX)
    cascade = sk.series_product(down, up)

    print("cascaded cavities")
    print("-----------------")
    print(f"composite plant dim: {cascade.dim} "
          f"(= {down.dim} x {up.dim}), inputs: {cascade.n_inputs}")

    # hand-expanded composite coefficients
    a = sk.annihilator(N_MAX)
    I = sk.identity(N_MAX + 1)
    L_hand = np.sqrt(G_DN) * sk.kron(a, I) + np.sqrt(G_UP) * sk.kron(I, a)
    H_hand = (D_DN * sk.kron(sk.number(N_MAX), I)
              + D_UP * sk.kron(I, sk.number(N_MAX))
              + sk.imag_part(np.sqrt(G_DN * G_UP) * sk.kron(sk.dagger(a), a)))
    r_L = sk.max_abs(cascade.L - L_hand)
    r_H = sk.max_abs(cascade.H - H_hand)
    print(f"coupling vs hand expansion:    {r_L:.3e}")
    print(f"Hamiltonian vs hand expansion: {r_H:.3e}")
    report = sk.validate(cascade, 1e-10)
    print(f"composite validity: S {report.s_unitarity:.2e}, "
          f"H {report.h_hermiticity:.2e}")
    print()

    s = 1.0
    T_casc = sk.char_op(cascade, s)
    T_tensor = sk.kron(sk.char_op(down, s), sk.char_op(up, s))
    gap = sk.max_abs(T_casc - T_tensor)
    print(f"||T_cascade - T_down (x) T_up|| at s = {s}: {gap:.3f}")
    print("(the characteristic operator does not tensor-multiply)")
    print()

    # classical transfer functions multiply under cascading
    vac = sk.vacuum_expectation_char(cascade, s,
                                     dims=(N_MAX + 1, N_MAX + 1))[0, 0]
    product = (scalar_cavity_transfer(G_DN, D_DN, s)
               * scalar_cavity_transfer(G_UP, D_UP, s))
    r_vac = abs(vac - product)
    print(f"vacuum expectation of the cascade:   {vac:.6f}")
    print(f"product of scalar transfer functions: {product:.6f}")
    print(f"difference: {r_vac:.3e}")
    print()

    ok = r_L <= 1e-12 and r_H <= 1e-12 and gap > 0.01 and r_vac <= 1e-8
    print("composition and cascades:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
