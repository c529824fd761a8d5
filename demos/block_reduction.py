#!/usr/bin/env python3
"""Block decomposition of characteristic operators over a plant-space split.

A direct-sum split of the plant space partitions every coefficient, the
resolvent of K, and the characteristic operator itself into blocks.  The
resolvent blocks come from the Schur complement identity, so each block is
computed without ever inverting the full matrix; reassembling them must
reproduce the direct evaluation exactly.

  1. Random generator: Schur-complement resolvent blocks vs direct inverse.
  2. Characteristic-operator blocks of a thermal qubit: everything is
     diagonal, so the split into {down} / {up} decouples.
  3. Reduced-model certificate: the strongly detuned atom's limit model is
     a one-dimensional model plus an identity channel.
"""

import numpy as np

import slhkit as sk


def main():
    rng = np.random.default_rng(7)

    print("Schur-complement resolvent blocks")
    print("---------------------------------")
    m = 6
    K = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    part = sk.BlockPartition(dim=m, slow_indices=(0, 2, 5))
    worst = 0.0
    for _ in range(20):
        s = complex(rng.uniform(0.3, 2.0), rng.uniform(-2, 2))
        blocks = sk.schur_feshbach(sk.partition_operator(K, part), s)
        direct = sk.inverse(s * sk.identity(m) - K)
        worst = max(worst, sk.max_abs(blocks.assemble(part) - direct))
    print(f"reassembly vs direct inverse, 20 points: {worst:.3e}")
    print()

    print("decoupling of a diagonal model")
    print("------------------------------")
    qubit = sk.zoo.build("thermal_qubit", gamma=1.0, n=0.3, omega=0.8,
                         phi_plus=0.2, phi_minus=1.1)
    qpart = sk.BlockPartition(dim=2, slow_indices=(1,))
    samples = [0.5, 1.0 + 0.4j, 2.5]
    decoupled, off_residual, skipped = sk.is_decoupled(qubit, qpart, samples)
    print(f"off-block residual over {len(samples)} samples: {off_residual:.3e} "
          f"(skipped: {len(skipped)})")
    print(f"decoupled: {decoupled}")
    print()

    print("reduced-model certificate")
    print("-------------------------")
    params = dict(gamma=1.1, kappa=0.6, delta=2.5, beta=0.9, omega0=0.8)
    family = sk.zoo.build("detuned_two_level", **params)
    limit = sk.limit_slh(family)
    shifted = params["omega0"] - abs(params["beta"]) ** 2 / params["delta"]
    candidate = sk.SLHModel(S=sk.identity(1),
                            L=np.array([[np.sqrt(params["gamma"])]]),
                            H=np.array([[shifted]]))
    ok_reduced, res_reduced, _ = sk.is_reduced_model(
        limit.as_model(), candidate, sk.BlockPartition(dim=2, slow_indices=(1,)),
        samples)
    print(f"one-dimensional candidate with shifted frequency {shifted:+.4f}:")
    print(f"  certificate residual: {res_reduced:.3e} -> reduced: {ok_reduced}")

    wrong = sk.SLHModel(S=sk.identity(1),
                        L=np.array([[np.sqrt(params["gamma"])]]),
                        H=np.array([[shifted + 0.05]]))
    ok_wrong, _, _ = sk.is_reduced_model(
        limit.as_model(), wrong, sk.BlockPartition(dim=2, slow_indices=(1,)),
        samples)
    print(f"  perturbed-frequency control rejected: {not ok_wrong}")
    print()

    ok = (worst <= 1e-10 and decoupled and off_residual <= 1e-10
          and ok_reduced and not ok_wrong)
    print("block reduction:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
