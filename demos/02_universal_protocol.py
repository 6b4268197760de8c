"""The best universal scheme: half the branches succeed, half hold a mirror.

Spending 2 e-bits, 2 classical bits forward and only 1 bit back, Bob ends
with U|psi> whenever his final measurement reads 0. When it reads 1 he holds
U sz|psi> instead: U applied to the mirror state, which nothing local can
fix without knowing more about U. Every branch of the tree is enumerated
exactly below, so the 50% figure is a sum of probabilities, not a statistic.
"""

import numpy as np

from remotegate import (
    ProtocolConfig,
    StateVector,
    random_qubit,
    random_unimodular,
    run_bqst,
    run_universal_221,
    sigma_z,
    success_probability,
)

rng = np.random.default_rng(7)
u = random_unimodular(rng)
psi = random_qubit(rng)
print(f"black box U =\n{np.round(u.matrix, 4)}")
print(f"Bob's input |psi> = {np.round(psi, 4)}\n")

print("=== baseline: teleport the state out and back ===")
outs = run_bqst(ProtocolConfig(u=u, psi=psi))
ledger = outs[0].ledger
print(f"{len(outs)} branches, min fidelity {min(o.target_fidelity for o in outs):.12f}, "
      f"ledger ({ledger.ebits_consumed}, {ledger.cbits_a_to_b}, {ledger.cbits_b_to_a})")

print("\n=== universal protocol with only 1 bit Bob -> Alice ===")
outs = run_universal_221(ProtocolConfig(u=u, psi=psi))
ledger = outs[0].ledger
print(f"ledger ({ledger.ebits_consumed} e-bits, {ledger.cbits_a_to_b} bits A->B, "
      f"{ledger.cbits_b_to_a} bit B->A)")
print(f"{'branch':<10} {'prob':>8} {'fidelity':>10}  outcome")
for out in outs:
    tag = "success" if out.succeeded else "mirror"
    print(f"{out.branch_id:<10} {out.probability:>8.4f} {out.target_fidelity:>10.6f}  {tag}")

print(f"\ntotal success probability: {success_probability(outs):.12f}")

# The failed branches are not garbage: they hold U sz|psi> exactly.
mirror_target = StateVector(u.matrix @ sigma_z @ psi, outs[0].bob_final.register)
worst = min(
    abs(np.vdot(out.bob_final.amplitudes, mirror_target.amplitudes)) ** 2
    for out in outs
    if not out.succeeded
)
print(f"failed branches vs U sz|psi>: min fidelity {worst:.12f}")
print("That structure is what the restricted protocols exploit.")
