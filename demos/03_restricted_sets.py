"""The two operator families that can be sent perfectly, and only those.

A final sz repairs the mirror branch exactly when sz U sz = +/-U, i.e. when
U commutes or anticommutes with sz: arbitrary rotations about the z axis, or
half-turns about any equatorial axis. The same dichotomy survives a global
change of basis, which `find_common_axis` detects numerically.
"""

import numpy as np

from remotegate import (
    GENERAL,
    ProtocolConfig,
    Unimodular,
    check_common_correction,
    classify_operator,
    find_common_axis,
    from_axis_angle,
    random_qubit,
    random_unimodular,
    run_restricted_221,
    rz,
    sigma_x,
    sigma_y,
    sigma_z,
    solve_correction,
)

rng = np.random.default_rng(11)

print("=== classification against the z axis ===")
samples = {
    "rz(0.8)                    ": rz(0.8),
    "half-turn about x          ": from_axis_angle([1, 0, 0], np.pi),
    "half-turn about (x+y)/sqrt2": from_axis_angle(np.array([1, 1, 0]) / np.sqrt(2), np.pi),
    "rotation about x by pi/3   ": from_axis_angle([1, 0, 0], np.pi / 3),
    "Haar random                ": random_unimodular(rng),
}
for label, u in samples.items():
    print(f"  {label} -> {classify_operator(u)}")

print("\n=== the corrected protocol is exact for both families ===")
for label, u in samples.items():
    cfg = ProtocolConfig(u=u, psi=random_qubit(rng))
    try:
        outs = run_restricted_221(cfg)
        print(f"  {label} -> every branch fidelity "
              f"{min(o.target_fidelity for o in outs):.12f}")
    except ValueError:
        print(f"  {label} -> rejected (general operator)")

print("\n=== one correction operator serves the whole family ===")
family = [rz(rng.uniform(0, 2 * np.pi)) for _ in range(4)]
family += [Unimodular(0, np.exp(1j * rng.uniform(0, 2 * np.pi))) for _ in range(4)]
common = check_common_correction(family)
print(f"  common V =\n{np.round(common.v.real, 6)}")
print(f"  per-element phases: {['0' if d == 0 else 'pi' for d in common.deltas]}")
print(f"  single-operator solve on rz(0.8): V = U sz U^dag =\n"
      f"{np.round(solve_correction(rz(0.8)).real, 6)}")

print("\n=== the family structure survives a change of basis ===")
w = random_unimodular(rng)
conjugated = [
    Unimodular.from_matrix(w.matrix @ u.matrix @ w.matrix.conj().T) for u in family
]
axis = find_common_axis(conjugated)
image = w.matrix @ sigma_z @ w.matrix.conj().T
expected = np.array([np.trace(image @ s).real / 2 for s in (sigma_x, sigma_y, sigma_z)])
print(f"  recovered axis: {np.round(axis, 6)}")
print(f"  image of z:     {np.round(expected, 6)} (same up to sign)")

print("\n=== adding any general operator destroys the family ===")
general = random_unimodular(rng)
while classify_operator(general).kind != GENERAL:
    general = random_unimodular(rng)
print(f"  common correction with a general member: "
      f"{check_common_correction(family + [general])}")
print(f"  common axis with a general member:       "
      f"{find_common_axis(conjugated + [general])}")
