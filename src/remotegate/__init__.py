"""remotegate: exact simulation of remote single-qubit gate implementation.

Two parties connected by shared entangled pairs and a classical channel can
make a rotation, applied inside Alice's black box, act on Bob's qubit. This
package provides the exact statevector engine, the SU(2) classification of
which rotation families allow it without full bidirectional teleportation,
the protocols themselves with resource ledgers, and Bloch-sphere tools for
the geometric picture behind the final correction step.
"""

from .bloch import BlochVector, bloch_vector, density_from_bloch, mirror_state, pure_density, verify_restoration
from .circuits import ResourceLedger
from .gates import CNOT, Gate, H, X, Z, controlled, controlled_phase, hadamard_matrix, identity2, pauli_dot, sigma_x, sigma_y, sigma_z
from .operators import (
    ANTICOMMUTING,
    COMMUTING,
    GENERAL,
    CommonCorrection,
    OperatorClass,
    OrthogonalPair,
    Unimodular,
    Z_AXIS,
    check_common_correction,
    classify_operator,
    find_common_axis,
    from_axis_angle,
    orthogonal_state,
    random_qubit,
    random_unimodular,
    rz,
    solve_correction,
)
from .protocols import (
    BELL_CORRECTIONS,
    PROTOCOLS,
    BatchOutcome,
    ProtocolConfig,
    ProtocolOutcome,
    admissible,
    demo_cnot_reverse,
    demo_cp_capacity,
    demo_cp_entanglement,
    outcome_record,
    ramsey_curve,
    run_111,
    run_batch,
    run_bqst,
    run_restricted_221,
    run_universal_221,
    success_probability,
)
from .statevector import (
    BELL_VECTORS,
    InvariantViolation,
    MeasurementBranch,
    QubitId,
    StateVector,
    apply_gate,
    basis_state,
    bell_phi_plus,
    entanglement_entropy,
    factor_qubit,
    measure,
    minus_state,
    plus_state,
    qubit_state,
    reduced_density,
    tensor,
)

__version__ = "0.1.0"
