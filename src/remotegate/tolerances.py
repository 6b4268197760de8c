"""Every numerical threshold in the package, one name each.

The order follows the README "Conventions" section. Each threshold is
compared so that NaN fails it (``not residual <= TOL``), and the public
boundaries reject non-finite input before any threshold sees it.
"""

# -- states and operators on entry ------------------------------------------

#: A state whose norm is below this is rejected as zero instead of normalized.
NORM_TOL = 1e-10
#: How far from 1 the norm of a state passed as normalized may be.
STATE_NORM_TOL = 1e-10
#: Entrywise bound on G^dag G - 1 for a gate.
UNITARY_TOL = 1e-10
#: How far |a|^2 + |b|^2 of a unimodular pair may be from 1.
UNIMODULAR_TOL = 1e-10
#: Entrywise distance between a matrix and the unimodular form it is read as.
SPECIAL_UNITARY_TOL = 1e-9
#: How far from 1 the norm of a rotation or classification axis may be.
AXIS_NORM_TOL = 1e-9
#: An axis spec shorter than this cannot be normalized.
ZERO_AXIS_NORM = 1e-12

# -- classification and axis search -----------------------------------------

#: Frobenius-norm threshold for the (anti)commutation tests.
CLASS_TOL = 1e-9
#: Operators within this distance of +/-1 carry no axis information.
CENTRAL_TOL = 1e-9
#: Below this |sin(lambda)| the product U2^dag U1 counts as proportional to 1.
DEGENERACY_TOL = 1e-8
#: Two axes whose cross product is shorter than this give no candidate axis.
CROSS_TOL = 1e-6
#: Components below this cannot fix the sign of an axis.
SIGN_TOL = 1e-7

# -- measurement --------------------------------------------------------------

#: ``measure`` drops branches below this probability: their post-states
#: carry no weight and cannot be renormalized. The compile reads no tolerance.
BRANCH_PRUNE = 1e-12
#: How far an exact probability (a branch sum, a repeated outcome) may be from 1.
PROB_TOL = 1e-10
#: How far the branch probabilities handed to the sampler may sum from 1.
SAMPLE_SUM_TOL = 1e-8
#: Density-matrix eigenvalues below this add nothing to an entropy.
ENTROPY_CUTOFF = 1e-15
#: Largest admissible second Schmidt coefficient when factoring a qubit out.
FACTOR_TOL = 1e-9

# -- derived equalities ---------------------------------------------------------

#: Equalities derived through several steps: fidelities, correction
#: identities, entropies, Bloch norms.
DERIVED_TOL = 1e-9
#: Entrywise agreement of two closed forms of one operator.
OPERATOR_EQ_TOL = 1e-10
#: Results that differ only by the rounding of a few operations.
ROUNDING_TOL = 1e-12
#: A branch succeeds when its fidelity to the target is within this of 1.
SUCCESS_TOL = 1e-9
#: Hermiticity, unit trace and positivity of a density matrix.
DENSITY_TOL = 1e-9
#: Entrywise agreement of the restored and the target density matrix.
RESTORE_TOL = 1e-9
#: Angle, in radians, between a recovered axis and the true one.
AXIS_ANGLE_TOL = 1e-6
