"""Unitary designs for single qubits: construction, verification, structure.

The package provides finite averaging (twirls) over unitary sets together
with exact Haar oracles at orders 1 to 5, frame potentials,
completion of orthogonal unitary bases into 12-element 2-designs, and the
group/polytope structure of those designs on the quaternion 3-sphere.
"""

from .designs import (
    AXIS_CYCLE,
    DesignReport,
    NamedDesign,
    OneDesignFrame,
    classify_min_1design,
    clifford_bound,
    extend_to_2design,
    named_design,
    verify_design,
    verify_rotation_sum,
)
from .errors import UdesError
from .groups import (
    GroupProfile,
    PolytopeId,
    Su2Closure,
    demitesseract_class,
    group_profile,
    polytope_identify,
    so3_image_table,
    su2_closure,
)
from .qubit import bell_projector, bell_state, bloch_decompose, pauli
from .su2 import (
    AxisAngle,
    EulerAngles,
    Quaternion,
    axis_angle_of,
    canonical_su2,
    quaternion_of,
    rodrigues,
    so3_rep,
    su2_from_axis_angle,
    su2_from_euler,
    su2_from_rotation,
    su2_of_quaternion,
)
from .twirl import (
    FramePotentialReport,
    HaarSampler,
    UnitarySet,
    choi,
    choi_rank,
    frame_potential,
    haar_sample,
    haar_twirl,
    mc_oracle_check,
    superop_of_twirl,
    twirl_finite,
)

__version__ = "0.1.0"

__all__ = [
    "AXIS_CYCLE",
    "AxisAngle",
    "DesignReport",
    "EulerAngles",
    "FramePotentialReport",
    "GroupProfile",
    "HaarSampler",
    "NamedDesign",
    "OneDesignFrame",
    "PolytopeId",
    "Quaternion",
    "Su2Closure",
    "UdesError",
    "UnitarySet",
    "axis_angle_of",
    "bell_projector",
    "bell_state",
    "bloch_decompose",
    "canonical_su2",
    "choi",
    "choi_rank",
    "classify_min_1design",
    "clifford_bound",
    "demitesseract_class",
    "extend_to_2design",
    "frame_potential",
    "group_profile",
    "haar_sample",
    "haar_twirl",
    "mc_oracle_check",
    "named_design",
    "pauli",
    "polytope_identify",
    "quaternion_of",
    "rodrigues",
    "so3_image_table",
    "so3_rep",
    "su2_closure",
    "su2_from_axis_angle",
    "su2_from_euler",
    "su2_from_rotation",
    "su2_of_quaternion",
    "superop_of_twirl",
    "twirl_finite",
    "verify_design",
    "verify_rotation_sum",
    "__version__",
]
