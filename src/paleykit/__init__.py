"""paleykit: constructive Paley projections on anisotropic Sobolev spaces.

The package builds, from a smoothness set with the parity-splitting
property, a lacunary frequency sequence and a completely bounded Paley
projection, and verifies every finite-size identity and bound behind the
construction numerically.
"""

__version__ = "0.1.0"

from .crnorm import (
    MatrixSequence,
    cr_norm,
    khintchine_envelope,
    khintchine_ratio,
)
from .errors import (
    InfeasibleError,
    InvalidSmoothnessError,
    PaleykitError,
    StageFailure,
    UnboundedError,
)
from .multiindex import (
    Smoothness,
    derivative_multiplier,
    is_smoothness,
    q_s_eval,
    saturate,
)
from .operators import (
    OperatorPipeline,
    PaleySampler,
    build_pipeline,
    composite_apply,
    composite_closed_form,
    composite_relative_error,
    convolve_riesz,
    coordinate_projection,
    estimate_paley_constant,
    operator_m,
    paley_project,
    paley_ratio,
)
from .orchestrator import (
    ConstructionReport,
    OrchestratorConfig,
    replay,
    run_construction,
)
from .property_o import PropertyOWitness, find_witness, verify_witness
from .riesz import RieszMeasure, riesz_coeffs
from .sequence import (
    ConditionReport,
    LacunaryPlan,
    build_sequence,
    certified_rho,
    check_conditions,
    closeness_bounds,
    techprop_quantities,
)
from .serialization import canonical_dumps, plan_digest
from .trigpoly import (
    TrigPoly,
    lp_norm,
    paley_l2_norm,
    random_trigpoly,
    s1_l1_norm,
    sobolev_norm,
    trace_norm,
)
