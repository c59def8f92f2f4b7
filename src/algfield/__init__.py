"""Numerical engine for classical field theory on Lie algebroids.

Defines algebroids by structure functions, verifies their compatibility
identities, evaluates admissibility / morphism / Euler-Lagrange residuals
of discretized fields, integrates the one-dimensional (mechanics) case,
and ships the worked scenarios as executable configurations.
"""

from .algebroid import (
    FlowBlowupError,
    LieAlgebroid,
    PForm,
    Section,
    anchor_apply,
    bracket,
    exterior_differential,
    flow_morphism_defect,
    flow_of_section,
    flow_pullback_form,
    lie_derivative,
    structure_equation_residuals,
    structure_residual_max,
)
from .fibred import (
    AffineDualSection,
    FibredAlgebroidPair,
    JetPoint,
    ProjectableSection,
    affine_eval,
    complete_lift,
    lie_derivative_affine_dual,
    total_derivative,
    z_functions,
)
from .fields import (
    DiscretizedSection,
    GridSpec,
    ResidualField,
    StencilError,
    admissibility_residual,
    grid_derivative,
    grid_gradient,
    load_section,
    morphism_maxima,
    morphism_residual,
    residual_report,
    save_section,
)
from .variational import (
    Lagrangian,
    NoetherCurrent,
    el_residual,
    el_residual_field,
    first_variation_identity_defect,
    invariance_defect,
    noether_current,
    noether_current_field,
)
from .scenarios import (
    AtiyahData,
    ChernSimonsData,
    DegenerateLagrangianError,
    IntegrationBlowupError,
    MechanicsState,
    MechanicsTrajectory,
    ProjectionError,
    StandardCaseData,
    builder_atiyah,
    builder_chern_simons,
    builder_standard,
    builder_time_dependent,
    chern_simons_lagrangian,
    chern_simons_lagrangian_difference,
    flat_connection_generator,
    free_particle_pair,
    heavy_top_lagrangian,
    heavy_top_pair,
    integrate_mechanics,
    quadratic_kinetic_lagrangian,
    rigid_body_lagrangian,
    rigid_body_pair,
    scalar_field_lagrangian,
    su2_basis,
    su2_exponential,
    su2_exponential_gauge_field,
)

__version__ = "0.1.0"
