"""Global conservative solutions of the compressible hyperelastic rod wave
equation on the line, computed in Lagrangian coordinates with
invariant-preserving operator-splitting time integrators."""

from .state import (
    GridSpec,
    LagrangianState,
    Parameters,
    distance_f,
    invariants,
)
from .source_terms import (
    SourceTerms,
    integrand_a,
    source_terms_direct,
    source_terms_fast,
)
from .dynamics import vector_field_full, vector_field_g1, vector_field_g2
from .stepping import (
    SCHEMES,
    StepReport,
    StepperConfig,
    evolve,
    midpoint_substep,
    step_adaptive_rk,
    step_explicit_euler,
    step_lie_trotter,
    step_strang,
)
from .initial_data import (
    EulerianProfile,
    FineLagrangianData,
    TravelingWaveSpec,
    build_from_spec,
    eulerian_to_lagrangian,
    make_cuspon,
    make_gaussian_derivative,
    make_peakon_pair,
    make_smooth_tw,
    project_to_grid,
)
from .observables import (
    DiagnosticsRecorder,
    DiagnosticsRow,
    convergence_order,
    exact_error,
    sup_graph_error,
)
from .experiments import (
    BUNDLED,
    ExperimentConfig,
    bundled_config,
    build_initial_state,
    compare_experiment,
    converge_experiment,
    emit_plots,
    load_config,
    run_experiment,
)
from . import errors

__version__ = "0.1.0"
