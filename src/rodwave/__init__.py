"""Global conservative solutions of the compressible hyperelastic rod wave
equation on the line, computed in Lagrangian coordinates with
invariant-preserving operator-splitting time integrators."""

from .state import (
    AdmissibilityReport,
    GridSpec,
    LagrangianState,
    Parameters,
    check_admissible,
    distance_f,
    invariants,
    norm_f,
)
from .source_terms import (
    SourceTerms,
    evaluate_source_terms,
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
    FineGrid,
    FineLagrangianData,
    TravelingWaveSpec,
    build_from_spec,
    eulerian_to_lagrangian,
    make_cuspon,
    make_gaussian_derivative,
    make_peakon,
    make_peakon_pair,
    make_smooth_tw,
    project_to_grid,
)
from .observables import (
    DiagnosticsRecorder,
    DiagnosticsRow,
    EulerianGraph,
    convergence_order,
    energy_density_points,
    exact_peakon_error,
    particle_density_points,
    sup_graph_error,
    to_graph,
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

__all__ = [name for name in dir() if not name.startswith("_")]
