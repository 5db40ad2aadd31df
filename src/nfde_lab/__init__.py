"""Numerical laboratory for neutral compartmental delay systems driven by
quasi-periodic torus rotations: a stable time-varying difference operator
inverted by the method of steps, exponential-order cones, closed-form
monotonicity condition checkers, and a fixed-step integrator for the
transformed equation."""

from .base_flow import (
    GOLDEN_FREQ,
    SamplingConfig,
    TorusFlow,
    TorusPoint,
    TrigPoly,
    advance_many,
)
from .compartment import (
    CompartmentalSystem,
    NeutralDiagSystem,
    PipeSpec,
    ShapeFn,
    TransportSpec,
    check_condition,
    eval_F,
    mass_balance_residual,
    suggest_a,
    total_mass,
)
from .d_operator import (
    AtomicMeasureFamily,
    DOperatorSpec,
    MeasureAtom,
    MeasureDensity,
    StabilityEstimate,
    eval_D,
    eval_Dhat_segment,
    extract_atom_at_zero,
    invert_Dhat,
    stability_margin,
)
from .errors import (
    ConfigError,
    DimensionMismatchError,
    DivergenceError,
    HorizonError,
    NfdeError,
    NoReturnTimesError,
    SingularBError,
    StructuralPreconditionError,
    UnorderedPairError,
    UnstableMarginError,
)
from .history import (
    HistoryGrid,
    compact_open_metric,
    constant_history,
    export_csv,
    from_function,
    import_csv,
    resample,
    seminorm_n,
    sup_norm,
)
from .integrator import (
    PairLog,
    SimConfig,
    SimState,
    TrajectoryLog,
    covering_diagnostic,
    init_from_z,
    reconstruct_z,
    required_z_horizon,
    run,
    run_ordered_pair,
    step,
)
from .ordering import (
    ComparisonUpper,
    ConeSpec,
    OrderReport,
    cone_membership,
    is_quasipositive,
    make_comparison_upper,
    matrix_exp,
    transformed_cone_membership,
)

__version__ = "0.1.0"
