"""Free-knot Kolmogorov-Arnold layers, knot auditing, and training tools."""

from .autodiff import (
    NonFiniteGradient,
    NonFiniteValue,
    Tape,
    finite_difference_check,
)
from .splines import (
    InvalidRange,
    KnotVector,
    SplineGroup,
    TooFewCoefficients,
    basis_matrix,
    init_shift,
    make_uniform_grid,
    spline_eval,
)
from .layers import (
    BadArchitecture,
    CorruptCheckpoint,
    FRKANLayer,
    GridConfig,
    KANLayer,
    LayerNorm,
    MLPLayer,
    Network,
    init_network,
    load_checkpoint,
    param_count,
    save_checkpoint,
)
from .knots import (
    BoundResult,
    BreakpointReport,
    UnsupportedOrder,
    audit_network_knots,
    build_sawtooth_network,
    exact_breakpoints,
    fixed_grid_knot_bounds,
    free_knot_bounds,
    mlp_knot_positions,
    piecewise_linear_slice,
    predict_new_knots,
    relu_mlp_knot_bound,
    scan_breakpoints,
    slice_map,
)
from .tasks import (
    DatasetSplit,
    FEYNMAN_EQUATIONS,
    MalformedHeader,
    RejectionOverflow,
    RowLengthMismatch,
    UnsupportedEquation,
    generate_classification,
    generate_feynman,
    generate_runge,
    load_csv,
    load_idx,
    save_dataset_csv,
)
from .training import (
    AdamState,
    EmptySplit,
    RunRecord,
    TrainConfig,
    adam_step,
    evaluate,
    grid_range_experiment,
    regularized_loss,
    train,
)

__version__ = "0.1.0"
