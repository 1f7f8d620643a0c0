"""Information bottleneck solver and information-plane analysis toolkit.

Computes optimal compression/relevance tradeoff curves for discrete joints,
detects the representational phase transitions along them, corrects the curve
for finite samples, and places the layers of small trained sigmoidal networks
on the same information plane.
"""

from .analyzer import (
    InfoPlanePoint,
    LayerPath,
    QuantizerConfig,
    info_plane_path,
    layer_codes,
    layer_mutual_information,
    network_distortion_rate,
)
from .bounds import (
    BoundCurve,
    BoundPoint,
    NetworkGaps,
    bound_curve,
    network_gaps,
    worst_case_correction,
)
from .curve import (
    Bifurcation,
    CurvePoint,
    InfoCurve,
    anneal_curve,
    critical_beta_spectral,
    detect_bifurcations,
    effective_cardinality,
    geometric_grid,
)
from .errors import (
    CoverageError,
    DegenerateClusterError,
    DegenerateEncoderError,
    DimensionError,
    DivergenceError,
    EmptySampleError,
    IBError,
    InstanceTooLargeError,
    UnsupportedDegenerateError,
)
from .mlp import (
    NetworkParams,
    TrainConfig,
    accuracy,
    batch_gradients,
    batch_loss,
    forward_all,
    init_network,
    naive_bayes_neuron,
    train_sgd,
)
from .presets import gen_preset
from .prob import (
    ConditionalMatrix,
    DiscreteDistribution,
    JointDistribution,
    SampleSet,
    empirical_joint,
    entropy,
    mutual_information,
    sample_pairs,
)
from .solver import (
    Encoder,
    IBSolution,
    exhaustive_deterministic_oracle,
    ib_iterate_once,
    ib_solve,
    ib_solve_multistart,
    self_consistency_residual,
    solution_from_encoder,
)

__version__ = "0.1.0"
