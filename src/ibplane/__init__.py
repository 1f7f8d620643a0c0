"""Information bottleneck solver and information-plane analysis toolkit.

Computes optimal compression/relevance tradeoff curves for discrete joints,
detects the representational phase transitions along them, corrects the curve
for finite samples, and places the layers of small trained sigmoidal networks
on the same information plane.

`import ibplane` loads no submodule. Each public name below, and each
submodule name (`ibplane.curve`, `from ibplane import solver`), imports its
module on first access (PEP 562), so a caller pays only for the modules it
uses.
"""

__version__ = "0.1.0"

# submodule -> the public names it defines; cli, io and svgplot export none
_EXPORTS = {
    "analyzer": """InfoPlanePoint LayerPath QuantizerConfig info_plane_path
        layer_codes network_distortion_rate""",
    "bounds": "BoundCurve NetworkGaps bound_curve network_gaps worst_case_correction",
    "cli": "",
    "curve": """Bifurcation CurvePoint InfoCurve anneal_curve detect_bifurcations
        effective_cardinality geometric_grid""",
    "errors": """DimensionError DivergenceError EmptySampleError IBError
        InstanceTooLargeError UnsupportedDegenerateError""",
    "io": "",
    "mlp": """NetworkParams TrainConfig accuracy batch_gradients forward_all
        init_network naive_bayes_neuron train_sgd""",
    "presets": "gen_preset",
    "prob": "JointDistribution SampleSet empirical_joint sample_pairs",
    "solver": """Encoder IBSolution exhaustive_deterministic_oracle
        ib_iterate_once ib_solve ib_solve_multistart self_consistency_residual""",
    "svgplot": "",
}
_HOME = {name: mod for mod, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name):
    # unlike importlib.import_module, __import__ shows in `python -X importtime`
    if name in _HOME:
        value = getattr(__import__(f"{__name__}.{_HOME[name]}", fromlist=["_"]), name)
    elif name in _EXPORTS:
        value = __import__(f"{__name__}.{name}", fromlist=["_"])
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
