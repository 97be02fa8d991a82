"""polarlens: exact polarization of conditional Renyi entropies.

Binary-input joint distributions are carried as weighted atom multisets;
the basic polar transform acts on them exactly, and conditional Renyi
entropies of every order (0, finite, 1, infinity) are evaluated with
stable kernels, deep levels included, without materializing the final
level's distributions.
"""

from .distributions import (
    CapacityError,
    DistributionError,
    JointAtom,
    JointDistribution,
    canonicalize_orientation,
    from_json_dict,
    load_file,
    make_bec,
    make_bsc,
    make_from_atoms,
    random_joint,
)
from .entropy import (
    EXTENDED_ORDER_GRID,
    MAX_FINITE_ORDER,
    ORDER_INF,
    ORDER_ONE,
    ORDER_ZERO,
    Order,
    as_order,
    chain_rule_residual,
    conditional_renyi,
    joint_renyi,
    log2_power_sum,
    output_renyi,
    renyi_entropy,
    snap_to_unit,
)
from .transform import (
    DEFAULT_ATOM_CAP,
    OneStepReport,
    PolarizationProfile,
    TransformPair,
    child_entropies,
    level_profile,
    level_profile_sweep,
    one_step_report,
    transform_pair,
)
from .bruteforce import (
    DEFAULT_STATE_CAP,
    MinkowskiReport,
    brute_force_profile,
    generator_matrix,
    high_precision_conditional,
    minkowski_check,
)
from .experiments import (
    EffectiveSetReport,
    ExtremeExampleParams,
    PerturbationSpec,
    effective_set,
    extreme_example_closed_form,
    extreme_example_distribution,
    extreme_example_sweep,
    perturbation_distribution,
    perturbation_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "DistributionError",
    "JointAtom",
    "JointDistribution",
    "canonicalize_orientation",
    "from_json_dict",
    "load_file",
    "make_bec",
    "make_bsc",
    "make_from_atoms",
    "random_joint",
    "EXTENDED_ORDER_GRID",
    "MAX_FINITE_ORDER",
    "ORDER_INF",
    "ORDER_ONE",
    "ORDER_ZERO",
    "Order",
    "as_order",
    "chain_rule_residual",
    "conditional_renyi",
    "joint_renyi",
    "log2_power_sum",
    "output_renyi",
    "renyi_entropy",
    "snap_to_unit",
    "DEFAULT_ATOM_CAP",
    "OneStepReport",
    "PolarizationProfile",
    "TransformPair",
    "child_entropies",
    "level_profile",
    "level_profile_sweep",
    "one_step_report",
    "transform_pair",
    "DEFAULT_STATE_CAP",
    "MinkowskiReport",
    "brute_force_profile",
    "generator_matrix",
    "high_precision_conditional",
    "minkowski_check",
    "EffectiveSetReport",
    "ExtremeExampleParams",
    "PerturbationSpec",
    "effective_set",
    "extreme_example_closed_form",
    "extreme_example_distribution",
    "extreme_example_sweep",
    "perturbation_distribution",
    "perturbation_sweep",
    "__version__",
]
