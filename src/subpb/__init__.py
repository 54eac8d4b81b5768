"""Submodular participatory budgeting: elicitation methods, randomized
aggregation rules, exact expected-welfare evaluation, and machine-checked
welfare guarantees."""

from .core import (
    AdditiveOracle,
    ConcaveOverModularOracle,
    CostExceedsBudget,
    CoverageOracle,
    EmptyInstance,
    Instance,
    MaxValueOracle,
    NonPositiveCost,
    OracleSpec,
    RawInstance,
    UnnormalizableUtility,
    UtilityOracle,
    ValidationError,
    compute_curvature,
    eval_utility,
    marginal,
    max_curvature,
    social_welfare,
    validate_instance,
)
from .partition import GroupPartition, build_partition, harmonic_scores, shortlist
from .elicitation import (
    ApprovalProfile,
    Method,
    RankingProfile,
    elicit,
    rank_by_marginal,
    rank_by_values,
    threshold_approve,
)
from .aggregation import Plan, expected_welfare, rule_a_threshold, rule_plan
from .optimize import (
    ExactDP,
    ExceedsExactBudget,
    Fptas,
    KnapsackProblem,
    OptimalBundle,
    knapsack_exact,
    knapsack_fptas,
    optimal_welfare,
)
from .experiment import (
    Dyadic,
    EvaluationReport,
    ExactSupportTooLarge,
    Fixed,
    GeneratorSpec,
    Mode,
    UniformRational,
    evaluate,
    generate,
    sweep,
)

__version__ = "0.1.0"
