"""Process matrices, a bipartite guessing game, and causal-order tests.

The package models two parties wired through a shared higher-order
process, scores local strategies against it, bounds what any causally
ordered strategy can achieve, and searches both the strategy space and
a one-parameter process family for violations of those bounds.
"""

from .formats import dense_text, parse_process, pauli_text, read_process
from .game import (
    GameSpec,
    JointDistribution,
    NumericalIntegrityError,
    analytic_max_dbit,
    causal_bound,
    joint_distribution,
    success_components,
    success_probability,
)
from .instruments import (
    ObservableSpec,
    alice_general,
    alice_z,
    bob_branch,
    bob_general,
)
from .optimizer import (
    OptimizationResult,
    OptimizerConfig,
    maximize_ansatz,
    maximize_instruments,
    threshold_alpha,
)
from .oracle import (
    CausalDecision,
    DeterministicStrategy,
    enumerate_strategies,
    is_causal,
    oracle_bound,
)
from .processes import (
    ProcessMatrix,
    ValidityReport,
    causal_mixture,
    ordered_identity_channel_process,
    term_label,
    validate,
    w_ansatz,
    w_beta,
    w_beta_weights,
    w_ocb,
    witness_s,
    witness_value,
)
from .tensor import (
    LABELS,
    PAULI,
    PAULI_LABELS,
    pauli_compose,
    pauli_decompose,
)

__all__ = [
    "LABELS",
    "PAULI",
    "PAULI_LABELS",
    "CausalDecision",
    "DeterministicStrategy",
    "GameSpec",
    "JointDistribution",
    "NumericalIntegrityError",
    "ObservableSpec",
    "OptimizationResult",
    "OptimizerConfig",
    "ProcessMatrix",
    "ValidityReport",
    "alice_general",
    "alice_z",
    "analytic_max_dbit",
    "bob_branch",
    "bob_general",
    "causal_bound",
    "causal_mixture",
    "dense_text",
    "enumerate_strategies",
    "is_causal",
    "joint_distribution",
    "maximize_ansatz",
    "maximize_instruments",
    "oracle_bound",
    "ordered_identity_channel_process",
    "parse_process",
    "pauli_compose",
    "pauli_decompose",
    "pauli_text",
    "read_process",
    "success_components",
    "success_probability",
    "term_label",
    "threshold_alpha",
    "validate",
    "w_ansatz",
    "w_beta",
    "w_beta_weights",
    "w_ocb",
    "witness_s",
    "witness_value",
]
