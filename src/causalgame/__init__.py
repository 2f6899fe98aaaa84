"""Process matrices, a bipartite guessing game, and causal-order tests.

The package models two parties wired through a shared higher-order
process, scores local strategies against it, bounds what any causally
ordered strategy can achieve, and searches both the strategy space and
a one-parameter process family for violations of those bounds.

``import causalgame`` loads none of its modules. The first read of a
public name imports them all and binds every public name here at once,
so later reads are plain global lookups.
"""

import importlib

_EXPORTS = {
    "formats": ("dense_text", "parse_process", "pauli_text", "read_process"),
    "game": (
        "GameSpec",
        "JointDistribution",
        "NumericalIntegrityError",
        "analytic_max_dbit",
        "causal_bound",
        "joint_distribution",
        "success_components",
        "success_probability",
    ),
    "instruments": ("ObservableSpec", "alice_general", "alice_z", "bob_branch", "bob_general"),
    "optimizer": (
        "OptimizationResult",
        "OptimizerConfig",
        "maximize_ansatz",
        "maximize_instruments",
        "threshold_alpha",
    ),
    "oracle": ("CausalDecision", "DeterministicStrategy", "enumerate_strategies", "is_causal", "oracle_bound"),
    "processes": (
        "ProcessMatrix",
        "ValidityReport",
        "causal_mixture",
        "ordered_identity_channel_process",
        "term_label",
        "validate",
        "w_ansatz",
        "w_beta",
        "w_beta_weights",
        "w_ocb",
        "witness_s",
        "witness_value",
    ),
    "tensor": ("LABELS", "PAULI", "PAULI_LABELS", "pauli_compose", "pauli_decompose"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]


def __getattr__(name: str):
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    bound = {}
    for module, names in _EXPORTS.items():
        home = importlib.import_module(f"{__name__}.{module}")
        bound.update((key, getattr(home, key)) for key in names)
    globals().update(bound)
    return bound[name]


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
