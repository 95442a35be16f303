"""Exact validity checking, degree bounds, and hardness reductions for
linear information inequalities.

The public names are loaded on first use: ``import entroplex`` imports no
submodule, and ``entroplex.check`` imports ``entroplex.validity`` (and what
it needs) the first time it is read.
"""

import importlib

# Home module of every public name.
_EXPORTS = {
    "core": (
        "CapExceeded",
        "ConsistencyError",
        "DomainError",
        "DslError",
        "Expr",
        "Measure",
        "Universe",
        "UnsupportedSemantics",
        "combine",
        "cond_entropy",
        "cond_mutual_info",
        "entropy",
        "evaluate",
        "expand_measure",
        "make_expr",
        "multi_mutual_info",
        "mutual_info",
        "universe",
    ),
    "functions": (
        "EntropyVector",
        "JointDistribution",
        "Relation",
        "SetFunction",
        "basic_modular",
        "degree_scan",
        "distribution_from_csv",
        "entropic_from_distribution",
        "from_values",
        "is_modular",
        "is_monotone",
        "is_polymatroid",
        "relation_from_csv",
        "step_function",
        "zero_function",
    ),
    "bounds": (
        "BoundResult",
        "Conditional",
        "GuardedEntry",
        "GuardedSigma",
        "Query",
        "build_sigma",
        "conditional",
        "is_acyclic",
        "is_simple",
        "logbound_modular",
        "logbound_polymatroid_dual",
        "logbound_simple_entropic",
        "logbound_step",
        "parse_constraints",
        "satisfies_degrees",
        "sigma_inequality",
    ),
    "dsl": ("format_inequality", "parse_inequality", "parse_program"),
    "reductions": (
        "Graph",
        "MonSat3Instance",
        "PartitionInstance",
        "coloring_oracle",
        "decode_coloring_witness",
        "decode_monsat_witness",
        "decode_partition_witness",
        "from_3coloring",
        "from_3dmonsat",
        "from_partition",
        "graph",
        "parse_graph",
        "parse_monsat",
        "parse_partition",
        "partition_oracle",
        "sat_oracle",
    ),
    "validity": (
        "Axiom",
        "Decomposition",
        "FormError",
        "Verdict",
        "Witness",
        "a_reduction",
        "check",
        "check_modular",
        "check_monotone_fixpoint",
        "check_monotone_lp",
        "check_polymatroid",
        "check_simple_sigma",
        "check_step",
        "is_simple_form",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
