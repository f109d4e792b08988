"""Hypergraph connectivity, element-connectivity reduction, and splitting-off.

Importing the package loads none of its modules. Each public name, and each
submodule (``hypersplit.flow``, ...), is imported on first access and then
bound here, so ``from hypersplit import ConnTable`` loads only what
``ConnTable`` needs, and a one-shot command pays only for what it runs.
"""

import importlib

_HOMES = {
    "errors": (
        "HypersplitError",
        "InstanceTooLargeError",
        "InternalInvariantError",
        "InvalidCutError",
        "InvalidQueryError",
        "MergeNotAlmostDisjointError",
        "MissingEdgeError",
        "NonTerminalEndpointError",
        "ParseError",
        "ReplayError",
        "TrimMissingVertexError",
        "UnknownVertexError",
    ),
    "flow": (
        "ConnTable",
        "conn_table_elements",
        "conn_table_hyper",
        "element_connectivity",
        "hyperedge_connectivity",
    ),
    "hypergraph": (
        "Hypergraph",
        "Incidence",
        "Merge",
        "SplitOffOp",
        "Trim",
        "apply_op",
        "delta",
        "hypergraph_equal",
        "incidence_graph",
        "replay",
    ),
    "multigraph": ("ElementConnInstance", "Multigraph"),
    "oracle": (
        "GenParams",
        "SplitMix64",
        "oracle_element_conn",
        "oracle_lambda",
        "random_element_instance",
        "random_hypergraph",
    ),
    "reduction": (
        "MinorTrace",
        "ReductionStep",
        "reduce_to_stable",
    ),
    "splitoff": (
        "GadgetInstance",
        "SplitOffResult",
        "StagePipeline",
        "complete_split_off",
        "extract_op_log",
        "run_pipeline",
    ),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}
_SUBMODULES = frozenset(_HOMES) | {"cli", "formats"}

__all__ = list(_HOME_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _HOME_OF.keys() | _SUBMODULES)
