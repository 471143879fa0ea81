"""Paired domination on distance-hereditary graphs via decomposition trees."""

from .dp import INF, NodeState, SolveResult, eval_gamma_k, leaf_state, solve
from .graph import Graph, build_graph

__all__ = [
    "INF",
    "Graph",
    "NodeState",
    "SolveResult",
    "build_graph",
    "eval_gamma_k",
    "leaf_state",
    "solve",
]
