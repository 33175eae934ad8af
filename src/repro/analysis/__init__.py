"""repro.analysis — CFG, dominator, loop, alias and call-graph analyses."""

from .cfg import (
    critical_edges,
    edges,
    num_edges,
    postorder,
    reachable_blocks,
    remove_unreachable_blocks,
    reverse_postorder,
    split_edge,
)
from .dominators import DominatorTree
from .loops import InductionDescriptor, Loop, LoopInfo
from .callgraph import CallGraph
from .alias import AliasResult, alias, constant_offset, points_into, underlying_object

__all__ = [
    "critical_edges", "edges", "num_edges", "postorder",
    "reachable_blocks", "remove_unreachable_blocks", "reverse_postorder", "split_edge",
    "DominatorTree",
    "InductionDescriptor", "Loop", "LoopInfo",
    "CallGraph",
    "AliasResult", "alias", "constant_offset", "points_into", "underlying_object",
]
