"""Prefix-trie module cache.

One trie per registered program. A node at depth ``d`` represents the
canonical pass prefix of length ``d``; it may hold a *snapshot* — a clone
of the program with exactly that prefix applied. Evaluating a sequence
clones from the deepest snapshotted ancestor and applies only the suffix.

Snapshots are immutable once stored (the engine always clones *from*
them, never applies passes *to* them; one may be the very module an
evaluation profiled, which only reads it), which is what makes
concurrent readers safe. Storage is bounded engine-wide by :class:`SnapshotLRU`:
node structure (children/visit counters, a few machine words) is kept,
but the least-recently-used snapshots are dropped once the node budget
is exceeded. Nodes are only *promoted* to snapshot once their prefix has
been walked ``min_visits`` times, so one-shot random sequences don't pay
the clone cost of caching prefixes nobody will revisit.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple, Union

from ..ir.module import Module

__all__ = ["PrefixTrie", "SnapshotLRU", "NodeBudget"]

Element = Union[int, str]


class NodeBudget:
    """Engine-wide cap on trie *structure* nodes. Snapshots are bounded by
    :class:`SnapshotLRU`; this bounds the bookkeeping nodes themselves, so
    exploration-heavy workloads (unique 45-pass random sequences, long RL
    runs) cannot grow the tries without limit — once exhausted, walks
    simply stop extending paths and the deep unique tails go untracked."""

    def __init__(self, max_nodes: int) -> None:
        self.max_nodes = max_nodes
        self.used = 0

    def take(self) -> bool:
        if self.used >= self.max_nodes:
            return False
        self.used += 1
        return True


class _TrieNode:
    __slots__ = ("children", "snapshot", "visits")

    def __init__(self) -> None:
        self.children: Dict[Element, "_TrieNode"] = {}
        self.snapshot: Optional[Module] = None
        self.visits = 0


class SnapshotLRU:
    """Engine-wide LRU over snapshot-bearing trie nodes (node-count bound)."""

    def __init__(self, max_nodes: int) -> None:
        self.max_nodes = max_nodes
        self._order: "OrderedDict[_TrieNode, None]" = OrderedDict()
        self.evictions = 0

    def touch(self, node: _TrieNode) -> None:
        if node in self._order:
            self._order.move_to_end(node)

    def add(self, node: _TrieNode) -> None:
        self._order[node] = None
        self._order.move_to_end(node)
        while len(self._order) > self.max_nodes:
            victim, _ = self._order.popitem(last=False)
            victim.snapshot = None
            self.evictions += 1

    def __len__(self) -> int:
        return len(self._order)


class PrefixTrie:
    """Prefix tree of pass-sequence snapshots for one base program."""

    def __init__(self, program: Module, lru: SnapshotLRU, min_visits: int = 2,
                 budget: Optional[NodeBudget] = None) -> None:
        self.program = program
        self.lru = lru
        self.min_visits = min_visits
        self.budget = budget
        self.root = _TrieNode()

    def deepest_snapshot(self, sequence: Tuple[Element, ...]) -> Tuple[int, Module]:
        """(depth, module) of the deepest snapshotted ancestor of
        ``sequence``; depth 0 / the base program when nothing is cached."""
        depth, best = 0, self.program
        node = self.root
        for i, element in enumerate(sequence):
            node = node.children.get(element)
            if node is None:
                break
            if node.snapshot is not None:
                depth, best = i + 1, node.snapshot
                self.lru.touch(node)
        return depth, best

    def walk(self, sequence: Tuple[Element, ...]) -> List[_TrieNode]:
        """Materialize (and visit-count) the node path for every prefix of
        ``sequence``; ``result[i]`` is the node for ``sequence[:i + 1]``.
        May return a *shorter* path than the sequence when the engine-wide
        node budget is exhausted (the untracked tail is simply not cached)."""
        path: List[_TrieNode] = []
        node = self.root
        for element in sequence:
            child = node.children.get(element)
            if child is None:
                if self.budget is not None and not self.budget.take():
                    break
                child = node.children[element] = _TrieNode()
            child.visits += 1
            path.append(child)
            node = child
        return path

    def want_snapshot(self, node: _TrieNode) -> bool:
        return node.snapshot is None and node.visits >= self.min_visits

    def store_snapshot(self, node: _TrieNode, snapshot: Module) -> bool:
        """Install ``snapshot`` unless another thread won the race."""
        if node.snapshot is not None:
            return False
        node.snapshot = snapshot
        self.lru.add(node)
        return True
