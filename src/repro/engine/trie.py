"""No-op-aware prefix-trie module cache.

One trie per registered program. A node is a module *state*: the program
with the node's **effective sequence** applied — the elements on the
path from the root. An element a pass manager reported ``changed=False``
for at a state is a self-loop there (``node.noops``), not an edge: it
leaves the state, the module and therefore every result and feature
vector where they were, so ``[a, x, b]`` and ``[a, b]`` are one path
whenever ``x`` did nothing after ``a``. A node may hold a *snapshot* — a
module in exactly that state. :meth:`PrefixTrie.resolve` walks a
canonical sequence through what is known (children and no-ops) without
touching a module; only an unknown ``(node, pass)`` pair makes the
engine clone the deepest snapshot on the walk and run that one pass,
whose verdict it records with :meth:`PrefixTrie.advance` before the walk
goes on — without a module again if the pass did nothing.

Soundness rests on one contract (``Pass.run``'s docstring, pinned by
``tests/test_pass_changed_contract.py``): a pass that returns ``False``
left the module exactly as it found it. Every edge and every self-loop
is the verdict of a real run of its pass at that state — the engine is
the only writer, and it only ever hands the trie sequences, never a
module built elsewhere — so a recorded fact is never revised.

Snapshots are immutable once stored (the engine always clones *from*
them, never applies passes *to* them; one may be the very module an
evaluation profiled, which only reads it), which is what makes
concurrent readers safe. Storage is bounded engine-wide by :class:`SnapshotLRU`:
node structure (children/visit counters, a few machine words) is kept,
but the least-recently-used snapshots are dropped once the node budget
is exceeded. Nodes are only *promoted* to snapshot once their state has
been walked ``min_visits`` times, so one-shot random sequences don't pay
the clone cost of caching prefixes nobody will revisit.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Set, Tuple, Union

from ..ir.module import Module

__all__ = ["PrefixTrie", "Resolution", "SnapshotLRU", "NodeBudget"]

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
    __slots__ = ("children", "noops", "snapshot", "visits")

    def __init__(self) -> None:
        self.children: Dict[Element, "_TrieNode"] = {}
        # elements known to leave this state unchanged (self-loops)
        self.noops: Set[Element] = set()
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


class Resolution:
    """Where a canonical sequence stands in its trie.

    ``effective``/``nodes`` are the known part of its effective sequence
    and the states along it (``nodes[i]`` is the state after
    ``effective[:i + 1]``); ``rest`` is what is left of the sequence,
    starting at the first element whose verdict at ``nodes[-1]`` is
    unknown — empty when everything resolved, and then ``effective`` is
    final. ``depth``/``source`` name the deepest module on the walk in
    effective coordinates (0 / the base program when there is none): a
    snapshot, or — ``owned`` — a module the engine built on this walk and
    may keep mutating. ``shared`` is the deepest state other walks have
    visited often enough to earn a snapshot, ``skipped`` the known
    no-ops dropped. ``tracked`` turns false when the node budget cannot
    pay for the next state: from there on ``effective`` grows by what
    real pass runs report and ``nodes`` stays behind."""

    __slots__ = ("nodes", "effective", "rest", "depth", "source", "owned",
                 "shared", "skipped", "tracked")

    def __init__(self, source: Module) -> None:
        self.nodes: List[_TrieNode] = []
        self.effective: List[Element] = []
        self.rest: Tuple[Element, ...] = ()
        self.depth = 0
        self.source = source
        self.owned = False
        self.shared = 0
        self.skipped = 0
        self.tracked = True

    def hold(self, module: Module) -> None:
        """``module`` — the engine's own — is in the state the known path
        ends in: the cheapest source for whatever comes next."""
        self.source, self.depth, self.owned = module, len(self.effective), True


class PrefixTrie:
    """No-op-aware prefix tree of pass-sequence snapshots for one base
    program."""

    def __init__(self, program: Module, lru: SnapshotLRU, min_visits: int = 2,
                 budget: Optional[NodeBudget] = None) -> None:
        self.program = program
        self.lru = lru
        self.min_visits = min_visits
        self.budget = budget
        self.root = _TrieNode()

    def end(self, res: Resolution) -> _TrieNode:
        """The state ``res``'s known path ends in."""
        return res.nodes[-1] if res.nodes else self.root

    def resolve(self, sequence: Tuple[Element, ...],
                res: Optional[Resolution] = None) -> Resolution:
        """Walk ``sequence`` — from the root, or on from where ``res``
        stands — through known children and known no-ops, visit-counting
        the states it passes and touching their snapshots, up to the
        first unknown ``(node, pass)`` pair; what is left goes to
        ``res.rest``."""
        if res is None:
            res = Resolution(self.program)
        node = self.end(res)
        consumed = 0
        for element in sequence if res.tracked else ():
            if element in node.noops:
                res.skipped += 1
            else:
                child = node.children.get(element)
                if child is None:
                    break
                child.visits += 1
                res.nodes.append(child)
                res.effective.append(element)
                if child.visits >= self.min_visits:
                    res.shared = len(res.nodes)
                if child.snapshot is not None:
                    res.depth, res.source = len(res.nodes), child.snapshot
                    res.owned = False
                    self.lru.touch(child)
                node = child
            consumed += 1
        res.rest = tuple(sequence[consumed:])
        return res

    def advance(self, res: Resolution, element: Element, changed: bool) -> None:
        """Record what a real run of ``element`` reported at the state
        ``res`` stands at, and move ``res`` along: nowhere for a no-op
        (a self-loop from now on), into the child otherwise."""
        if res.tracked:
            node = self.end(res)
            if not changed:
                node.noops.add(element)
                return
            child = node.children.get(element) \
                or self._new_child(res, node, element)
            if child is not None:
                # ``shared`` stays: a state this walk opens itself is no
                # frontier (and the module in hand is its own source)
                child.visits += 1
                res.nodes.append(child)
        if changed:
            res.effective.append(element)

    def _new_child(self, res: Resolution, node: _TrieNode,
                   element: Element) -> Optional[_TrieNode]:
        if self.budget is not None and not self.budget.take():
            res.tracked = False
            return None
        child = node.children[element] = _TrieNode()
        return child

    def want_snapshot(self, node: _TrieNode) -> bool:
        return node.snapshot is None and node.visits >= self.min_visits

    def store_snapshot(self, node: _TrieNode, snapshot: Module) -> bool:
        """Install ``snapshot`` unless another thread won the race."""
        if node.snapshot is not None:
            return False
        node.snapshot = snapshot
        self.lru.add(node)
        return True
