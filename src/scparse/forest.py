"""Queries over the shared packed parse forest left behind by a session.

A forest is the chart's node store viewed read-only from its accepting
root nodes: tree counting with cycle detection, bounded enumeration, the
reachability measure behind the useless-node statistic, and a stable
textual dump.
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import Chart
from .grammar import Node

FINITE = "finite"
CAPPED = "capped"
INFINITE = "infinite"
# The span in the key of a zero-width node, which is position-free (`canonical`).
EPS = "ε"


@dataclass(frozen=True)
class TreeCount:
    kind: str              # finite / capped / infinite
    value: int | None = None

    @staticmethod
    def of(n: int, cap: int) -> "TreeCount":
        return TreeCount(FINITE, n) if n <= cap else TreeCount(CAPPED, cap)

    def __repr__(self):
        return f"TreeCount({self.kind}{'' if self.value is None else ', ' + str(self.value)})"


class Forest:
    def __init__(self, roots: list[Node], chart: Chart):
        self.roots = list(roots)
        self.chart = chart
        self.store = chart.node_list  # creation order, epsilon nodes excluded

    @property
    def grammar(self):
        return self.chart.compiled.grammar


def build_forest(chart: Chart) -> Forest:
    return Forest(chart.accept(), chart)


def count_trees(forest: Forest, cap: int = 10000) -> TreeCount:
    """Number of distinct derivation trees under all roots, by memoized
    product-sum over analyses.  A back edge reachable from a root means a
    pumpable cycle, hence infinitely many trees (every forest node is
    grounded: it admits at least one finite tree)."""
    counts: dict[int, int] = {}
    WHITE, GRAY = 0, 1
    color: dict[int, int] = {}

    for root in forest.roots:
        # iterative DFS; frames are (node, child iterator state)
        stack: list[tuple[Node, list[Node], int]] = []

        def push(node):
            color[node.id] = GRAY
            kids = [c for a in node.analyses for c in a.children]
            stack.append((node, kids, 0))

        if root.id not in counts and color.get(root.id) != GRAY:
            push(root)
        while stack:
            node, kids, i = stack.pop()
            advanced = False
            while i < len(kids):
                child = kids[i]
                i += 1
                if child.id in counts:
                    continue
                if color.get(child.id) == GRAY:
                    return TreeCount(INFINITE)
                stack.append((node, kids, i))
                push(child)
                advanced = True
                break
            if advanced:
                continue
            # all children resolved
            if not node.analyses:
                counts[node.id] = 1  # lexical leaf (or bare epsilon base)
            else:
                total = 0
                for a in node.analyses:
                    prod = 1
                    for c in a.children:
                        prod *= counts[c.id]
                    total += prod
                counts[node.id] = total
            color[node.id] = WHITE

    total = sum(counts.get(r.id, 0) for r in forest.roots)
    return TreeCount.of(total, cap)


def enumerate_trees(forest: Forest, limit: int) -> list[tuple]:
    """Up to `limit` concrete trees, lexicographic by analysis index.
    Trees are (symbol-name, fbp, lbp, children) tuples; a tree never
    revisits a node on its own ancestor path, so cycles are safe.

    A tree is its choice of analysis at each node in pre-order, and
    comparing those choice sequences orders trees as a product over
    children, first child slowest, would.  So the search is depth-first
    over the choices with an explicit stack, and works on trees of any
    depth.  A search state is the nodes still to expand, each with its
    ancestors' ids, and the choices made (each node with the children of
    its analysis), newest first: cons lists (head, tail) that the states
    branching from one node share."""
    names = {s.id: s.name for s in forest.grammar.symbols}
    out: list[tuple] = []
    for root in forest.roots:
        stack = [(((root, frozenset()), None), None)]
        while stack:
            todo, made = stack.pop()
            while todo is not None:
                (node, path), todo = todo
                if node.id in path:
                    break
                if not node.analyses:
                    made = ((node, ()), made)
                    continue
                sub = path | {node.id}
                branches = []
                for a in node.analyses:
                    rest = todo
                    for child in reversed(a.children):
                        rest = ((child, sub), rest)
                    branches.append((rest, ((node, a.children), made)))
                stack.extend(reversed(branches[1:]))
                todo, made = branches[0]
            else:
                out.append(_build_tree(made, names))
                if len(out) >= limit:
                    return out
    return out


def _build_tree(made, names) -> tuple:
    """The tree of a complete choice list, newest choice first: in reverse
    pre-order every node comes after its subtrees, its first child's last."""
    built: list[tuple] = []
    while made is not None:
        (node, children), made = made
        k = len(built) - len(children)
        kids = tuple(reversed(built[k:]))
        del built[k:]
        built.append((names[node.symbol], node.fbp, node.lbp, kids))
    return built[0]


def render_tree(tree: tuple) -> str:
    """`S(A(a),b)`: each symbol name, with its children's renderings in
    parentheses unless it is a leaf.  Iterative, for trees of any depth."""
    out = []
    todo = [tree]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        name, _, _, children = item
        out.append(name)
        if children:
            out.append("(")
            todo.append(")")
            for i in range(len(children) - 1, -1, -1):
                todo.append(children[i])
                if i:
                    todo.append(",")
    return "".join(out)


def reachable_nodes(forest: Forest) -> set[Node]:
    """Store nodes reachable from the roots through analyses; the store
    minus this set is the useless-node count."""
    store_ids = {n.id for n in forest.store}
    seen: set[int] = set()
    result: set[Node] = set()
    todo = list(forest.roots)
    while todo:
        node = todo.pop()
        if node.id in seen:
            continue
        seen.add(node.id)
        if node.id in store_ids:
            result.add(node)
        for a in node.analyses:
            todo.extend(a.children)
    return result


def useless_count(forest: Forest) -> int:
    return len(forest.store) - len(reachable_nodes(forest))


def canonical(forest: Forest) -> dict[tuple, frozenset]:
    """The forest reachable from the roots, free of node ids and of the
    order analyses arrived in: each node's key, (symbol id, fbp, lbp), or
    (symbol id, EPS) for a zero-width node, mapped to its analyses as a set
    of (production id, child keys) (`oracle.earley_forest` gives the same
    form)."""
    def key(node: Node) -> tuple:
        return (node.symbol, node.fbp, node.lbp) if node.fbp >= 0 else (node.symbol, EPS)

    out: dict[tuple, frozenset] = {}
    todo = list(forest.roots)
    while todo:
        node = todo.pop()
        k = key(node)
        if k in out:
            continue
        out[k] = frozenset((a.production.id, tuple(key(c) for c in a.children))
                           for a in node.analyses)
        for a in node.analyses:
            todo.extend(a.children)
    return out


def dump_forest(forest: Forest) -> str:
    """Stable id-indexed node/analysis listing (creation order)."""
    names = {s.id: s.name for s in forest.grammar.symbols}
    out = []
    eps = [n for n in forest.chart.eps_nodes.values()]
    for node in sorted(eps + forest.store, key=lambda n: n.id):
        out.append(f"node {node.id} {names[node.symbol]} [{node.fbp},{node.lbp}]")
        for a in node.analyses:
            out.append("analysis " + " ".join([str(a.production.id)] +
                                              [str(c.id) for c in a.children]))
    out.append("roots " + " ".join(str(r.id) for r in forest.roots))
    return "\n".join(out) + "\n"
