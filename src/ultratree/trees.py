"""Finite simple trees: validation, paths, degrees, diameter, classification,
and exhaustive enumeration over labeled vertex sets.

Vertex identifiers are arbitrary non-empty strings. A ``Tree`` keeps its
vertices in construction order; that order is meaningful, it becomes the
point order of any metric space generated from the tree. Edges are stored
sorted, as sorted pairs, so structural equality is well defined.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from .errors import (
    BadEdge,
    CapExceeded,
    EmptyVertexSet,
    HasCycle,
    NotConnected,
    SamePoint,
    UnknownVertex,
)

DEFAULT_ENUMERATION_CAP = 8


@dataclass(frozen=True)
class Tree:
    """An immutable finite tree: validate_tree builds one from untrusted
    input, _index_tree from index edges that form a tree by construction."""

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        norm = sorted({(a, b) if a <= b else (b, a) for a, b in self.edges})
        object.__setattr__(self, "edges", tuple(norm))

    @property
    def order(self) -> int:
        return len(self.vertices)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def _indexed(self) -> list[list[int]]:
        """The index form: neighbour lists by position in ``vertices``."""
        index = self._index
        return _index_adjacency(self.order, [(index[a], index[b]) for a, b in self.edges])

    def __contains__(self, vertex: str) -> bool:
        return vertex in self._index


class TreeKind(enum.Enum):
    STAR = "Star"
    DOUBLE_STAR = "DoubleStar"
    OTHER = "Other"


@dataclass(frozen=True)
class TreeClass:
    """Classification result: the tag plus the high-degree vertices backing it.

    ``centers`` is empty for Other (and for trees with no vertex of degree
    two or more), a single vertex for a proper star, and exactly two
    adjacent vertices for a double star.
    """

    tag: TreeKind
    centers: tuple[str, ...]


def validate_tree(vertices: Iterable[str], edges: Iterable) -> Tree:
    """Check that (vertices, edges) forms a tree and return it.

    Accepts edges as any two-element collections, in either vertex order;
    duplicates collapse. Raises EmptyVertexSet, BadEdge, HasCycle, or
    NotConnected. A tree on n vertices must have exactly n - 1 edges and be
    connected; those two facts together rule out cycles. When the edge count
    is right but the graph splits into components (each then carrying a
    cycle), NotConnected is reported.
    """
    verts: list[str] = []
    seen: set[str] = set()
    for v in vertices:
        if not isinstance(v, str) or not v:
            raise BadEdge(f"vertex ids must be non-empty strings, got {v!r}")
        if v not in seen:
            seen.add(v)
            verts.append(v)
    if not verts:
        raise EmptyVertexSet("a tree needs at least one vertex")

    norm_edges: set[tuple[str, str]] = set()
    for edge in edges:
        try:
            pair = tuple(edge)
        except TypeError:
            raise BadEdge(f"edge {edge!r} is not a two-element set", (edge,)) from None
        if len(pair) != 2:
            raise BadEdge(f"edge {pair!r} is not a two-element set", pair)
        a, b = pair
        if a == b:
            raise BadEdge(f"self-loop at {a!r}", (a,))
        if not (isinstance(a, str) and isinstance(b, str)) or a not in seen or b not in seen:
            raise BadEdge(f"edge ({a!r}, {b!r}) references an unknown vertex", (a, b))
        norm_edges.add((a, b) if a <= b else (b, a))

    n = len(verts)
    if len(norm_edges) > n - 1:
        raise HasCycle(f"{len(norm_edges)} edges on {n} vertices, a tree has {n - 1}")
    if len(norm_edges) < n - 1:
        raise NotConnected(f"{len(norm_edges)} edges cannot connect {n} vertices")

    index = {v: i for i, v in enumerate(verts)}
    adj = _index_adjacency(n, [(index[a], index[b]) for a, b in norm_edges])
    reached = _bfs_parents(n, adj, 0)[1]
    if len(reached) != n:
        raise NotConnected(f"{n - len(reached)} vertices unreachable from {verts[0]!r}")

    return Tree(tuple(verts), tuple(norm_edges))


def _require_vertex(tree: Tree, v: str) -> None:
    if v not in tree._index:
        raise UnknownVertex(f"vertex {v!r} is not in the tree", (v,))


def unique_path(tree: Tree, u: str, v: str) -> tuple[str, ...]:
    """The unique simple path from u to v, endpoints included."""
    _require_vertex(tree, u)
    _require_vertex(tree, v)
    if u == v:
        raise SamePoint(f"no path from {u!r} to itself", (u,))
    end = tree._index[v]
    parent = _bfs_parents(tree.order, tree._indexed, end)[0]
    path = [tree._index[u]]
    while path[-1] != end:
        path.append(parent[path[-1]])
    return tuple(tree.vertices[i] for i in path)


def degree(tree: Tree, v: str) -> int:
    _require_vertex(tree, v)
    return len(tree._indexed[tree._index[v]])


def high_degree_vertices(tree: Tree) -> set[str]:
    """Vertices of degree two or more."""
    return {v for v, nbrs in zip(tree.vertices, tree._indexed) if len(nbrs) >= 2}


def longest_path_length(tree: Tree) -> int:
    """Edge count of a longest simple path (0 for the one-vertex tree)."""
    return _far(tree._indexed)[2]


def _kind_of(high: int) -> TreeKind:
    """The class of a tree with ``high`` vertices of degree two or more."""
    if high >= 3:
        return TreeKind.OTHER
    return TreeKind.DOUBLE_STAR if high == 2 else TreeKind.STAR


def classify(tree: Tree) -> TreeClass:
    """Star / DoubleStar / Other by the number of high-degree vertices,
    which are the centers of a star or a double star."""
    high = sorted(high_degree_vertices(tree))
    kind = _kind_of(len(high))
    return TreeClass(kind, () if kind is TreeKind.OTHER else tuple(high))


# ---------------------------------------------------------------------------
# the index form: vertex i of an order-n tree is v(i+1), edges are index pairs

def _tree_count(n: int) -> int:
    """Labeled trees of order n (Cayley), one per Prufer rank."""
    return n ** max(n - 2, 0)


def _rank_edges(n: int, rank: int) -> list[tuple[int, int]]:
    """Sorted index edges of the tree whose Prufer sequence has ``rank`` in
    itertools.product order of range(n) ** (n - 2), decoded in O(n)."""
    if n <= 2:
        return [(0, 1)][: n - 1]
    seq = [0] * (n - 2)
    for i in range(n - 3, -1, -1):
        rank, seq[i] = divmod(rank, n)
    return _prufer_edges(seq, n)


def _prufer_edges(seq, n: int) -> list[tuple[int, int]]:
    """Decode a length n-2 sequence over 0..n-1 into sorted edge pairs, in O(n)."""
    deg = [1] * n
    for v in seq:
        deg[v] += 1
    leaf = scan = deg.index(1)
    edges: list[tuple[int, int]] = []
    for v in seq:
        edges.append((leaf, v) if leaf < v else (v, leaf))
        deg[v] -= 1
        if deg[v] == 1 and v < scan:  # freed below the scan: the least leaf
            leaf = v
        else:
            leaf = scan = deg.index(1, scan + 1)
    edges.append((leaf, n - 1))
    return edges


def _index_adjacency(n: int, edges) -> list[list[int]]:
    """Neighbour lists of the tree on 0..n-1 with index ``edges``, in edge order."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    return adj


def _bfs_parents(n: int, adj, src: int) -> tuple[list[int], list[int]]:
    """Breadth-first parents (``src`` its own) and visiting order from ``src``."""
    parent = [-1] * n
    parent[src] = src
    order = [src]
    for v in order:
        for u in adj[v]:
            if parent[u] < 0:
                parent[u] = v
                order.append(u)
    return parent, order


def _far(adj) -> tuple[list[int], list[int], int]:
    """(parents, visiting order, diameter D) of the breadth-first search
    from one end a of a longest path: the last vertex reached from any start
    ends some longest path, and the last one reached from a, b, is D away."""
    n = len(adj)
    parent, order = _bfs_parents(n, adj, _bfs_parents(n, adj, 0)[1][-1])
    steps, v = 0, order[-1]
    while parent[v] != v:
        v = parent[v]
        steps += 1
    return parent, order, steps


def _ends(adj, far) -> dict[int, list[int]]:
    """Each vertex that ends a longest path, with the parents of the search
    from a far end D away from it, given ``far`` = _far(adj): a vertex ends
    a longest path iff _far's end a or b is D away from it, so this adds one
    search, from b."""
    n, (parent_a, order_a, d) = len(adj), far
    ends = {}
    for parent, order in (parent_a, order_a), _bfs_parents(n, adj, order_a[-1]):
        depth = [-1] * n  # the root, its own parent, gets 0
        for v in order:
            depth[v] = depth[parent[v]] + 1
            if depth[v] == d:
                ends[v] = parent
    return ends


def _longest_path(adj, names, far) -> list[int]:
    """The longest path counterexample_labeling labels, as indices into the
    index adjacency lists ``adj``, given ``far`` = _far(adj): the parent
    chain, in _ends's search, of u, the least of ``names`` that ends a
    longest path. Which far end it reaches cannot show: every longest path
    from u runs through the center, so all of them share their first
    ceil(D/2) + 1 vertices."""
    ends = _ends(adj, far)
    path = [min(ends, key=names.__getitem__)]
    parent = ends[path[0]]
    while parent[path[-1]] != path[-1]:
        path.append(parent[path[-1]])
    return path


def _canonical_tree(adj) -> tuple[tuple[int, ...], list[int]]:
    """(key, position of each vertex) in the canonical form: the preorder
    from the first root of least AHU string, children by ascending string.
    The key, each position's parent position (the root its own), spells the
    form, so isomorphic trees and no others share it."""
    return _canonical(adj)[:2]


def _canonical(adj) -> tuple[tuple[int, ...], list[int], int]:
    """_canonical_tree's (key, positions) and |Aut T|. The roots of least
    AHU string form one orbit, so |Aut T| is their number times the
    automorphisms fixing the first: the product, over its vertices, of m!
    for each m children of one string."""
    n, best, ties = len(adj), None, 0
    for root in range(n):
        parent, order = _bfs_parents(n, adj, root)
        text, kids = [""] * n, [[] for _ in range(n)]
        for v in reversed(order):  # children before parents
            kids[v].sort(key=text.__getitem__)
            text[v] = "(" + "".join(map(text.__getitem__, kids[v])) + ")"
            if v != root:
                kids[parent[v]].append(v)
        if best is None or text[root] < best[0]:
            best, ties = (text[root], root, parent, kids, text), 1
        elif text[root] == best[0]:
            ties += 1
    _, root, parent, kids, text = best
    aut = ties
    for group in kids:
        for _, same in itertools.groupby(map(text.__getitem__, group)):
            aut *= math.factorial(len(list(same)))
    at, key, stack = [0] * n, [], [root]
    while stack:
        v = stack.pop()
        at[v] = len(key)
        key.append(at[parent[v]])
        stack.extend(reversed(kids[v]))
    return tuple(key), at, aut


def _free_trees(n_max: int) -> list[dict[tuple[int, ...], int]]:
    """The free trees of orders 1..n_max, one dict per order from each class
    key to |Aut T|: every tree of order n is a tree of order n - 1 with a
    leaf added, so hanging one from each vertex of each key one order down
    and keeping the canonical forms finds every class."""
    found = [{(0,): 1}]
    for n in range(2, n_max + 1):
        grown = {}
        for key in found[-1]:
            for v in range(n - 1):
                form, _, aut = _canonical(_index_adjacency(n, zip((*key[1:], v), range(1, n))))
                grown[form] = aut
        found.append(grown)
    return found[:n_max]


def _vertex_names(n: int) -> tuple[str, ...]:
    return tuple(f"v{i + 1}" for i in range(n))


def _index_tree(names, edges) -> Tree:
    """The Tree on ``names`` with index ``edges``, which must form a tree."""
    return Tree(names, [(names[a], names[b]) for a, b in edges])


def enumerate_trees(n: int, cap: int = DEFAULT_ENUMERATION_CAP) -> Iterator[Tree]:
    """Every tree on vertices v1..vn, one per Prufer sequence.

    Yields n**(n-2) trees for n >= 2 (one for n in {1, 2}), in lexicographic
    sequence order. Distinct vertex labelings count as distinct trees; no
    isomorphism folding happens here. Raises CapExceeded when n is outside
    1..cap before any work is done.
    """
    if n < 1 or n > cap:
        raise CapExceeded(f"order {n} is outside 1..{cap}")
    return _iter_trees(n)


def _iter_trees(n: int) -> Iterator[Tree]:
    names = _vertex_names(n)
    for rank in range(_tree_count(n)):
        yield _index_tree(names, _rank_edges(n, rank))
