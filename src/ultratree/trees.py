"""Finite simple trees: validation, paths, degrees, diameter, classification,
and exhaustive enumeration over labeled vertex sets.

Vertex identifiers are arbitrary non-empty strings. A ``Tree`` keeps its
vertices in construction order; that order is meaningful, it becomes the
point order of any metric space generated from the tree. Edges are stored
sorted, as sorted pairs, so structural equality is well defined.
"""

from __future__ import annotations

import enum
import heapq
import math
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import chain
from operator import ne
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
    verts, edges = list(vertices), list(edges)
    if not _all_truthy(verts):
        for v in verts:
            if not isinstance(v, str) or not v:
                raise BadEdge(f"vertex ids must be non-empty strings, got {v!r}")
    paired = _all_truthy(edges, {list, tuple}) and set(map(len, edges)) <= {2}
    return _tree(list(dict.fromkeys(verts)), edges, list(chain.from_iterable(edges)) if paired else [None])


def _tree(verts, edges, ends) -> Tree:
    """validate_tree on a list of distinct non-empty names, a list of edges,
    and their ends in order if each edge is a list or tuple pair (else any
    list _all_truthy rejects); tree_from_dict calls it with its own screens made."""
    if not verts:
        raise EmptyVertexSet("a tree needs at least one vertex")
    seen = set(verts)
    if _all_truthy(ends) and seen.issuperset(ends) and all(map(ne, ends[::2], ends[1::2])):
        pairs = edges
    else:  # check each edge, naming the first offender
        pairs = []
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
            pairs.append(pair)
    n, tree = len(verts), Tree(tuple(verts), pairs)  # the distinct edges, sorted once
    if len(tree.edges) > n - 1:
        raise HasCycle(f"{len(tree.edges)} edges on {n} vertices, a tree has {n - 1}")
    if len(tree.edges) < n - 1:
        raise NotConnected(f"{len(tree.edges)} edges cannot connect {n} vertices")

    reached = _bfs_parents(n, tree._indexed, 0)[1]  # the index form, built once and kept
    if len(reached) != n:
        raise NotConnected(f"{n - len(reached)} vertices unreachable from {verts[0]!r}")
    return tree


def _all_truthy(xs, kinds=frozenset((str,))) -> bool:
    """Whether each item of the list ``xs`` is truthy and of a type in ``kinds``
    (default str): by whole-list operations on exact types, else item by item."""
    return set(map(type, xs)) <= kinds and all(xs) or all(isinstance(x, tuple(kinds)) and x for x in xs)


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


def _prufer_rank(n: int, edges) -> int:
    """The rank _rank_edges decodes into the tree on 0..n-1 with index
    ``edges``: its Prufer sequence, the neighbour of the least leaf cut off
    n - 2 times, read in base n. The leaves wait in a heap: O(n log n)."""
    adj = [set(nbrs) for nbrs in _index_adjacency(n, edges)]
    leaves, rank = [v for v in range(n) if len(adj[v]) == 1], 0  # ascending: a heap
    for _ in range(n - 2):
        leaf = heapq.heappop(leaves)
        (v,) = adj[leaf]
        adj[v].remove(leaf)
        rank = rank * n + v
        if len(adj[v]) == 1:
            heapq.heappush(leaves, v)
    return rank


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


def _thirds(adj, far, names=None) -> list[int]:
    """The vertices counterexample_labeling may put its 3 on, as indices into
    the index adjacency lists ``adj``, given ``far`` = _far(adj): none when
    the diameter D is below 4, else the vertex two steps in from each end of
    a longest path, ascending, or with ``names`` only from the least-named
    end. A vertex ends a longest path iff _far's end a or b is D away from
    it, so this adds one search, from b. Which longest path from an end it
    follows cannot show: every one runs through the center, so all share
    their first ceil(D/2) + 1 vertices."""
    n, (parent_a, order_a, d) = len(adj), far
    if d < 4:
        return []
    thirds = {}  # each end's third
    for parent, order in (parent_a, order_a), _bfs_parents(n, adj, order_a[-1]):
        depth = [-1] * n  # the root, its own parent, gets 0
        for v in order:
            depth[v] = depth[parent[v]] + 1
            if depth[v] == d:
                thirds[v] = parent[parent[v]]
    if names is not None:
        return [thirds[min(thirds, key=names.__getitem__)]]
    return sorted(set(thirds.values()))


def _free_trees(n_max: int) -> list[dict[tuple[int, ...], int]]:
    """The free trees of orders 1..n_max, one dict per order from each class
    key to |Aut T|. Vertex k > 0 of a key hangs from key[k], the last earlier
    vertex one level up in one of _layouts's sequences, a bicentral tree's
    first subtree (the other center's half) moved to hang last from the root.
    |Aut T| is the product of j over the key's _sibling_blocks."""
    found = [{(0,): 1}]
    for n in range(2, n_max + 1):
        found.append({})
        for layout in _layouts(n):
            left, rest = _split(layout)
            if max(left) == max(rest):  # bicentral: vertex 1 is the other center
                layout = rest + [depth + 1 for depth in left]
            key, last = [0], [0] * n  # last: the latest vertex at each depth
            for v, depth in enumerate(layout[1:], 1):
                key.append(last[depth - 1])
                last[depth] = v
            found[-1][tuple(key)] = math.prod(j for _, _, j in _sibling_blocks(key))
    return found[:n_max]


def _sibling_blocks(key) -> list[tuple[int, int, int]]:
    """The blocks of positions that automorphisms of the class key's tree
    swap, from the key alone (a preorder in which vertex k > 0 hangs from
    ``key[k]``): (s, size, j) for the j-th (j >= 2) of a run of consecutive
    sibling subtrees laid out alike, the subtree at s spanning [s, s + size)
    and the one before it [s - size, s); and (h, h, 2) when the root's last
    child h heads a half laid out like the rest, [0, h). Sibling leaves are
    blocks of size 1. Swapping a block with the one before it is an
    automorphism; on a key of _free_trees, which lays alike subtrees out
    alike and side by side, these swaps generate Aut T."""
    n = len(key)
    size = [1] * n
    for k in range(n - 1, 0, -1):
        size[key[k]] += size[k]

    def shape(s):  # the subtree at s, each position's parent as an offset from s
        return [p - s for p in key[s + 1:s + size[s]]]

    blocks, last, j = [], [0] * n, [1] * n  # last: each vertex's last child so far
    for k in range(1, n):
        q, last[key[k]] = last[key[k]], k
        if q and size[q] == size[k] and shape(q) == shape(k):
            j[k] = j[q] + 1
            blocks.append((k, size[k], j[k]))
    h = last[0]
    if 2 * h == n and shape(h) == list(key[1:h]):
        blocks.append((h, h, 2))
    return blocks


def _layouts(n: int) -> Iterator[list[int]]:
    """Each free tree of order n >= 2 once, as the level sequence (depths in
    preorder, subtrees non-increasing) rooted at a center, changed in place
    between yields (Wright, Richmond, Odlyzko and McKay, SIAM J. Comput. 15,
    1986): Beyer-Hedetniemi successors from the path to the star, and past
    one whose first subtree is higher than the rest, or as high and larger
    or lexicographically later, a jump to the next free tree's."""
    layout = [*range(n // 2 + 1), *range(1, (n + 1) // 2)]  # the path, rooted at its center
    while True:
        left, rest = _split(layout)
        if (max(left), len(left), left) > (max(rest), len(rest), rest):
            _successor(layout, len(left))  # from the last vertex of ``left``
            if layout[len(left)] > 1:  # it was past depth 2: end on a path one deeper than ``left``
                h = max(_split(layout)[0])
                layout[n - h - 1:] = range(1, h + 2)
        yield layout
        if max(layout) == 1:  # the star, the last sequence
            return
        _successor(layout, max(i for i, depth in enumerate(layout) if depth > 1))


def _split(layout) -> tuple[list[int], list[int]]:
    """The level sequences of the root's first subtree and of the rest."""
    m = (*layout, 1).index(1, 2)  # the root's second child, else n
    return [depth - 1 for depth in layout[1:m]], [0, *layout[m:]]


def _successor(layout, p: int) -> None:
    """Beyer-Hedetniemi, in place: from p on, repeat layout[q:p], q p's parent."""
    q = p - 1 - layout[p - 1::-1].index(layout[p] - 1)
    layout[p:] = (layout[q:p] * len(layout))[:len(layout) - p]


@cache  # one tuple of names per order, shared by every tree on it
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
