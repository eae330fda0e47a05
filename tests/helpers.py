"""Independent oracles and shared test data.

Everything in here is deliberately naive: simple-path enumeration for the
longest path, every pair's path for the counterexample labeling,
permutation search for isometry, edge-subset filtering for tree
enumeration, a literal transcription of the witness condition, the axiom
check over every ordered triple, the recursive dendrogram split,
path-maximum matrices that walk every pair's path, the quadratic
Prufer decode that rescans for the least leaf, and the regular-expression
rational parser that parse_rational's str methods replaced.
The point is that none of it shares code with the implementations under
test, so agreement is evidence rather than tautology. The two exceptions
are at the end. Leaf augmentation, the generator of free trees that
trees._free_trees replaced, keeps the AHU forms of ``canonical``, the
canonicalizer the generator's class keys replaced: it checks that the
generator lists every class once. The reference sweep
runs verify's own claim checks one labeled tree at a time: it checks what a
class sweep adds, the classes, their weights and their labeled copies.
"""

from __future__ import annotations

import functools
import json
import math
import re
from fractions import Fraction
from itertools import combinations, groupby, permutations, product
from pathlib import Path

from hypothesis import strategies as st

from ultratree import (
    CanonicalForm,
    FiniteUltrametricSpace,
    LabeledTree,
    ParseError,
    PositivityViolation,
    StrongTriangleViolation,
    SymmetryViolation,
    Tree,
    build_ultrametric,
    coerce_nonnegative,
    validate_tree,
)
from ultratree import verify
from ultratree.spaces import _value_codes
from ultratree.trees import _bfs_parents, _far, _index_adjacency, _rank_edges

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def load_fixture(name):
    with open(FIXTURES / name, encoding="utf-8") as fh:
        return json.load(fh)


# Figure-of-merit example: path on five vertices labeled 2,2,3,2,2.
# Expected distances worked out by hand from the path-max rule.
FIG1_POINTS = ("v1", "v2", "v3", "v4", "v5")
FIG1_MATRIX = tuple(
    tuple(Fraction(x) for x in row)
    for row in (
        (0, 2, 3, 3, 3),
        (2, 0, 3, 3, 3),
        (3, 3, 0, 3, 3),
        (3, 3, 3, 0, 2),
        (3, 3, 3, 2, 0),
    )
)


def space_of(points, rows):
    return FiniteUltrametricSpace(
        tuple(points), tuple(tuple(Fraction(x) for x in r) for r in rows)
    )


def path_tree(n):
    names = [f"v{i}" for i in range(1, n + 1)]
    return validate_tree(names, [(names[i], names[i + 1]) for i in range(n - 1)])


def star_tree(n):
    names = [f"v{i}" for i in range(1, n + 1)]
    return validate_tree(names, [(names[0], v) for v in names[1:]])


def labeled(tree, values):
    return LabeledTree(tree, {v: Fraction(x) for v, x in zip(tree.vertices, values)})


def adjacency(tree):
    adj = {v: [] for v in tree.vertices}
    for a, b in tree.edges:
        adj[a].append(b)
        adj[b].append(a)
    return adj


def index_adjacency(tree):
    """Neighbour lists by position in the tree's vertex order."""
    index = {v: i for i, v in enumerate(tree.vertices)}
    adj = [[] for _ in tree.vertices]
    for a, b in tree.edges:
        adj[index[a]].append(index[b])
        adj[index[b]].append(index[a])
    return adj


def pair_paths(n, adj):
    """(i, j, path from j to i) for every pair i < j of a tree on 0..n-1
    given by index adjacency lists, each path found by its own search."""
    pairs = []
    for i in range(n):
        parent = {i: i}
        stack = [i]
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if u not in parent:
                    parent[u] = v
                    stack.append(u)
        for j in range(i + 1, n):
            path = [j]
            while path[-1] != i:
                path.append(parent[path[-1]])
            pairs.append((i, j, tuple(path)))
    return pairs


def coded_matrix(n, pairs, lab):
    """Path-maximum matrix from ``pair_paths``: each entry is the largest
    label on its pair's path, the diagonal 0."""
    d = [[0] * n for _ in range(n)]
    for i, j, path in pairs:
        d[i][j] = d[j][i] = max(lab[w] for w in path)
    return d


def scanned_held(rows):
    """The codes a matrix of code rows holds, by a scan of every entry: the
    reference for the held codes that the path-max build reads off the
    tree's edges."""
    return {0}.union(*rows)


def brute_longest_path(tree):
    """Longest path length by enumerating every simple path."""
    adj = adjacency(tree)
    best = 0

    def extend(v, seen, length):
        nonlocal best
        if length > best:
            best = length
        for u in adj[v]:
            if u not in seen:
                seen.add(u)
                extend(u, seen, length + 1)
                seen.remove(u)

    for v in tree.vertices:
        extend(v, {v}, 0)
    return best


def brute_counterexample(tree):
    """counterexample_labeling by vertex names, or None when no path has
    four edges: among the pairs farthest apart the least sorted name pair,
    the pattern 2, 2, 3, 2, 2 from its smaller name, 2 everywhere else."""
    adj = adjacency(tree)
    paths = {}
    for u in tree.vertices:
        paths[u] = {u: (u,)}
        queue = [u]
        for w in queue:
            for x in adj[w]:
                if x not in paths[u]:
                    paths[u][x] = paths[u][w] + (x,)
                    queue.append(x)
    length = max(len(p) for found in paths.values() for p in found.values()) - 1
    if length < 4:
        return None
    a, b = min(
        tuple(sorted((u, v)))
        for u, found in paths.items()
        for v, p in found.items()
        if len(p) - 1 == length
    )
    labels = {v: Fraction(2) for v in tree.vertices}
    for v, value in zip(paths[a][b], (2, 2, 3, 2, 2)):
        labels[v] = Fraction(value)
    return LabeledTree(tree, labels)


def brute_trees(n):
    """All labeled trees on n vertices as frozensets of index pairs.

    Filters every (n-1)-subset of the complete graph's edges for
    connectivity. Only usable for small n.
    """
    if n == 1:
        return {frozenset()}
    all_edges = list(combinations(range(n), 2))
    found = set()
    for subset in combinations(all_edges, n - 1):
        adj = {i: [] for i in range(n)}
        for a, b in subset:
            adj[a].append(b)
            adj[b].append(a)
        seen = {0}
        stack = [0]
        while stack:
            for u in adj[stack.pop()]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        if len(seen) == n:
            found.add(frozenset(subset))
    return found


def brute_prufer_edges(seq, n):
    """Prufer decode by rescanning every vertex for the least leaf at each
    step: sorted edge pairs in the order they are found."""
    deg = [1] * n
    for v in seq:
        deg[v] += 1
    edges = []
    for v in seq:
        leaf = min(i for i in range(n) if deg[i] == 1)
        edges.append((leaf, v) if leaf < v else (v, leaf))
        deg[leaf] -= 1
        deg[v] -= 1
    u, w = (i for i in range(n) if deg[i] == 1)
    edges.append((u, w) if u < w else (w, u))
    return edges


def brute_zero_edge(tree, labels):
    """The first edge in ``tree.edges`` order whose two ends are labeled
    zero, or None when the labeling is non-degenerate."""
    for edge in tree.edges:
        if all(labels[v] == 0 for v in edge):
            return edge
    return None


def independent_ranking(space):
    """(values, codes) of a space's matrix: the sorted set of its entries
    plus 0, and each entry's position in that list."""
    values = sorted({Fraction(0), *(x for row in space.dist for x in row)})
    position = {x: i for i, x in enumerate(values)}
    return values, [[position[x] for x in row] for row in space.dist]


def edge_index_set(tree):
    pos = {v: i for i, v in enumerate(tree.vertices)}
    return frozenset((min(pos[a], pos[b]), max(pos[a], pos[b])) for a, b in tree.edges)


def brute_witness(space):
    """First point x0 with d(x0, x) <= d(y, x) for all x != y, else None."""
    n = space.size
    d = space.dist
    for i in range(n):
        if all(
            d[i][x] <= d[y][x]
            for x in range(n)
            for y in range(n)
            if x != y
        ):
            return space.points[i]
    return None


_RATIONAL_RE = re.compile(r"(\d+)(?:/(\d+))?")


def regex_parse_rational(raw):
    """parse_rational by a regular expression over the stripped token,
    raising the same ParseError texts."""
    if isinstance(raw, bool):
        raise ParseError(f"expected a rational, got {raw!r}")
    if isinstance(raw, int):
        if raw < 0:
            raise ParseError(f"negative value {raw}")
        return Fraction(raw)
    match = _RATIONAL_RE.fullmatch(raw.strip()) if isinstance(raw, str) else None
    if match is None:
        raise ParseError(f"expected 'p' or 'p/q' with non-negative integers, got {raw!r}")
    try:
        num, den = map(int, match.groups("1"))
    except ValueError as err:
        raise ParseError(str(err)) from None
    if not den:
        raise ParseError(f"zero denominator in {raw!r}")
    return Fraction(num, den)


def brute_validate(points, dist):
    """The three ultrametric axioms checked entry by entry and over every
    ordered triple, raising what validate_ultrametric raises."""
    pts = tuple(points)
    if not pts:
        raise ValueError("a space needs at least one point")
    if len(set(pts)) != len(pts):
        raise ValueError("point names must be unique")
    if len(dist) != len(pts) or any(len(row) != len(pts) for row in dist):
        raise ValueError(f"distance matrix must be {len(pts)}x{len(pts)}")
    n = len(pts)
    rows = []
    for i, row in enumerate(dist):
        coerced = []
        for j, x in enumerate(row):
            try:
                coerced.append(coerce_nonnegative(x))
            except ValueError:
                raise PositivityViolation(
                    f"negative distance at ({pts[i]!r}, {pts[j]!r})", (pts[i], pts[j])
                ) from None
        rows.append(tuple(coerced))
    for i in range(n):
        if rows[i][i] != 0:
            raise PositivityViolation(f"d({pts[i]!r}, {pts[i]!r}) must be 0", (pts[i],))
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                raise SymmetryViolation(
                    f"d({pts[i]!r}, {pts[j]!r}) != d({pts[j]!r}, {pts[i]!r})",
                    (pts[i], pts[j]),
                )
            if rows[i][j] == 0:
                raise PositivityViolation(
                    f"distinct points {pts[i]!r}, {pts[j]!r} at distance 0",
                    (pts[i], pts[j]),
                )
    for i in range(n):
        for j in range(n):
            dij = rows[i][j]
            for k in range(n):
                if dij > rows[i][k] and dij > rows[k][j]:
                    raise StrongTriangleViolation(
                        f"d({pts[i]!r}, {pts[j]!r}) > max over {pts[k]!r}",
                        (pts[i], pts[j], pts[k]),
                    )
    return FiniteUltrametricSpace(pts, tuple(rows))


def brute_form(space, idxs=None):
    """Canonical form by recursion: split at the diameter into the classes
    of d(x, y) < diameter, children sorted by their serialized text."""
    dist = space.dist
    if idxs is None:
        idxs = tuple(range(space.size))
    if len(idxs) == 1:
        return CanonicalForm(Fraction(0), ())
    diameter = max(dist[i][j] for i, j in combinations(idxs, 2))
    groups = []
    for i in idxs:
        # one representative per class suffices: d(., .) < diameter is an
        # equivalence relation on a valid ultrametric space
        for g in groups:
            if dist[i][g[0]] < diameter:
                g.append(i)
                break
        else:
            groups.append([i])
    children = sorted(
        (brute_form(space, tuple(g)) for g in groups), key=lambda f: f.serialized
    )
    return CanonicalForm(diameter, tuple(children))


def brute_isometric(a, b):
    if a.size != b.size:
        return False
    n = a.size
    da, db = a.dist, b.dist
    for perm in permutations(range(n)):
        if all(
            da[i][j] == db[perm[i]][perm[j]]
            for i in range(n)
            for j in range(i + 1, n)
        ):
            return True
    return False


def high_degree_count(tree):
    deg = {v: 0 for v in tree.vertices}
    for a, b in tree.edges:
        deg[a] += 1
        deg[b] += 1
    return sum(1 for d in deg.values() if d >= 2)


# Analytic counts, rederived here rather than imported:
#   trees(n) = n^(n-2) labeled trees (Cayley), stars have n choices of
#   center for n >= 3, double stars pick the center pair and a proper
#   bipartition of the remaining leaves.
@functools.lru_cache(maxsize=None)
def automorphisms(key):
    """Every automorphism of the tree in which vertex k > 0 hangs from
    ``key[k]``, each as the tuple of images of 0..n-1: networkx's VF2++
    isomorphisms of the tree onto itself (networkx serves only as a test
    oracle)."""
    import networkx as nx

    n = len(key)
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(zip(key[1:], range(1, n)))
    return [tuple(g[v] for v in range(n)) for g in nx.vf2pp_all_isomorphisms(graph, graph)]


def orbit(lab, auts):
    """The labelings an automorphism in ``auts`` maps ``lab`` onto."""
    return {tuple(lab[g[v]] for v in range(len(lab))) for g in auts}


def orbit_count(auts, k):
    """Orbits of Aut T on the k^n labelings over k codes, by Burnside's
    lemma: the mean, over the automorphisms, of k to their cycle count."""
    total = 0
    for g in auts:
        seen, cycles = set(), 0
        for v in range(len(g)):
            if v not in seen:
                cycles += 1
                while v not in seen:
                    seen.add(v)
                    v = g[v]
        total += k**cycles
    return total // len(auts)


def cayley(n):
    return 1 if n <= 2 else n ** (n - 2)


def star_count(n):
    return n if n >= 3 else 1


def double_star_count(n):
    if n < 4:
        return 0
    return (n * (n - 1) // 2) * (2 ** (n - 2) - 2)


def qualifying_count(n):
    return star_count(n) + double_star_count(n)


def expected_cases(theorem, n_max, k):
    orders = range(1, n_max + 1)
    if theorem == "nondeg":
        return sum(cayley(n) * k**n for n in orders)
    if theorem == "lemmas":
        return sum(cayley(n) for n in orders)
    if theorem == "classify":
        return sum(cayley(n) + qualifying_count(n) * k**n for n in orders)
    if theorem == "main":
        return sum(
            cayley(n) + qualifying_count(n) * k**n + (cayley(n) - qualifying_count(n))
            for n in orders
        )
    raise ValueError(theorem)


def all_labelings(tree, values):
    vals = [Fraction(v) for v in values]
    for combo in product(vals, repeat=tree.order):
        yield labeled(tree, combo)


@st.composite
def random_trees(draw, min_order=1, max_order=7):
    """Uniform-ish random tree: attach vertex i to a random earlier one."""
    n = draw(st.integers(min_value=min_order, max_value=max_order))
    names = [f"v{i}" for i in range(1, n + 1)]
    edges = []
    for i in range(1, n):
        parent = draw(st.integers(min_value=0, max_value=i - 1))
        edges.append((names[parent], names[i]))
    return validate_tree(names, edges)


LABEL_POOL = tuple(Fraction(x) for x in (0, 1, 2, 3, Fraction(1, 2), Fraction(5, 2)))


@st.composite
def random_labeled_trees(draw, min_order=1, max_order=7, pool=LABEL_POOL):
    tree = draw(random_trees(min_order=min_order, max_order=max_order))
    labels = {v: draw(st.sampled_from(pool)) for v in tree.vertices}
    return LabeledTree(tree, labels)


@st.composite
def random_spaces(draw, min_order=1, max_order=40):
    """The space of a random labeling of a random tree, or of a star half
    the time, in a random point order. A zero label next to another zero
    is lifted to 1, so the labeling is non-degenerate."""
    n = draw(st.integers(min_value=min_order, max_value=max_order))
    if draw(st.booleans()):
        tree = star_tree(n)
    else:
        tree = draw(random_trees(min_order=n, max_order=n))
    labels = {v: draw(st.sampled_from(LABEL_POOL)) for v in tree.vertices}
    for a, b in tree.edges:
        if labels[a] == 0 and labels[b] == 0:
            labels[b] = Fraction(1)
    space = build_ultrametric(LabeledTree(tree, labels))
    perm = draw(st.permutations(range(n)))
    return FiniteUltrametricSpace(
        tuple(space.points[i] for i in perm),
        tuple(tuple(space.dist[i][j] for j in perm) for i in perm),
    )


# ---------------------------------------------------------------------------
# the reference generator: free trees by leaf augmentation

# free trees by order, 1 through 20 (OEIS A000055)
A000055 = (
    1, 1, 1, 2, 3, 6, 11, 23, 47, 106,
    235, 551, 1301, 3159, 7741, 19320, 48629, 123867, 317955, 823065,
)


def canonical(adj):
    """(key, position of each vertex, |Aut T|) of the tree's AHU form, from
    one AHU pass at the center, the middle of trees._far's path, which every
    automorphism fixes: the preorder from the center, children by ascending
    AHU string. The key, each position's parent position (the root its own),
    spells the form, so isomorphic trees and no others share it. A bicentral
    tree is cut at its central edge into two halves, the one of lesser
    string first: the key lists it as positions [0, h) and the other, hung
    last from vertex 0, as [h, n). Children of one string keep their search
    order. |Aut T| is the product, over the vertices, of m! for each m
    children of one string, times 2 when the halves are equal."""
    n = len(adj)
    far_parent, far_order, d = _far(adj)
    root = far_order[-1]
    for _ in range(d // 2):
        root = far_parent[root]
    other = far_parent[root] if d % 2 else None
    parent, order = _bfs_parents(n, adj, root)
    text, kids = [""] * n, [[] for _ in range(n)]
    for v in order[1:]:
        kids[parent[v]].append(v)
    if other is not None:
        kids[root].remove(other)
    aut = 1
    for v in reversed(order):  # children before parents
        group = kids[v]
        if len(group) > 1:
            group.sort(key=text.__getitem__)
            for _, same in groupby(map(text.__getitem__, group)):
                aut *= math.factorial(len(list(same)))
        text[v] = "(" + "".join(map(text.__getitem__, group)) + ")"
    if other is not None:
        if text[other] < text[root]:
            root, other = other, root
        aut *= 2 if text[other] == text[root] else 1
        kids[root].append(other)
        parent[root], parent[other] = root, root
    at, key, stack = [0] * n, [], [root]
    while stack:
        v = stack.pop()
        at[v] = len(key)
        key.append(at[parent[v]])
        stack.extend(reversed(kids[v]))
    return tuple(key), at, aut


def canonicalized(found):
    """trees._free_trees's answer with each class key, in which vertex k > 0
    hangs from key[k], replaced by canonical's key of its tree."""
    return [
        {canonical(_index_adjacency(n, zip(key[1:], range(1, n))))[0]: aut for key, aut in keys.items()}
        for n, keys in enumerate(found, 1)
    ]


def leaf_augmented_trees(n_max):
    """trees._free_trees's answer found the slow way, keyed by canonical:
    every tree of order n is a tree of order n - 1 with a leaf added, so
    hanging one from each vertex of each class key one order down and
    keeping the canonical forms finds every class of order n, each from many
    candidates."""
    found = [{(0,): 1}]
    for n in range(2, n_max + 1):
        grown = {}
        for key in found[-1]:
            for v in range(n - 1):
                form, _, aut = canonical(_index_adjacency(n, zip((*key[1:], v), range(1, n))))
                grown[form] = aut
        found.append(grown)
    return found[:n_max]


# ---------------------------------------------------------------------------
# the reference sweep: every labeled tree by Prufer rank


def copy_names(n, edges):
    """(class key, names) of the tree on 0..n-1 with index ``edges``, where
    names[k] is the vertex at key position k: of the isomorphisms from the
    key's tree, canonical's composed with every automorphism (networkx),
    the one whose names rise at the start of each block of
    verify._sibling_blocks, as verify._copies names the copies."""
    key, at, _ = canonical(_index_adjacency(n, edges))
    first = sorted(range(n), key=at.__getitem__)  # the vertex at each key position
    found = []
    for g in automorphisms(key):
        names = [first[g[k]] for k in range(n)]
        if all(names[s] > names[s - size] for s, size, _ in verify._sibling_blocks(key)):
            found.append(names)
    assert len(found) == 1
    return key, found[0]


class RankFacts(verify._Facts):
    """verify's facts record of the labeled tree of Prufer rank ``rank``,
    its edges in decode order. Its walk is its class key's full walk, taken
    once per key and mode in ``walks``, read through copy_names."""

    def __init__(self, n, rank, values=(), codes=(), walks=None):
        super().__init__(n, _rank_edges(n, rank), values, codes)
        self.rank, self.walks = rank, {} if walks is None else walks

    def walk(self, witness):
        key, names = copy_names(self.n, self.edges)
        if (key, witness) not in self.walks:
            self.walks[key, witness] = verify._class_walk(key, self.codes, witness)
        cases, bad = self.walks[key, witness]
        by_vertex = []
        for lab in bad:
            by_vertex.append([None] * self.n)
            for k, v in enumerate(names):
                by_vertex[-1][v] = lab[k]
        return cases, by_vertex


def reference_sweep(theorem, n, values=None):
    """(cases, certificates) of the theorem's claim checks on each of the
    n^(n-2) labeled trees of order n, one Prufer rank at a time, over the
    sorted distinct Fractions ``values``: the sweep by rank that class sweeps
    replaced, each case counted once."""
    claims = verify._reported(theorem)
    by_code, codes = _value_codes(values or ())
    cases, fails, walks = 0, [], {}
    for rank in range(cayley(n)):
        facts = RankFacts(n, rank, by_code, codes, walks)
        for claim, trees, counted in claims:
            if trees.holds(facts):
                made, found = claim.check(facts) if claim.per_labeling else (1, claim.check(facts))
                cases += made if counted else 0
                fails += found
    return cases, fails
