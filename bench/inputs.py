"""Seeded inputs for the api-mix workload and the reference answers they carry.

Everything here is independent of the ``ultratree`` package: trees, labelings
and spaces are built as the JSON-shaped dicts the command line reads, and the
expected answer of each request is fixed at generation time by the small
reference computations below (path maxima by breadth-first search, the
column-minimum witness test, degree counting, explicit dendrograms).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

OPS = ("distance", "check-us", "realize", "isometric", "classify", "counterexample")

# Large-class requests per round, by operation. Latency grows about with
# n cubed, so each operation's costs form one cluster per size. The cheap
# operations (classify, counterexample, distance) fill the lower three
# tenths, check-us and realize the next four and the isometry pairs the top
# three, so p50 falls in the middle of the n = 48 check-us/realize cluster
# and p90 in the middle of the n = 56 isometry cluster, not on the edge
# between two clusters, where it jumps from seed to seed.
LARGE_WEIGHTS = {
    "distance": 1,
    "check-us": 2,
    "realize": 2,
    "isometric": 3,
    "classify": 1,
    "counterexample": 1,
}
SMALL_PER_LARGE = 8
ISO_KINDS = ("permuted", "equal-multiset", "distinct-multiset")


@dataclass(frozen=True)
class Scale:
    """Input sizes of one benchmark configuration."""

    small_sizes: tuple[int, ...] = (4, 5, 6, 7, 8, 9, 10, 11, 12)
    large_sizes: tuple[int, ...] = (32, 40, 48, 56, 64)
    small_pool: int = 120  # distinct inputs per small-class operation
    large_pool: int = 40  # distinct inputs per large-class operation
    # p90 sits among the large isometry pairs: twice the inputs halve its
    # seed-to-seed variance
    large_isometric_pool: int = 60
    round_orders: int = 30  # distinct seeded request orders, used in turn
    verify_order: int = 6
    verify_warm_order: int = 3  # untimed warm-up sweep


@dataclass
class Request:
    op: str
    size_class: str  # "small" or "large"
    n: int
    args: tuple  # JSON-shaped dicts handed to the library
    expected: object  # see check_answer in workloads.py


@dataclass
class ApiInputs:
    requests: list[Request]
    rounds: list[list[int]] = field(default_factory=list)


# ---------------------------------------------------------------------------
# reference computations

def adjacency(vertices, edges):
    adj = {v: [] for v in vertices}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    return adj


def path_max_matrix(vertices, edges, labels):
    """d(u, v) = largest label on the u-v path, by one search per source."""
    adj = adjacency(vertices, edges)
    index = {v: i for i, v in enumerate(vertices)}
    n = len(vertices)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for s in vertices:
        best = {s: labels[s]}
        stack = [s]
        while stack:
            w = stack.pop()
            for x in adj[w]:
                if x not in best:
                    best[x] = max(best[w], labels[x])
                    stack.append(x)
        row = rows[index[s]]
        for v, m in best.items():
            if v != s:
                row[index[v]] = m
    return rows


def first_witness(points, rows):
    """First point whose row equals every column's off-diagonal minimum."""
    n = len(points)
    if n == 1:
        return points[0]
    colmin = [min(rows[y][x] for y in range(n) if y != x) for x in range(n)]
    for i in range(n):
        if all(rows[i][x] == colmin[x] for x in range(n) if x != i):
            return points[i]
    return None


def tree_tag(vertices, edges):
    """(tag, centers) by the number of vertices of degree two or more."""
    adj = adjacency(vertices, edges)
    high = sorted(v for v in vertices if len(adj[v]) >= 2)
    if len(high) <= 1:
        return "Star", high
    if len(high) == 2:
        return "DoubleStar", high
    return "Other", []


def longest_path(vertices, edges):
    adj = adjacency(vertices, edges)

    def farthest(s):
        dist = {s: 0}
        queue = [s]
        for w in queue:
            for x in adj[w]:
                if x not in dist:
                    dist[x] = dist[w] + 1
                    queue.append(x)
        far = max(queue, key=dist.__getitem__)
        return far, dist[far]

    end, _ = farthest(vertices[0])
    return farthest(end)[1]


def sorted_distances(rows):
    n = len(rows)
    return sorted(rows[i][j] for i in range(n) for j in range(i + 1, n))


# ---------------------------------------------------------------------------
# trees and labelings

def _names(rng, n, prefix):
    ids = list(range(n))
    rng.shuffle(ids)
    return [f"{prefix}{i}" for i in ids]


def star(rng, n):
    vs = _names(rng, n, "s")
    return vs, [(vs[0], v) for v in vs[1:]]


def double_star(rng, n):
    vs = _names(rng, n, "d")
    a, b, rest = vs[0], vs[1], vs[2:]
    cut = rng.randint(1, len(rest) - 1)
    return vs, [(a, b)] + [(a, v) for v in rest[:cut]] + [(b, v) for v in rest[cut:]]


def long_tree(rng, n):
    """A random tree holding a path of at least four edges."""
    vs = _names(rng, n, "t")
    spine = rng.randint(5, n) if n > 5 else 5
    edges = [(vs[i], vs[i + 1]) for i in range(spine - 1)]
    for i in range(spine, n):
        edges.append((vs[rng.randrange(i)], vs[i]))
    return vs, edges


def random_label(rng):
    if rng.random() < 0.7:
        return Fraction(rng.randint(1, 9))
    return Fraction(rng.randint(1, 19), rng.randint(2, 5))


def nondegenerate_labels(rng, vertices, edges):
    """Positive labels, with zeros on a random independent set of vertices."""
    adj = adjacency(vertices, edges)
    labels = {}
    for v in vertices:
        zero_ok = all(labels.get(u, 1) != 0 for u in adj[v])
        labels[v] = Fraction(0) if zero_ok and rng.random() < 0.25 else random_label(rng)
    return labels


def counterexample_labels(rng, vertices, edges):
    """k*(2,2,3,2,2) along a four-edge path; every other vertex positive."""
    adj = adjacency(vertices, edges)
    ends = [v for v in vertices if len(adj[v]) == 1]
    while True:
        src = rng.choice(ends)
        parent = {src: None}
        queue = [src]
        for w in queue:
            for x in adj[w]:
                if x not in parent:
                    parent[x] = w
                    queue.append(x)
        far = [v for v in queue if _depth(parent, v) >= 4]
        if far:
            break
    v = rng.choice(far)
    path = [v]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    start = rng.randrange(len(path) - 4)
    k = Fraction(rng.randint(1, 6), rng.randint(1, 3))
    labels = {u: k * rng.randint(1, 4) for u in vertices}
    for u, value in zip(path[start:start + 5], (2, 2, 3, 2, 2)):
        labels[u] = k * value
    return labels


def _depth(parent, v):
    d = 0
    while parent[v] is not None:
        v = parent[v]
        d += 1
    return d


# ---------------------------------------------------------------------------
# JSON shapes

def tree_dict(vertices, edges):
    return {"vertices": list(vertices), "edges": [[a, b] for a, b in edges]}


def labeled_tree_dict(vertices, edges, labels, rng):
    out = tree_dict(vertices, edges)
    # integers are accepted on read; mix them in so both paths run
    out["labels"] = {
        v: (int(q) if q.denominator == 1 and rng.random() < 0.5 else str(q))
        for v, q in labels.items()
    }
    return out


def space_dict(points, rows):
    return {"points": list(points), "dist": [[str(x) for x in row] for row in rows]}


def permuted(rng, points, rows, prefix):
    order = list(range(len(points)))
    rng.shuffle(order)
    names = _names(rng, len(points), prefix)
    return names, [[rows[i][j] for j in order] for i in order]


# ---------------------------------------------------------------------------
# spaces

def star_generated_space(rng, n):
    vs, es = (star if rng.random() < 0.5 or n < 4 else double_star)(rng, n)
    rows = path_max_matrix(vs, es, nondegenerate_labels(rng, vs, es))
    return permuted(rng, vs, rows, "x")


def not_us_space(rng, n):
    vs, es = long_tree(rng, n)
    rows = path_max_matrix(vs, es, counterexample_labels(rng, vs, es))
    return permuted(rng, vs, rows, "y")


def gadget_pair(rng, n):
    """Two spaces on n >= 6 points with equal distance multisets that are not
    isometric.

    A base space S on n - 6 points sits at distance H from a six-point gadget,
    H above every other distance. Gadget A joins two three-point clusters at
    height h3; gadget B joins two single points and a four-point cluster at
    h3. Both gadgets have six pairs at h1 and nine at h3, so the multisets
    agree, while the top-level classes of the two spaces differ.
    """
    base_n = n - 6
    if base_n:
        vs, es = star_generated_tree(rng, base_n)
        base = path_max_matrix(vs, es, nondegenerate_labels(rng, vs, es))
    else:
        base = []
    top = max((max(r) for r in base), default=Fraction(0))
    h1 = Fraction(rng.randint(1, 4))
    h3 = h1 + rng.randint(1, 4)
    H = max(top, h3) + rng.randint(1, 3)

    def assemble(clusters):
        group = []
        for c, size in enumerate(clusters):
            group += [c] * size
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                if i < base_n and j < base_n:
                    rows[i][j] = base[i][j]
                elif i < base_n or j < base_n:
                    rows[i][j] = H
                else:
                    same = group[i - base_n] == group[j - base_n]
                    rows[i][j] = h1 if same else h3
        return rows

    return assemble((3, 3)), assemble((1, 1, 4))


def star_generated_tree(rng, n):
    if n == 1:
        return ["b0"], []
    if n < 4 or rng.random() < 0.5:
        return star(rng, n)
    return double_star(rng, n)


def isometry_pair(rng, n, kind):
    """(space A, space B, isometric?) for one of the three pair kinds."""
    if kind == "permuted":
        us = n < 5 or rng.random() < 0.5
        pts, rows = (star_generated_space if us else not_us_space)(rng, n)
        pts_b, rows_b = permuted(rng, pts, rows, "z")
        return (pts, rows), (pts_b, rows_b), True
    if kind == "equal-multiset":
        a, b = gadget_pair(rng, n)
        pa = permuted(rng, [f"g{i}" for i in range(n)], a, "x")
        pb = permuted(rng, [f"g{i}" for i in range(n)], b, "z")
        if sorted_distances(pa[1]) != sorted_distances(pb[1]):
            raise AssertionError("gadget pair lost its equal distance multiset")
        return pa, pb, False
    while True:
        a = star_generated_space(rng, n)
        b = not_us_space(rng, n) if n >= 5 else star_generated_space(rng, n)
        if sorted_distances(a[1]) != sorted_distances(b[1]):
            return a, b, False


# ---------------------------------------------------------------------------
# requests

def _request(rng, op, size_class, n, i):
    """Build one request; ``i`` alternates positive and negative answers."""
    if op == "distance":
        vs, es = (long_tree if n >= 5 and i % 2 else star_generated_tree)(rng, n)
        labels = nondegenerate_labels(rng, vs, es)
        expected = space_dict(vs, path_max_matrix(vs, es, labels))
        args = (labeled_tree_dict(vs, es, labels, rng),)
        return Request(op, size_class, n, args, expected)
    if op in ("check-us", "realize"):
        us = n < 5 or i % 2 == 0
        pts, rows = (star_generated_space if us else not_us_space)(rng, n)
        witness = first_witness(pts, rows)
        if (witness is not None) != us:
            raise AssertionError("generated space has the wrong witness status")
        if op == "check-us":
            expected = witness
        else:
            expected = {"rows": rows} if us else "NotUS"
        return Request(op, size_class, n, (space_dict(pts, rows),), expected)
    if op == "isometric":
        kind = ISO_KINDS[i % 3]
        if kind == "equal-multiset" and n < 6:
            kind = "distinct-multiset"
        a, b, truth = isometry_pair(rng, n, kind)
        return Request(op, size_class, n, (space_dict(*a), space_dict(*b)), truth)
    if op == "classify":
        maker = (star, double_star, long_tree)[i % 3]
        if n < 4 or (maker is long_tree and n < 5):
            maker = star
        vs, es = maker(rng, n)
        tag, centers = tree_tag(vs, es)
        return Request(op, size_class, n, (tree_dict(vs, es),), {"tag": tag, "centers": centers})
    if op == "counterexample":
        long = n >= 5 and i % 2 == 0
        vs, es = (long_tree if long else star_generated_tree)(rng, n)
        if (longest_path(vs, es) >= 4) != long:
            raise AssertionError("generated tree has the wrong path length")
        expected = {"tree": tree_dict(vs, es)} if long else "NoLongPath"
        return Request(op, size_class, n, (tree_dict(vs, es),), expected)
    raise ValueError(f"unknown operation {op!r}")


def build_api_inputs(seed: int, scale: Scale) -> ApiInputs:
    """Request pools for every (class, operation) and a seeded round order.

    Sizes cycle through the class's size list so every pool covers the whole
    range; structures, labels, names and point orders come from the seed.
    """
    rng = random.Random(seed)
    requests: list[Request] = []
    pools: dict[tuple[str, str], list[int]] = {}
    classes = (
        ("small", scale.small_sizes, scale.small_pool),
        ("large", scale.large_sizes, scale.large_pool),
    )
    for size_class, sizes, pool in classes:
        for op in OPS:
            count = scale.large_isometric_pool if (size_class, op) == ("large", "isometric") else pool
            ids = []
            for i in range(count):
                n = sizes[i % len(sizes)]
                ids.append(len(requests))
                requests.append(_request(rng, op, size_class, n, i))
            pools[(size_class, op)] = ids
    inputs = ApiInputs(requests)
    cursor = {key: 0 for key in pools}

    def take(key):
        ids = pools[key]
        k = cursor[key]
        cursor[key] = k + 1
        return ids[k % len(ids)]

    large_ops = [op for op in OPS for _ in range(LARGE_WEIGHTS[op])]
    for _ in range(scale.round_orders):
        small_ops = [OPS[k % len(OPS)] for k in range(SMALL_PER_LARGE * len(large_ops))]
        rng.shuffle(small_ops)
        order = large_ops[:]
        rng.shuffle(order)
        round_ids = []
        for j, op in enumerate(order):
            for s in small_ops[j * SMALL_PER_LARGE:(j + 1) * SMALL_PER_LARGE]:
                round_ids.append(take(("small", s)))
            round_ids.append(take(("large", op)))
        inputs.rounds.append(round_ids)
    return inputs
