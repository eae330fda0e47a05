"""Vertex labelings and the ultrametrics they generate.

A labeling assigns a non-negative rational to every vertex of a tree. The
distance between two distinct vertices is the largest label on the unique
path joining them, endpoints included. That distance is an ultrametric
exactly when the labeling is non-degenerate, meaning every edge has at
least one endpoint with a strictly positive label.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from .errors import (
    BudgetExceeded,
    DegenerateLabeling,
    DegenerateResult,
    NoLongPath,
    UnknownVertex,
)
from .rationals import coerce_nonnegative
from .trees import Tree, _distances, longest_path_length, unique_path

DEFAULT_LABELING_BUDGET = 1_000_000

Labeling = Mapping[str, Fraction]


@dataclass(frozen=True)
class LabeledTree:
    """A tree together with a total labeling of its vertices."""

    tree: Tree
    labels: Labeling

    def __post_init__(self):
        known = set(self.tree.vertices)
        coerced: dict[str, Fraction] = {}
        for v, value in self.labels.items():
            if v not in known:
                raise UnknownVertex(f"label given for unknown vertex {v!r}", (v,))
            coerced[v] = coerce_nonnegative(value)
        missing = [v for v in self.tree.vertices if v not in coerced]
        if missing:
            raise ValueError(f"missing labels for {missing}")
        object.__setattr__(self, "labels", MappingProxyType(coerced))

    def label(self, v: str) -> Fraction:
        if v not in self.labels:
            raise UnknownVertex(f"vertex {v!r} is not in the tree", (v,))
        return self.labels[v]


def is_nondegenerate(lt: LabeledTree) -> bool:
    """True when every edge has an endpoint with a positive label."""
    labels = lt.labels
    return all(labels[a] > 0 or labels[b] > 0 for a, b in lt.tree.edges)


def raw_distance_matrix(lt: LabeledTree) -> tuple[tuple[str, ...], tuple[tuple[Fraction, ...], ...]]:
    """Path-maximum distances with no validity guarantee attached.

    Returns (points, matrix) in the tree's vertex order. For a degenerate
    labeling the result is not an ultrametric (some distinct pair lands at
    distance zero); build_ultrametric is the checked entry point. O(n^2).
    """
    verts = lt.tree.vertices
    index = {v: i for i, v in enumerate(verts)}
    adj = [[index[u] for u in lt.tree._adjacency[v]] for v in verts]
    rows = _path_max(adj, [lt.labels[v] for v in verts], Fraction(0))
    return verts, tuple(map(tuple, rows))


def _path_max(adj, labels, zero) -> list[list]:
    """Path-maximum matrix of the tree with index adjacency lists ``adj``,
    ``zero`` on the diagonal. In breadth-first order from vertex 0 each row
    is the label maxed into the parent's row, whose own entry reads as the
    parent's label: paths to earlier vertices run through the parent."""
    n = len(labels)
    rows = [[zero] * n for _ in range(n)]
    seen = [True] + [False] * (n - 1)
    order = [0]
    for p in order:
        above, dp = labels[p], rows[p]
        for z in adj[p]:
            if not seen[z]:
                seen[z] = True
                c, dz = labels[z], rows[z]
                for x in order:
                    w = above if x == p else dp[x]
                    dz[x] = rows[x][z] = c if c > w else w
                order.append(z)
    return rows


def build_ultrametric(lt: LabeledTree):
    """The ultrametric space generated by a non-degenerate labeled tree.

    Point order equals the tree's vertex order. Raises DegenerateLabeling
    when some edge carries zero on both endpoints, since the path maximum
    then fails positivity.
    """
    from .spaces import FiniteUltrametricSpace

    if not is_nondegenerate(lt):
        bad = next(
            (a, b) for a, b in lt.tree.edges if lt.labels[a] == 0 and lt.labels[b] == 0
        )
        raise DegenerateLabeling(f"edge {bad} has label zero on both endpoints", bad)
    points, rows = raw_distance_matrix(lt)
    return FiniteUltrametricSpace._of_fractions(points, rows)


def extend_labeling(tree: Tree, partial: Mapping[str, object], fill) -> dict[str, Fraction]:
    """Complete a partial labeling by assigning ``fill`` everywhere else.

    ``fill`` must be positive; the extension must stay non-degenerate, so a
    partial labeling that already puts zero on both endpoints of an edge
    raises DegenerateResult.
    """
    fill_value = coerce_nonnegative(fill)
    if fill_value == 0:
        raise ValueError("fill must be positive")
    known = set(tree.vertices)
    values: dict[str, Fraction] = {}
    for v, raw in partial.items():
        if v not in known:
            raise UnknownVertex(f"partial labeling names unknown vertex {v!r}", (v,))
        values[v] = coerce_nonnegative(raw)
    labels = {v: values.get(v, fill_value) for v in tree.vertices}
    for a, b in tree.edges:
        if labels[a] == 0 and labels[b] == 0:
            raise DegenerateResult(
                f"extension leaves edge ({a!r}, {b!r}) with zero on both endpoints", (a, b)
            )
    return labels


_COUNTEREXAMPLE_PATTERN = (Fraction(2), Fraction(2), Fraction(3), Fraction(2), Fraction(2))
_COUNTEREXAMPLE_FILL = Fraction(2)


def counterexample_labeling(tree: Tree) -> LabeledTree:
    """A labeling whose generated space admits no star realization.

    Requires a simple path with at least four edges; raises NoLongPath
    otherwise. A four-edge subpath of a longest path gets the two-level
    pattern 2, 2, 3, 2, 2 and every other vertex gets 2. Restricting the
    generated space to those five vertices reproduces the pattern space,
    which has no witness point, so the full space has none either.

    Deterministic choice: among all vertex pairs realizing the longest path
    length, the lexicographically least (sorted) pair is used, and the
    subpath starts from its smaller endpoint.
    """
    length = longest_path_length(tree)
    if length < 4:
        raise NoLongPath(f"longest path has {length} edges, need at least 4")
    best: tuple[str, str] | None = None
    for u in tree.vertices:
        dist = _distances(tree, u)
        for v, d in dist.items():
            if d == length:
                pair = (u, v) if u <= v else (v, u)
                if best is None or pair < best:
                    best = pair
    assert best is not None
    path = unique_path(tree, best[0], best[1])
    labels = {v: _COUNTEREXAMPLE_FILL for v in tree.vertices}
    for v, value in zip(path[:5], _COUNTEREXAMPLE_PATTERN):
        labels[v] = value
    return LabeledTree(tree, labels)


def enumerate_labelings(
    tree: Tree,
    values: Iterable,
    nondegenerate_only: bool = False,
    budget: int = DEFAULT_LABELING_BUDGET,
) -> Iterator[dict[str, Fraction]]:
    """All labelings of the tree over a finite value set, in lexicographic
    order of the sorted values along the vertex order.

    With ``nondegenerate_only`` the degenerate ones are filtered out.
    Raises BudgetExceeded up front when |values| ** order exceeds budget.
    """
    vals = sorted({coerce_nonnegative(v) for v in values})
    if not vals:
        raise ValueError("values must be non-empty")
    total = len(vals) ** tree.order
    if total > budget:
        raise BudgetExceeded(f"{total} labelings exceed the budget of {budget}")
    return _iter_labelings(tree, tuple(vals), nondegenerate_only)


def _iter_labelings(
    tree: Tree, vals: tuple[Fraction, ...], nondegenerate_only: bool
) -> Iterator[dict[str, Fraction]]:
    verts = tree.vertices
    edges = tree.edges
    for combo in itertools.product(vals, repeat=len(verts)):
        labels = dict(zip(verts, combo))
        if nondegenerate_only and any(
            labels[a] == 0 and labels[b] == 0 for a, b in edges
        ):
            continue
        yield labels
