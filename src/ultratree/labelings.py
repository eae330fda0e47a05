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
    _decimal,
)
from .rationals import coerce_nonnegative
from .spaces import FiniteUltrametricSpace, _compact, _decode, _row_kind, _value_codes
from .trees import Tree, _bfs_parents, _centered, _longest, _spine

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

    @classmethod
    def _trusted(cls, tree: Tree, labels: dict[str, Fraction]) -> "LabeledTree":
        """The labeled tree with ``labels``, a non-negative Fraction for each
        vertex of ``tree`` and nothing else, taken as they are."""
        lt = object.__new__(cls)
        object.__setattr__(lt, "tree", tree)
        object.__setattr__(lt, "labels", MappingProxyType(labels))
        return lt

    def label(self, v: str) -> Fraction:
        if v not in self.labels:
            raise UnknownVertex(f"vertex {v!r} is not in the tree", (v,))
        return self.labels[v]


def is_nondegenerate(lt: LabeledTree) -> bool:
    """True when every edge has an endpoint with a positive label."""
    return _zero_edge(lt.tree.edges, lt.labels) is None


def _zero_edge(edges, labels):
    """The first of ``edges`` with zero on both ends, or None; ``labels`` is
    indexed by the edges' ends (names and Fractions, or indices and codes)."""
    return next(((a, b) for a, b in edges if not labels[a] and not labels[b]), None)


def raw_distance_matrix(lt: LabeledTree) -> tuple[tuple[str, ...], tuple[tuple[Fraction, ...], ...]]:
    """Path-maximum distances with no validity guarantee attached.

    Returns (points, matrix) in the tree's vertex order. For a degenerate
    labeling the result is not an ultrametric (some distinct pair lands at
    distance zero); build_ultrametric is the checked entry point. O(n^2).
    """
    return lt.tree.vertices, _decode(*_coded_distances(lt))


def _coded_distances(lt: LabeledTree):
    """The path-maximum matrix run on rank codes of the labels: the values
    it holds and its codes. It holds 0 and each code at or above a
    neighbour's, no other (a path's top vertex ends one of its edges)."""
    values, codes = _value_codes(list(map(lt.labels.__getitem__, lt.tree.vertices)))
    held = {0, *(c for nbrs, c in zip(lt.tree._indexed, codes) for b in nbrs if codes[b] <= c)}
    return _compact(values, _path_max(*_bfs_parents(len(codes), lt.tree._indexed, 0), codes), held)


def _path_max(parents, order, labels) -> list:
    """Path-maximum matrix, 0 on the diagonal, as bytes or list rows
    (_row_kind), of the tree in which v hangs from ``parents[v]``, ``order``
    listing each vertex after its parent: a row is its parent's, the
    parent's entry read as its label, lifted to the vertex's label."""
    n = len(labels)
    row, lift, ceilings = _row_kind(max(labels))
    d = row(bytes(n * n))  # zero diagonal
    for z in order[1:]:
        p = parents[z]
        r = d[p * n:p * n + n]  # a copy per child: an earlier sibling wrote its column
        r[p] = labels[p]
        r = lift(r, ceilings[labels[z]])
        r[z] = 0
        d[z * n:z * n + n] = d[z::n] = r
    flat = bytes(d) if row is bytearray else d
    return [flat[i:i + n] for i in range(0, n * n, n)]


def build_ultrametric(lt: LabeledTree):
    """The ultrametric space generated by a non-degenerate labeled tree.

    Point order equals the tree's vertex order. Raises DegenerateLabeling
    when some edge carries zero on both endpoints, since the path maximum
    then fails positivity.
    """
    bad = _zero_edge(lt.tree.edges, lt.labels)
    if bad is not None:
        raise DegenerateLabeling(f"edge {bad} has label zero on both endpoints", bad)
    return FiniteUltrametricSpace._coded(lt.tree.vertices, *_coded_distances(lt))


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
    bad = _zero_edge(tree.edges, labels)
    if bad is not None:
        raise DegenerateResult(
            f"extension leaves edge ({bad[0]!r}, {bad[1]!r}) with zero on both endpoints", bad
        )
    return labels


_COUNTEREXAMPLE_VALUES = (Fraction(0), Fraction(2), Fraction(3))  # by rank code


def _counterexample_codes(third: int, n: int) -> list[int]:
    """counterexample_labeling's codes by vertex index on an order-n tree
    whose chosen longest path has ``third`` as its third vertex: the pattern
    2, 2, 3, 2, 2 along the path's first five vertices, 2 everywhere else."""
    codes = [1] * n
    codes[third] = 2
    return codes


def counterexample_labeling(tree: Tree) -> LabeledTree:
    """A labeling whose generated space admits no star realization.

    Requires a simple path with at least four edges; raises NoLongPath
    otherwise. A four-edge subpath of a longest path gets the two-level
    pattern 2, 2, 3, 2, 2 and every other vertex gets 2. Restricting the
    generated space to those five vertices reproduces the pattern space,
    which has no witness point, so the full space has none either.

    Deterministic choice: the 3 goes on the third vertex of a longest path,
    counted from the least-named vertex that ends one: that end's
    grandparent in the tree rooted at a center (trees._centered).
    """
    verts, adj = tree.vertices, tree._indexed
    spine = _spine(adj)
    if len(spine[2]) < 5:
        raise NoLongPath(f"longest path has {len(spine[2]) - 1} edges, need at least 4")
    parents, order = _centered(adj, spine)
    end = min(_longest(parents, order)[1], key=verts.__getitem__)
    codes = _counterexample_codes(parents[parents[end]], len(verts))
    return LabeledTree._trusted(tree, dict(zip(verts, map(_COUNTEREXAMPLE_VALUES.__getitem__, codes))))


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
    vals = _canon_values(values)
    total = len(vals) ** tree.order
    if total > budget:
        raise BudgetExceeded(f"{_decimal(total)} labelings exceed the budget of {_decimal(budget)}")
    return _iter_labelings(tree, vals, nondegenerate_only)


def _canon_values(values) -> tuple[Fraction, ...]:
    """The distinct values, coerced to non-negative Fractions and sorted;
    ValueError when there are none (``values`` empty or None)."""
    vals = sorted({coerce_nonnegative(v) for v in values or ()})
    if not vals:
        raise ValueError("values must be non-empty")
    return tuple(vals)


def _iter_labelings(
    tree: Tree, vals: tuple[Fraction, ...], nondegenerate_only: bool
) -> Iterator[dict[str, Fraction]]:
    verts = tree.vertices
    for combo in itertools.product(vals, repeat=len(verts)):
        labels = dict(zip(verts, combo))
        if not nondegenerate_only or _zero_edge(tree.edges, labels) is None:
            yield labels
