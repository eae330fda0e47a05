"""JSON wire formats for trees, labeled trees, and spaces.

Trees: {"vertices": ["a", ...], "edges": [["a", "b"], ...]}. Edge order and
endpoint order are free on read; writes emit lexicographically sorted pairs.
Labeled trees add {"labels": {"a": "3", "b": "5/2", ...}}. Spaces are
{"points": [...], "dist": [["0", "2", ...], ...]} with row-major entries.
All numeric content travels as exact decimal-integer or p/q strings
(integers are tolerated on read).
"""

from __future__ import annotations

from itertools import chain

from .errors import ParseError
from .labelings import LabeledTree
from .rationals import format_rational, parse_rational
from .spaces import FiniteUltrametricSpace, _names, _rank, _validated
from .trees import Tree, _all_truthy, _tree


def tree_to_dict(tree: Tree) -> dict:
    return {
        "vertices": list(tree.vertices),
        "edges": [list(edge) for edge in tree.edges],
    }


def tree_from_dict(obj) -> Tree:
    """Parse and validate a tree; extra keys (such as labels) are ignored."""
    if not isinstance(obj, dict):
        raise ParseError("expected a JSON object for a tree")
    vertices = obj.get("vertices")
    edges = obj.get("edges")
    if not isinstance(vertices, list) or not _all_truthy(vertices):
        raise ParseError('"vertices" must be a list of non-empty strings')
    if len(set(vertices)) != len(vertices):
        raise ParseError("duplicate vertex names")
    if not isinstance(edges, list):
        raise ParseError('"edges" must be a list of two-element lists')
    paired = _all_truthy(edges, {list}) and set(map(len, edges)) <= {2}
    ends = list(chain.from_iterable(edges)) if paired else [None]
    if not _all_truthy(ends):
        for e in edges:
            if not isinstance(e, list) or len(e) != 2 or not all(isinstance(x, str) for x in e):
                raise ParseError(f"bad edge entry {e!r}")
    return _tree(vertices, edges, ends)  # distinct names, checked


def labeled_tree_to_dict(lt: LabeledTree) -> dict:
    out = tree_to_dict(lt.tree)
    out["labels"] = {v: format_rational(lt.labels[v]) for v in lt.tree.vertices}
    return out


def labeled_tree_from_dict(obj) -> LabeledTree:
    tree = tree_from_dict(obj)
    labels_obj = obj.get("labels")
    if not isinstance(labels_obj, dict):
        raise ParseError('"labels" must map vertex names to rational strings')
    tokens, parse = list(labels_obj.values()), parse_rational
    if set(map(type, tokens)) <= {str, int}:  # hashable, and each distinct token parsed once
        parse = {t: parse_rational(t) for t in dict.fromkeys(tokens)}.__getitem__
    labels = dict(zip(labels_obj, map(parse, tokens)))
    exact = labels.keys() == tree._index.keys()  # no unknown vertex and none missing
    return LabeledTree._trusted(tree, labels) if exact else LabeledTree(tree, labels)


def space_to_dict(space: FiniteUltrametricSpace) -> dict:
    values, codes = space._ranked
    text = [format_rational(q) for q in values]  # each distinct value once
    return {
        "points": list(space.points),
        "dist": [list(map(text.__getitem__, row)) for row in codes],
    }


def space_from_dict(obj) -> FiniteUltrametricSpace:
    """Parse and fully validate an ultrametric space."""
    if not isinstance(obj, dict):
        raise ParseError("expected a JSON object for a space")
    points = obj.get("points")
    dist = obj.get("dist")
    if not isinstance(points, list) or not _all_truthy(points):
        raise ParseError('"points" must be a list of non-empty strings')
    if len(set(points)) != len(points):
        raise ParseError("duplicate point names")
    if not isinstance(dist, list) or len(dist) != len(points):
        raise ParseError('"dist" must be a square matrix of rational strings')
    if not (_all_truthy(dist, {list}) and set(map(len, dist)) <= {len(points)}):
        for r, row in enumerate(dist):
            if not isinstance(row, list) or len(row) != len(points):
                for x in chain.from_iterable(dist[:r]):  # a bad entry in an earlier row comes first
                    parse_rational(x)
                raise ParseError('"dist" must be a square matrix of rational strings')
    return _validated(tuple(points) or _names(points), *_rank(dist, parse_rational))  # empty: _names raises
