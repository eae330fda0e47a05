"""Finite ultrametric spaces: validation, witness points, star realization,
canonical dendrogram forms, and isometry testing.

A space is star generated when some point x0 satisfies
d(x0, x) <= d(y, x) for every pair of distinct points x, y. Such an x0 is
called a witness here; it can serve as the center of a labeled star whose
path-maximum metric reproduces the space exactly.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, count, groupby
from operator import attrgetter, itemgetter
from typing import Iterable, Sequence

from .errors import (
    EmptySubset,
    NotUS,
    PositivityViolation,
    StrongTriangleViolation,
    SymmetryViolation,
    UnknownPoint,
)
from .rationals import coerce_nonnegative, format_rational


class _Decoded:
    """The ``dist`` field of a space: its Fraction rows, decoded from the
    rank codes on first read and then kept in the instance, where they
    shadow this descriptor. It has no class default, so ``dist`` stays a
    required field."""

    def __get__(self, space, owner=None):
        if space is None:
            raise AttributeError("dist")
        dist = space.__dict__["dist"] = _decode(*space._ranked)
        return dist


@dataclass(frozen=True, eq=False)
class FiniteUltrametricSpace:
    """Ordered points with an exact symmetric distance matrix.

    Every space is born rank-coded: ``_ranked`` holds (values, codes) with
    values[codes[i][j]] == dist[i][j] and values[0] == 0, the values sorted
    and each held by some entry or zero. Code rows are ``bytes`` up to 256
    values, the width of a byte, else lists, so equal spaces share one row
    type; the constructor codes its matrix (_rank, each distinct entry
    coerced to a Fraction once), and the package's own spaces are made from
    rows so coded by _coded. Checks and answers read the codes only:
    ``dist`` is decoded on first read, and equality and hashing go through
    (points, values, codes), equal exactly when (points, dist) are. The
    constructor rejects an empty or repeated point list and a matrix that
    is not N x N with ValueError (_names, _check_shape), but not a broken
    axiom; validate_ultrametric checks untrusted data. A checked space keeps
    the links its check found (_mst, see _validated), which equality ignores.
    """

    points: tuple[str, ...]
    dist: tuple[tuple[Fraction, ...], ...] = _Decoded()
    _mst = None  # not a field: a checked space's _links, set by _validated

    def __post_init__(self):
        object.__setattr__(self, "points", _names(self.points))
        # the caller's rows go: a read of dist decodes the codes instead
        rows = tuple(map(tuple, self.__dict__.pop("dist")))
        _check_shape(self.points, rows)
        object.__setattr__(self, "_ranked", _rank(rows, coerce_nonnegative))

    @property
    def size(self) -> int:
        return len(self.points)

    @classmethod
    def _coded(cls, points, values, codes) -> "FiniteUltrametricSpace":
        """A space over a tuple of points and their rank codes, unchecked."""
        space = object.__new__(cls)
        object.__setattr__(space, "points", points)
        object.__setattr__(space, "_ranked", (values, codes))
        return space

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.points == other.points and self._ranked == other._ranked

    def __hash__(self):
        values, codes = self._ranked
        return hash((self.points, tuple(values), tuple(map(tuple, codes))))

    @cached_property
    def _index(self) -> dict[str, int]:
        return {p: i for i, p in enumerate(self.points)}

    def distance(self, x: str, y: str) -> Fraction:
        values, codes = self._ranked
        try:
            return values[codes[self._index[x]][self._index[y]]]
        except KeyError as exc:
            raise UnknownPoint(f"point {exc.args[0]!r} is not in the space") from None


def validate_ultrametric(points: Sequence[str], dist: Sequence[Sequence]) -> FiniteUltrametricSpace:
    """Check the three ultrametric axioms in O(n^2) and return the space.

    Symmetry and positivity (zero exactly on the diagonal, nothing negative)
    by whole-row screens, entry by entry only on a matrix they reject; the
    strong triangle inequality by the join rule: each point k, at distance m
    from a, the first of its nearest earlier points, has d(k, x) =
    max(m, d(a, x)) for every x before it (see _joins). A scan over triples
    runs only to name a failure's first offender (see _first_offender).
    Raises ValueError for a matrix that is not N x N, SymmetryViolation,
    PositivityViolation, or StrongTriangleViolation naming the points.
    """
    pts = _names(points)
    _check_shape(pts, dist)
    try:
        values, codes = _rank(tuple(map(tuple, dist)), coerce_nonnegative)
    except ValueError as exc:
        a, b = (pts[k] for k in exc.at)
        raise PositivityViolation(f"negative distance at ({a!r}, {b!r})", (a, b)) from None
    return _validated(pts, values, codes)


def _names(points) -> tuple:
    """The points as a tuple; ValueError when there are none or one repeats."""
    pts = tuple(points)
    if not pts:
        raise ValueError("a space needs at least one point")
    if len(set(pts)) != len(pts):
        raise ValueError("point names must be unique")
    return pts


def _validated(pts, values, codes) -> FiniteUltrametricSpace:
    """The axiom stage of every checked space: the space over ``pts`` and
    the rank codes of its matrix, or the first violation (_first_offender)
    raised as SymmetryViolation, PositivityViolation or
    StrongTriangleViolation naming its points. The space keeps the links
    the check reads as ``_mst``, a minimum spanning tree of a valid space,
    for its column minima and canonical form."""
    links = list(_links(codes))
    offence = _first_offender(codes, links)
    if offence is None:
        space = FiniteUltrametricSpace._coded(pts, values, codes)
        object.__setattr__(space, "_mst", links)
        return space
    axiom, at = offence
    a, b, *c = (pts[k] for k in at)
    if axiom == "symmetry":
        raise SymmetryViolation(f"d({a!r}, {b!r}) != d({b!r}, {a!r})", (a, b))
    if axiom == "strong-triangle":
        raise StrongTriangleViolation(f"d({a!r}, {b!r}) > max over {c[0]!r}", (a, b, *c))
    if a == b:
        raise PositivityViolation(f"d({a!r}, {a!r}) must be 0", (a,))
    raise PositivityViolation(f"distinct points {a!r}, {b!r} at distance 0", (a, b))


def _check_shape(points, dist) -> None:
    if len(dist) != len(points) or any(len(row) != len(points) for row in dist):
        raise ValueError(f"distance matrix must be {len(points)}x{len(points)}")


def _first_offender(codes, links=None):
    """The first axiom a square matrix of rank codes (all byte or all list
    rows) breaks, as (axiom, point indices), or None. An accept-only screen
    runs first, in whole-row operations: the diagonal all zero and the
    matrix equal to its transpose, both stepped slices of the joined rows,
    and every point joining the points before it by the join rule
    (``links``, by default _links of the codes; _joins, or _byte_joins on
    byte rows), whose m > 0 puts no zero off the diagonal. Only a matrix it
    rejects is scanned row by row, the diagonal entry and then each pair
    i < j for symmetry and positivity, to name the first offender; then
    the first strong-triangle triple (i, j, k) with i < j, which on a
    symmetric matrix is also the first over ordered pairs: an offender
    (j, i, k) with j > i makes (i, j, k) one."""
    n = len(codes)
    flat = b"".join(codes) if type(codes[0]) is bytes else list(chain.from_iterable(codes))
    joins = _byte_joins if type(flat) is bytes else _joins
    screened = not any(flat[::n + 1]) and codes == [flat[j::n] for j in range(n)]
    if screened and all(joins(codes[k][:k], m, codes[a][:k]) for m, a, k in links or _links(codes)):
        return None
    for i, row in enumerate(codes):
        if row[i]:
            return "positivity", (i, i)
        for j in range(i + 1, n):
            if row[j] != codes[j][i]:
                return "symmetry", (i, j)
            if not row[j]:
                return "positivity", (i, j)
    for i, row in enumerate(codes):
        for j in range(i + 1, n):
            for k in range(n):
                if row[j] > row[k] and row[j] > codes[k][j]:
                    return "strong-triangle", (i, j, k)
    return None


_TOKENS = frozenset((str, int))
_CEILINGS = [bytes([m]) * m + bytes(range(m, 256)) for m in range(256)]  # see _byte_joins


def _rank(rows, convert):
    """(values, codes) of a square matrix whose rows keep its entries alive,
    so ids stay unique; rows are bytes up to 256 values. Each distinct entry
    is converted to a Fraction by ``convert`` once, in row-major order of
    first appearance, so the first bad entry raises first; a ValueError
    names its cell in ``at``. One hashing pass numbers the entries; if all
    are exact str, as JSON's are, each row of numbers is coded by one
    translate (a non-str entry equal to an earlier str, which no JSON value
    is, is coded as that str), else by _entry_keys and a lookup per cell."""
    ids = defaultdict(count().__next__)
    try:
        keys = [bytes(map(ids.__getitem__, row)) for row in rows]
        tokens = all(type(key) is str for key in ids)
    except (TypeError, ValueError):  # an unhashable entry, a 257th distinct one
        tokens = False
    distinct, entries = ids, {}
    if not tokens:
        keys, entries = _entry_keys(rows)
        distinct = dict.fromkeys(chain.from_iterable(keys))
    fracs = []
    for key in distinct:
        try:
            fracs.append(convert(entries.get(key, key)))
        except ValueError as exc:
            cell = ids[key] if tokens else key
            exc.at = next((i, row.index(cell)) for i, row in enumerate(keys) if cell in row)
            raise
    values, codes = _value_codes(fracs)
    row_type = bytes if len(values) <= 256 else list
    if tokens and row_type is bytes:
        table = bytes(codes).ljust(256, b"\0")
        return values, [row.translate(table) for row in keys]
    code = (codes if tokens else dict(zip(distinct, codes))).__getitem__
    return values, [row_type(map(code, row)) for row in keys]


def _entry_keys(rows) -> tuple[list, dict]:
    """(keys, entries): the rows with each entry replaced by its key, and
    the entry of each key that is not its own entry. An exact str or int is
    its own key, so equal ones share it; any other object is keyed by its
    id, in a 1-tuple that equals no entry, so True is not 1 nor 1.0 either,
    and an unhashable entry still gets a key (_rank's general path)."""
    if set(map(type, chain.from_iterable(rows))) <= _TOKENS:
        return rows, {}
    keys = [[x if type(x) in _TOKENS else (id(x),) for x in row] for row in rows]
    return keys, dict(zip(chain.from_iterable(keys), chain.from_iterable(rows)))


def _value_codes(fracs):
    """The rank coding of a sequence of Fractions: (values, codes) with
    ``values`` the sorted distinct ones plus zero, so zero has code 0, and
    codes[i] the index of fracs[i] in values. Distinct values are told
    apart by (numerator, denominator), which a Fraction keeps in lowest
    terms, so no Fraction is hashed and only the distinct ones are sorted:
    integers as their (numerator, 1) pairs, others by the exact key (floor,
    remainder / denominator, Fraction): a float correctly rounded, so
    monotone, below 1, so in range, then the Fraction for float ties. Codes
    compare as values do, which is all the path-max metric and checks read."""
    keys = [(q.numerator, q.denominator) for q in fracs]
    distinct = dict(zip(keys, fracs))
    distinct.setdefault((0, 1), Fraction(0))
    if all(den == 1 for _, den in distinct):
        order = sorted(distinct)
    else:
        order = sorted(distinct, key=lambda k: (k[0] // k[1], k[0] % k[1] / k[1], distinct[k]))
    code = dict(zip(order, range(len(order))))
    return [distinct[k] for k in order], list(map(code.__getitem__, keys))


def _compact(values, codes, held):
    """(values, codes) with just the values of ``held``, the codes the rows
    hold, zero still at code 0, and the rows recoded to match: a ``bytes``
    row by one translate, a list row entry by entry (bytes to 256 values)."""
    held = sorted(held)
    if len(held) < len(values):
        values = [values[c] for c in held]
        if type(codes[0]) is bytes:
            table = bytes.maketrans(bytes(held), bytes(range(len(held))))
            return values, [row.translate(table) for row in codes]
        recode = dict(zip(held, count())).__getitem__
        codes = [(bytes if len(held) <= 256 else list)(map(recode, row)) for row in codes]
    return values, codes


def _decode(values, codes) -> tuple[tuple[Fraction, ...], ...]:
    """The Fraction rows of a matrix of rank codes."""
    return tuple(tuple(map(values.__getitem__, row)) for row in codes)


def _links(codes):
    """(m, a, k) for each point k > 0 of a square matrix of rank codes: a is
    the first of k's nearest earlier points and m their distance.

    On a valid ultrametric the largest link on the path between two points
    is their distance, by induction on k: k's path to an earlier x runs
    through a, and the join rule gives d(k, x) = max(m, d(a, x)). So no
    entry lies below a link on its path, and the links form a minimum
    spanning tree."""
    for k in range(1, len(codes)):
        row = codes[k][:k]
        m = min(row)
        yield m, row.index(m), k


def _row_kind(top):
    """(row type, lift, ceilings) for codes up to ``top``, lift(row, ceilings[c])
    being max(c, row) entry by entry: bytearray rows below 256, else lists."""
    return (bytearray, bytearray.translate, _CEILINGS) if top < 256 else (list, _lift, range(top + 1))


def _lift(row, m) -> list:  # _row_kind's lift on list rows
    return [m if m > w else w for w in row]


def _joins(r, m, near) -> bool:
    """The join rule: a point with codes ``r`` to the points of an
    ultrametric, at distance m from the first of its nearest ones (codes
    ``near``), keeps it one exactly when m > 0 and r = max(m, near) entry by
    entry. The isosceles property forces that row, and the row keeps every
    triple through the new point isosceles. On list rows (_row_kind);
    _byte_joins is the same rule on bytes or bytearray rows."""
    return m > 0 and r == _lift(near, m)


def _byte_joins(r, m, near) -> bool:
    """_joins on byte rows: _CEILINGS[m] lifts each code below m to m."""
    return m > 0 and r == near.translate(_CEILINGS[m])


def us_witness(space: FiniteUltrametricSpace) -> str | None:
    """The first point (in point order) witnessing star generation, if any.

    A witness x0 satisfies d(x0, x) <= d(y, x) for all points x != x0 and
    y != x: off the diagonal, its row holds each column's minimum. O(n^2):
    the minima of a checked space come from its links in O(n), those of any
    other space from its rows (see _column_minima), and then the rows are
    compared with them. An unchecked space's matrix must be symmetric, as
    it is in every space but one built from an asymmetric matrix.
    """
    i = _witness_index(space._ranked[1], _column_minima(space))
    return None if i is None else space.points[i]


def _column_minima(space: FiniteUltrametricSpace):
    """Each column's minimum off the diagonal, as a row of the space's own
    type, bytes or list, so that it compares equal to the row slices. On a
    checked space, the least link touching each point: every minimum
    spanning tree holds an edge of least weight at each vertex, and the
    links are one. On any other space, read from the rows (_row_minima)."""
    values, codes = space._ranked
    if space._mst is None:
        return _row_minima(codes)
    colmin = [len(values) - 1] * len(codes)
    for m, a, k in space._mst:
        colmin[k] = m  # no earlier link touches k
        if m < colmin[a]:
            colmin[a] = m
    return type(codes[0])(colmin)


def _row_minima(d):
    """Each column's minimum off the diagonal of a symmetric square matrix
    of code rows, read from its row, which the symmetry makes the same; of
    the rows' own type."""
    return type(d[0])(min(row[:x] + row[x + 1:], default=0) for x, row in enumerate(d))


def _witness_index(d, colmin) -> int | None:
    """The first witness row of a square matrix of code rows (0 for one
    point), or None: the first row equal off the diagonal to ``colmin``,
    each column's minimum off the diagonal, of the rows' type, as
    _column_minima gives it for a space and _row_minima for any matrix."""
    for i, row in enumerate(d):
        if row[:i] == colmin[:i] and row[i + 1:] == colmin[i + 1:]:
            return i
    return None


def restrict(space: FiniteUltrametricSpace, subset: Iterable[str]) -> FiniteUltrametricSpace:
    """The induced subspace on a non-empty subset, in original point order."""
    wanted = set(subset)
    if not wanted:
        raise EmptySubset("subset must contain at least one point")
    for p in wanted:
        if p not in space._index:
            raise UnknownPoint(f"point {p!r} is not in the space", (p,))
    keep = [i for i, p in enumerate(space.points) if p in wanted]
    pts = tuple(space.points[i] for i in keep)
    values, codes = space._ranked
    block = [type(codes[i])(map(codes[i].__getitem__, keep)) for i in keep]
    return FiniteUltrametricSpace._coded(pts, *_compact(values, block, {0}.union(*block)))


def realize_as_star(space: FiniteUltrametricSpace):
    """A labeled star whose generated metric equals the space exactly.

    The witness becomes the center with label 0 and every other point
    becomes a leaf labeled with its distance to the center. Point order is
    preserved, so building the ultrametric of the result reproduces the
    input matrix entry for entry. Raises NotUS when no witness exists. The
    one-point space realizes as the one-vertex tree with label 0. The star
    is a tree and its labels are the space's Fractions by construction, so
    it is built unchecked; only the center's row is decoded.
    """
    from .labelings import LabeledTree
    from .trees import Tree

    values, codes = space._ranked
    i = _witness_index(codes, _column_minima(space))
    if i is None:
        raise NotUS("the space has no witness point, so no star generates it")
    center = space.points[i]
    tree = Tree(space.points, [(center, p) for p in space.points if p != center])
    labels = dict(zip(space.points, map(values.__getitem__, codes[i])))
    labels[center] = Fraction(0)
    return LabeledTree._trusted(tree, labels)


@dataclass(frozen=True, eq=False, repr=False)
class CanonicalForm:
    """Recursive dendrogram form: diameter plus canonically sorted children.

    Leaves are (0, ()). A multi-point space at diameter D splits into the
    equivalence classes of d(x, y) < D; there are always at least two.
    Children are sorted by their serialized text, so equal forms serialize
    identically and vice versa; equality, hashing and repr go through that
    text, so none of them recurses.
    """

    diameter: Fraction
    children: tuple["CanonicalForm", ...]

    @cached_property
    def serialized(self) -> str:
        forms = [self]  # every uncached form below, each after its parent
        for form in forms:
            forms.extend(c for c in form.children if "serialized" not in c.__dict__)
        for form in reversed(forms):
            inner = "".join(c.serialized for c in form.children)
            form.__dict__["serialized"] = f"({format_rational(form.diameter)}{inner})"
        return self.__dict__["serialized"]

    def __eq__(self, other):
        return isinstance(other, CanonicalForm) and self.serialized == other.serialized

    def __hash__(self):
        return hash(self.serialized)

    def __repr__(self):
        return f"CanonicalForm({self.serialized!r})"


def canonical_form(space: FiniteUltrametricSpace) -> CanonicalForm:
    """Canonical form of a valid space; equal forms mean isometric spaces.

    Built bottom-up without recursion by _dendrogram, each node from its
    merge value and its children sorted by their serialized text."""
    values, text = space._ranked[0], attrgetter("serialized")

    def join(w, children):
        children.sort(key=text)
        return CanonicalForm(values[w], tuple(children))

    return _dendrogram(space, CanonicalForm(Fraction(0), ()), join)


def _dendrogram(space: FiniteUltrametricSpace, leaf, join):
    """The root of a valid space's dendrogram, each point ``leaf`` and each
    node ``join(w, children)`` for the classes, a list of their nodes, that
    merge at code w. Union-find joins classes along the links (_links, a
    minimum spanning tree; on a checked space those its check found, _mst)
    in increasing order, all joins at one distance one node. O(n^2)."""
    links = _links(space._ranked[1]) if space._mst is None else space._mst
    root = list(range(space.size))

    def find(v):
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    nodes = [leaf] * space.size
    for w, group in groupby(sorted(links), key=itemgetter(0)):
        kids: dict[int, list] = {}
        for _, a, b in group:
            a, b = find(a), find(b)
            root[b] = a
            kids.setdefault(a, [nodes[a]]).extend(kids.pop(b, [nodes[b]]))
        for r, children in kids.items():
            nodes[r] = join(w, children)
    return nodes[find(0)]


def check_isometric(a: FiniteUltrametricSpace, b: FiniteUltrametricSpace) -> bool:
    """Whether a distance-preserving bijection exists between two spaces.

    Mismatched sizes or distance value sets short-circuit to False. Else
    both dendrograms are numbered through one table: a point is 0, a node
    (code, sorted child numbers) the next number from 1 on first sight.
    The shared value list makes a code the same value in each, so equal
    root numbers mean equal canonical forms. O(n^2), no Fraction or text.
    """
    if a.size != b.size or a._ranked[0] != b._ranked[0]:
        return False
    table: dict[tuple, int] = {}

    def join(w, children):
        children.sort()
        return table.setdefault((w, tuple(children)), len(table) + 1)

    return _dendrogram(a, 0, join) == _dendrogram(b, 0, join)
