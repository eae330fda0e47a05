"""Exhaustive desk-scale verification of the structural theorems.

Four entry points check every tree up to a given order (the n^(n-2)
labeled trees on v1..vn) and, where labelings matter, every labeling over a
finite value set. Each reports the claims the claim table lists for it:

* verify_theorem_nondegeneracy (``nondeg``):
  ultrametric-valid-iff-nondegenerate, the path-maximum matrix satisfies
  the ultrametric axioms exactly when the labeling is non-degenerate.
* verify_main_theorem (``main``): longest path <= 3 edges, at most two
  high-degree vertices, and "every non-degenerate labeling generates a
  star-generated space" are equivalent.
  longest-path-le-3-iff-at-most-two-high-degree is checked on every tree;
  nondegenerate-labeling-admits-us-witness on every short tree over the
  value grid, so it is labeled "sampled"; on every long tree
  counterexample-applicable-for-long-tree and
  counterexample-space-has-no-us-witness, labeled "certified" because each
  long tree gets an explicit counterexample labeling whose space is checked
  to have no witness.
* verify_structure_lemmas (``lemmas``): at-most-two-high-degree-vertices
  and high-degree-vertices-adjacent, in trees whose paths all have at most
  three edges.
* verify_classification (``classify``): classification-matches-structure,
  the Star/DoubleStar/Other tag against the number of high-degree vertices;
  where that number is at most two, nondegenerate-labeling-admits-us-witness
  and counterexample-inapplicable-for-short-tree; elsewhere the two
  counterexample claims of ``main``.

A sweep runs on one facts record per class or labeled tree (_Facts), made
from a center-rooted order: v hangs from parents[v], each vertex listed
after its parent, a center first; a class's key and range(n), a copy's the
key renamed, and only a replayed public tree is searched (trees._centered).
The rest is read off the order when a claim first reads it: edges, rank,
diameter and longest-path ends (trees._longest), high-degree vertices, the
public Tree, the counterexample's thirds (an end's grandparent, none on a
tree too short for it) and the labeling walk.
The claim table (_CLAIMS) maps each claim id to the theorems that report
it, with for each the trees it is checked on and whether its checks count
as cases; to whether it is checked once per tree or once per labeling; to
its check on the record; and, for a claim on one labeling, to its judge:
validity's on the full path-max matrix, the witness's and the
counterexample's by the branch criterion on the record's order
(_first_witness). One loop (_check) runs the theorem's checks on each
record, predicted_cases counts from the same table, and replay_certificate
runs the sweep's own check, the claim's judge or its tree test and check,
on the certificate's data.

Every claim is invariant under vertex relabeling, so a sweep checks each
order once per free tree, each generated once as a center-rooted level
sequence (trees._free_trees), on a record of its class key (_ClassFacts),
and counts each case n!/|Aut T| times, once per labeled tree of the class.
Only the counterexample reads vertex names, to pick a longest path; a class
record judges it with the 3 on every vertex third on some longest path,
onto which each labeled copy's pick maps, so a class fails if any copy
does. A failing class is checked again in the task that finds it, on each
of its n!/|Aut T| labeled copies (_copies), whose certificates replace the
class's, so a report lists every failing labeled tree, its rank the tree's
Prufer rank. The cases still come from the class.

Each run returns a VerificationReport whose cases_checked equals the
analytically predicted grid size. Each order is gated on its own: its
cases against its term of the prediction, its classes against Otter's
count of free trees (OEIS A000055) and their weights against Cayley's
n^(n-2). A mismatch would mean a harness bug and raises RuntimeError naming
the order. Failures carry replayable Certificates.

The sweeps run on the rank codes of spaces._value_codes: code 0 is the value
zero and the remaining codes follow the sorted value order. Path-maximum
distances, the witness condition, and the axiom checks use only comparisons
and maxima, which the coding preserves, so the coded run decides exactly the
same predicates as the Fraction run, as do the judges on the codes of a
certificate's or a counterexample's values. A sweep stays in codes end to
end: its tasks carry the grid's Fractions, and a failure becomes a
Certificate where it is found (_Facts.fail), its labeling the values of its
codes, the counterexample's over (0, 2, 3) included.

Each tree's labelings are swept by one depth-first walk over its class
key (see below), each vertex after its parent, so every vertex z joins the
labeled prefix as a leaf and labelings sharing a prefix share its work. With
code c on z and parent p, z's row is d(z, x) = max(c, d(p, x)), reading
d(p, p) as p's label; with m its minimum, first reached at a, the rest costs
O(k):

* Axioms: a valid prefix stays valid iff m > 0 and d(z, x) = max(m, d(a, x))
  for all x, the join rule of validation (spaces._joins), which the walk
  reads as z's row equal to a's lifted to m by its own row lift: the
  isosceles property at (z, a, x) forces this row, and it keeps every triple
  through z isosceles. Failure is kept by extensions.
* Witness: old candidate x0 stays one iff d(z, x0) = m and no other column
  minimum drops (x0's row must hold them all); z becomes one iff no column
  minimum lies below its row. A dropped candidate never returns. Only p's
  column minimum can drop: every other column x holds d(p, x) <= d(z, x).
  When it drops, a candidate x0 != p leaves anyway: d(z, x0) >= d(p, x0),
  the old minimum x0's row holds, which lies above d(z, p) >= m. So a
  candidate x0 stays iff d(z, x0) = m.
* Codes c <= min d(p, x) keep p's row, so they share z's row, m, a, verdict,
  candidates and column minima, found once per prefix: no later vertex
  writes row z. The axiom step finds their verdict and writes their row
  before its loop; the witness step when the first such code comes.
* Rows are built only while they can matter: under a valid prefix for the
  axioms, a non-degenerate one for the witness. Each labeling is counted
  with its own verdict at a leaf; a mismatch rebuilds the full matrix.

A class sweep walks one labeling per orbit of Aut T (trees._sibling_blocks).
Its key roots the tree at the center, which every automorphism fixes, so
Aut T is generated by swaps of blocks of key positions: runs of consecutive
sibling subtrees laid out alike (sibling leaves are blocks of size 1), and
the two halves of a bicentral tree when they are alike. Each swap keeps
every verdict. One rule keeps the labelings whose blocks rise
lexicographically along each run, one per orbit: a block's head takes only
codes >= its mirror's, the position in its place in the block before, and
at a block's last position a labeling is dropped if the block's codes fall
below the block before's. The prefix carries the orbit's size: the last
position of the j-th block of a run, ending a run of r equal blocks,
multiplies it by j and divides by r, exactly at every step. A walk leaf
counts its weight, and the weights of a class walk must sum to |codes|^n,
or _gate raises. A failing representative stands for its orbit: a failing
class is walked again over every labeling, which each copy reads through
its names.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import comb
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

from .errors import BudgetExceeded, ParseError, _decimal
from .labelings import (
    _COUNTEREXAMPLE_VALUES,
    LabeledTree,
    _canon_values,
    _counterexample_codes,
    _path_max,
    _zero_edge,
)
from .rationals import format_rational, parse_rational
from .spaces import _first_offender, _row_kind, _value_codes
from .serialize import tree_to_dict, tree_from_dict
from .trees import (
    Tree,
    _centered,
    _free_trees,
    _index_tree,
    _kind_of,
    _longest,
    _prufer_rank,
    _sibling_blocks,
    _tree_count,
    _vertex_names,
    classify,
)

DEFAULT_MAX_ORDER = 6
DEFAULT_VALUES = (Fraction(0), Fraction(1), Fraction(2))
DEFAULT_CASE_BUDGET = 2_000_000

THEOREM_NONDEG = "nondeg"
THEOREM_MAIN = "main"
THEOREM_LEMMAS = "lemmas"
THEOREM_CLASSIFY = "classify"

CLAIM_VALID_IFF_NONDEG = "ultrametric-valid-iff-nondegenerate"
CLAIM_II_IFF_III = "longest-path-le-3-iff-at-most-two-high-degree"
CLAIM_WITNESS = "nondegenerate-labeling-admits-us-witness"
CLAIM_COUNTEREXAMPLE = "counterexample-space-has-no-us-witness"
CLAIM_ADJACENT = "high-degree-vertices-adjacent"
CLAIM_AT_MOST_TWO = "at-most-two-high-degree-vertices"
CLAIM_CE_INAPPLICABLE = "counterexample-inapplicable-for-short-tree"
CLAIM_CE_APPLICABLE = "counterexample-applicable-for-long-tree"
CLAIM_CLASS_STRUCTURE = "classification-matches-structure"

MAIN_SUBCHECKS = {
    CLAIM_II_IFF_III: "exhaustive",
    CLAIM_WITNESS: "sampled",
    CLAIM_COUNTEREXAMPLE: "certified",
}


@dataclass(frozen=True)
class Certificate:
    """A single replayable failure: the tree, the labeling if one was in
    play, the violated claim, and supporting evidence."""

    tree: Tree
    labeling: Mapping[str, Fraction] | None
    claim_violated: str
    evidence: dict


@dataclass(frozen=True)
class VerificationReport:
    theorem: str
    parameters: dict
    cases_checked: int
    failures: tuple[Certificate, ...]
    elapsed_ms: float
    subchecks: dict = field(default_factory=dict)

    @property
    def status(self) -> str:
        return "pass" if not self.failures else "fail"


# ---------------------------------------------------------------------------
# analytic tree counts

def _star_count(n: int) -> int:
    return 1 if n <= 2 else n


def _double_star_count(n: int) -> int:
    # two adjacent centers, every other vertex a leaf on one of them,
    # each center keeping at least one leaf
    return comb(n, 2) * (2 ** (n - 2) - 2) if n >= 4 else 0


def _qualifying_count(n: int) -> int:
    return _star_count(n) + _double_star_count(n)


def _long_count(n: int) -> int:
    return _tree_count(n) - _qualifying_count(n)


def _free_tree_counts(n_max: int) -> list[int]:
    """Free trees of orders 1..n_max (A000055) from one table of the rooted
    tree counts r (A000081), by Otter's t(x) = r(x) - (r(x)^2 - r(x^2)) / 2."""
    r = [0, 1]
    for m in range(1, n_max):  # r(m + 1), each root's subtrees a multiset of rooted trees
        divisors = (sum(d * r[d] for d in range(1, k + 1) if k % d == 0) for k in range(1, m + 1))
        r.append(sum(s * r[m + 1 - k] for k, s in enumerate(divisors, 1)) // m)
    return [r[n] - (sum(r[i] * r[n - i] for i in range(1, n)) - r[n // 2] * (1 - n % 2)) // 2
            for n in range(1, n_max + 1)]


# ---------------------------------------------------------------------------
# the labeling walk

def _orbit_count(key, q: int) -> int:
    """The orbits of the swaps _sibling_blocks spells on the labelings over
    q codes of the tree of ``key``, which the orbit walk's leaves count.
    Bottom up, a vertex has q times, for each run of r children laid out
    alike with N orbits each, C(N + r - 1, r) multisets of theirs; alike
    halves of N orbits each have C(N + 1, 2)."""
    n = len(key)
    j, half = [1] * n, 0  # each vertex's place in its run; the second half's root
    for s, size, at in _sibling_blocks(key):
        if s == size:
            half = s
        else:
            j[s] = at
    num, den = [q] * n, [1] * n  # a vertex's orbits are num // den once its children are in
    for k in range(n - 1, 0, -1):
        if k != half:
            num[key[k]] *= num[k] // den[k] + j[k] - 1
            den[key[k]] *= j[k]
    if half:
        return comb(num[half] // den[half] + 1, 2)
    return num[0] // den[0]


def _walk_size(key, q: int) -> int:
    """About how many labelings the orbit walk visits on ``key`` over q
    codes, prefixes included: the orbit counts of the key's prefixes
    summed, a block a prefix cuts short counted as free: the walk prunes
    it only at its head."""
    return sum(_orbit_count(key[:k], q) for k in range(1, len(key) + 1))


def _labelings(parents, codes, witness: bool, leaf, blocks=()) -> None:
    """Call leaf(lab, nondeg, verdict, weight) once for every labeling over
    ``codes`` (ascending) of the tree in which vertex k > 0 hangs from
    ``parents[k]`` < k, in any such order (a class key of trees._free_trees,
    a breadth-first order); ``lab`` lists codes by vertex and is reused
    between calls. The verdict is whether the path-max matrix is an
    ultrametric, or with ``witness`` whether the matrix of a non-degenerate
    labeling has a witness (False on degenerate ones), each mode by its own
    recursive step (axioms, witnesses). With ``blocks``
    (_sibling_blocks of a class key) the walk visits one labeling per orbit
    of Aut T, the one whose blocks each rise from the block before,
    ``weight`` the orbit's size; without, every labeling, each of weight 1.
    The matrix is one row-major n * n buffer of _row_kind. See the module
    docstring."""
    n, top = len(parents), codes[-1]
    lab = [0] * n
    row, lift, ceilings = _row_kind(top)
    d = row(bytes(n * n))  # zero diagonal
    tails = {c: codes[i:] for i, c in enumerate(codes)}  # the codes >= c
    # a block head's mirror, and for each block ending at k: (its start, its
    # end, the start of the block before, j)
    mirror, ends = [None] * n, [[] for _ in range(n)]
    for s, size, j in blocks:
        mirror[s] = s - size
        ends[s + size - 1].append((s, s + size, s - size, j))
    runs = [1] * n  # by block start: the run of equal blocks it ends

    def grown(end, k, size):  # k ends the blocks ``end``: each grows size j / run-fold, or drops it
        for s, e, q, j in end:
            if s == k:  # a block of one vertex
                tie = lab[k] == lab[q]
            else:
                block, before = lab[s:e], lab[q:s]
                if block < before:
                    return 0
                tie = block == before
            run = runs[s] = runs[q] + 1 if tie else 1
            size = size * j // run
        return size

    def axioms(k, nondeg, valid, weight):
        p, kn, last = parents[k], k * n, k == n - 1
        above = lab[p]
        if valid:  # else the prefix is dead: no rows
            dp = d[p * n:p * n + k]
            dp[p] = above
            low = min(dp)
            a = dp.index(low) * n
            kept = low > 0 and dp == lift(d[a:a + k], ceilings[low])  # the verdict of every code <= low
            if kept and not last:  # and their row, which no later vertex writes
                d[kn:kn + k] = d[k:kn + k:n] = dp
        x, end, size = mirror[k], ends[k], weight
        for c in codes if x is None else tails[lab[x]]:
            lab[k] = c
            if end and not (size := grown(end, k, weight)):  # another orbit's labeling
                continue
            if not valid:
                ok = False
            elif c <= low:
                ok = kept
            else:  # m = c, first reached at a
                r = lift(dp, ceilings[c])
                a = r.index(c) * n
                ok = r == lift(d[a:a + k], ceilings[c])
                if ok and not last:  # an invalid prefix's row is never read
                    d[kn:kn + k] = d[k:kn + k:n] = r
            nd = nondeg and (c > 0 or above > 0)
            leaf(lab, nd, ok, size) if last else axioms(k + 1, nd, ok, size)

    def witnesses(k, nondeg, cand, colmin, weight):
        p, kn, last = parents[k], k * n, k == n - 1
        above = lab[p]
        if nondeg:  # else the prefix is dead: no rows
            dp = d[p * n:p * n + k]
            dp[p] = above
            low = min(dp)
        x, end, shared, size = mirror[k], ends[k], None, weight
        for c in codes if x is None else tails[lab[x]]:
            lab[k] = c
            if end and not (size := grown(end, k, weight)):  # another orbit's labeling
                continue
            nd = nondeg and (c > 0 or above > 0)
            ok, keep, cm = False, None, None
            if shared and c <= low:  # row k still holds dp: no later vertex writes it
                ok, keep, cm = shared
            elif nd:
                r = lift(dp, ceilings[c])
                m = c if c > low else low
                cm = colmin.copy()
                if r[p] < cm[p]:  # the one column minimum that can drop
                    cm[p] = r[p]
                if last:  # no vertex reads keep or cm: ok iff one stays or z joins
                    ok = r == cm or m in [r[x] for x in cand]
                else:
                    keep = [x for x in cand if r[x] == m]
                    if r == cm:
                        keep.append(k)
                    cm.append(m)
                    ok = bool(keep)
                    d[kn:kn + k] = d[k:kn + k:n] = r
                shared = (ok, keep, cm) if c <= low else None  # dp is the row of every code <= low
            leaf(lab, nd, ok, size) if last else witnesses(k + 1, nd, keep, cm, size)

    for c in codes:
        lab[0] = c
        if n == 1:
            leaf(lab, True, True, 1)
        elif witness:
            witnesses(1, True, [0], row((top,)), 1)  # one point: top caps the empty column
        else:
            axioms(1, True, True, 1)


def _copies(key) -> Iterator[tuple[int, ...]]:
    """Each labeled tree of the class key ``key`` once, as names: names[k] is
    the vertex at key position k. A tree's namings differ by automorphisms,
    which block swaps generate, so names go to positions depth first with
    names[s] > names[s - size] at each block (s, size, j) of _sibling_blocks:
    one naming per tree, n!/|Aut T| in all."""
    n = len(key)
    before = {s: s - size for s, size, _ in _sibling_blocks(key)}
    names, free = [0] * n, [True] * n

    def place(k):
        if k == n:
            yield tuple(names)
            return
        for v in range(names[before[k]] + 1 if k in before else 0, n):
            if free[v]:
                free[v], names[k] = False, v
                yield from place(k + 1)
                free[v] = True

    return place(0)


def _class_walk(key, codes, witness: bool, orbits: bool = False):
    """(cases, failing labelings) of _labelings on the class key ``key``:
    with ``orbits`` one labeling per orbit of Aut T, counted its orbit's
    size times, a failing one standing for its orbit. The cases must come to
    |codes|^n."""
    cases, bad = 0, []

    def leaf(lab, nondeg, verdict, weight):
        nonlocal cases
        cases += weight
        if (nondeg and not verdict) if witness else verdict != nondeg:
            bad.append(tuple(lab))

    _labelings(key, codes, witness, leaf, _sibling_blocks(key) if orbits else ())
    _gate(len(key), "walked labelings", cases, len(codes) ** len(key))
    return cases, bad


# ---------------------------------------------------------------------------
# the facts of one tree

class _Facts:
    """One labeled tree (vertex i is v(i+1)) as a center-rooted order (see
    the module docstring) and the codes of its value grid, ``values[code]``
    a code's value; in a sweep, the copy of the class ``key`` whose key
    position k is vertex at[k]. Every other fact, the rank (the tree's
    Prufer rank) among them, is read off the order when first read."""

    def __init__(self, parents, order, values=(), codes=()):
        self.parents, self.order, self.values, self.codes = parents, order, values, codes
        self.n = len(parents)

    @classmethod
    def of(cls, tree: Tree) -> _Facts:
        """The facts of a public tree, for a replay: no rank, no sweep."""
        facts = cls(*_centered(tree._indexed))
        facts.rank, facts.names, facts.tree = None, tree.vertices, tree
        return facts

    @cached_property
    def edges(self) -> list[tuple[int, int]]:
        return [(self.parents[v], v) for v in self.order[1:]]

    @cached_property
    def rank(self) -> int:
        return _prufer_rank(self.n, self.edges)

    @cached_property
    def names(self) -> tuple[str, ...]:
        return _vertex_names(self.n)

    @cached_property
    def longest(self) -> tuple[int, list[int]]:
        """trees._longest: the diameter, and the vertices that end a longest path."""
        return _longest(self.parents, self.order)

    @cached_property
    def highs(self) -> list[int]:
        """The vertices of degree two or more, ascending: children and the edge up."""
        kids = Counter(map(self.parents.__getitem__, self.order[1:]))
        return [v for v, p in enumerate(self.parents) if kids[v] + (p != v) >= 2]

    @cached_property
    def tree(self) -> Tree:
        return _index_tree(self.names, self.edges)

    @cached_property
    def thirds(self) -> list[int]:
        """The vertices the counterexample check puts its 3 on: the one
        counterexample_labeling labels, the grandparent of the least-named
        end of a longest path; none on a tree too short for it."""
        d, ends = self.longest
        return [self.parents[self.parents[min(ends, key=self.names.__getitem__)]]] if d >= 4 else []

    def walk(self, witness: bool):
        """The class's full walk, taken once per mode for all its copies in
        ``walks``, each failing labeling read through ``at``."""
        if witness not in self.walks:
            self.walks[witness] = _class_walk(self.key, self.codes, witness)
        cases, bad = self.walks[witness]
        pos = sorted(range(self.n), key=self.at.__getitem__)  # each vertex's key position
        return cases, [[lab[k] for k in pos] for lab in bad]

    def fail(self, claim: str, evidence: dict, lab=None, values=None) -> Certificate:
        """The certificate of a failure on this tree: on the labeling ``lab``
        if one was in play, a code per vertex into ``values`` (by default
        the sweep's), and with the tree's order and rank as evidence."""
        values = values or self.values
        labeling = None if lab is None else dict(zip(self.names, map(values.__getitem__, lab)))
        evidence = {**evidence, "order": self.n, "tree_index": self.rank}
        return Certificate(self.tree, labeling, claim, evidence)


class _ClassFacts(_Facts):
    """The facts of a free tree's representative, made from its class key and
    range(n); its thirds are every end's grandparent (see the module docstring)."""

    @cached_property
    def thirds(self) -> list[int]:
        d, ends = self.longest
        return sorted({self.parents[self.parents[v]] for v in ends}) if d >= 4 else []

    def walk(self, witness: bool):
        """_class_walk over orbits: a class fails iff a representative does."""
        return _class_walk(self.parents, self.codes, witness, orbits=True)

    def copies(self, weight: int) -> Iterator[_Facts]:
        """The facts of each labeled copy of the class, the key renamed
        through its names, gated on its weight, for _sweep to check where
        the class failed; they share its full walks."""
        count, walks, key = 0, {}, self.parents
        for count, at in enumerate(_copies(key), 1):
            pos = sorted(range(self.n), key=at.__getitem__)  # each vertex's key position
            copy = _Facts([at[key[k]] for k in pos], at, self.values, self.codes)
            copy.key, copy.at, copy.walks = key, at, walks
            yield copy
        _gate(self.n, "labeled copies", count, weight)


# ---------------------------------------------------------------------------
# the claim checks on a tree's facts

def _first_witness(parents, order, lab) -> int | None:
    """The first witness index, or None, of the path-max space of the tree
    in which v hangs from ``parents[v]``, labeled by the codes ``lab``;
    ``order`` lists each vertex after its parent, the root (its own parent)
    first. By the branch criterion, this repository's extension of the paper
    (README): a vertex y of least column minimum c(y) = max(l(y), the least
    label next to y) is a witness if any is, and then so is each vertex
    joined to y by labels <= c(y). O(n)."""
    near = [lab[p] for p in parents]  # each vertex's least neighbour label
    near[order[0]] = math.inf
    for v in order[1:]:
        if lab[v] < near[parents[v]]:
            near[parents[v]] = lab[v]
    c = list(map(max, lab, near))  # the column minima
    y = c.index(m := min(c))
    d = [None] * len(lab)  # d(y, x): up from y, then down from each parent
    d[y] = top = lab[y]
    while parents[y] != y:
        y = parents[y]
        d[y] = top = max(top, lab[y])
    for v in order:
        if d[v] is None:
            d[v] = max(d[parents[v]], lab[v])
    return None if any(map(operator.gt, d, c)) else next(v for v, x in enumerate(d) if x <= m)


# judges of one labeling ``lab``, a rank code per vertex (0 for zero): each
# returns the failure's evidence, or None

def _validity(f: _Facts, lab) -> dict:
    """The validity claim's evidence, whether the claim holds or not."""
    viol = _first_offender(_path_max(f.parents, f.order, lab))
    return {
        "nondegenerate": _zero_edge(f.edges, lab) is None,
        "matrix_valid": viol is None,
        "violation": viol and {"axiom": viol[0], "points": [f.names[i] for i in viol[1]]},
    }


def _judge_validity(f: _Facts, lab) -> dict | None:
    evidence = _validity(f, lab)
    return None if evidence["nondegenerate"] == evidence["matrix_valid"] else evidence


def _judge_witness(f: _Facts, lab) -> dict | None:
    if _zero_edge(f.edges, lab) is not None or _first_witness(f.parents, f.order, lab) is not None:
        return None
    return {"witness": None}


def _judge_counterexample(f: _Facts, lab) -> dict | None:
    i = _first_witness(f.parents, f.order, lab)
    return None if i is None else {"witness": f.names[i]}


def _axioms(f: _Facts):
    """The walk's axiom verdicts; a wrong one carries the full matrix's
    evidence, which shows whether the claim or the walk is at fault."""
    cases, bad = f.walk(False)
    return cases, [f.fail(CLAIM_VALID_IFF_NONDEG, _validity(f, lab), lab) for lab in bad]


def _witnesses(f: _Facts):
    cases, bad = f.walk(True)
    return cases, [f.fail(CLAIM_WITNESS, {"witness": None}, lab) for lab in bad]


def _check_counterexample(f: _Facts) -> list[Certificate]:
    """counterexample_labeling's codes with the 3 on each of ``f.thirds``,
    judged up to the first failure. A tree too short for the pattern has
    none: that is counterexample-applicable's failure."""
    for third in f.thirds:
        lab = _counterexample_codes(third, f.n)
        evidence = _judge_counterexample(f, lab)
        if evidence is not None:
            return [f.fail(CLAIM_COUNTEREXAMPLE, evidence, lab, _COUNTEREXAMPLE_VALUES)]
    return []


def _class_structure(f: _Facts) -> list[Certificate]:
    tag, high = classify(f.tree).tag, len(f.highs)
    if tag == _kind_of(high):
        return []
    return [f.fail(CLAIM_CLASS_STRUCTURE, {"tag": tag.value, "high_degree_count": high})]


# ---------------------------------------------------------------------------
# the claim table

class _Trees(NamedTuple):
    """The trees a claim is checked on: a test on the tree's facts, and how
    many trees of order n pass it when the main theorem holds."""

    holds: Callable[[_Facts], bool]
    count: Callable[[int], int]


_ALL = _Trees(lambda f: True, _tree_count)
_SHORT = _Trees(lambda f: f.longest[0] <= 3, _qualifying_count)
_LONG = _Trees(lambda f: f.longest[0] > 3, _long_count)
_FEW = _Trees(lambda f: len(f.highs) <= 2, _qualifying_count)
_MANY = _Trees(lambda f: len(f.highs) > 2, _long_count)


class _Claim(NamedTuple):
    reports: dict  # theorem -> (trees checked, whether its checks count as cases)
    per_labeling: bool  # checked once per labeling of the value grid, else once per tree
    check: Callable  # facts -> certificates; (labelings, certificates) per labeling
    judge: Callable | None = None  # (facts, codes) -> evidence or None, for a claim on one labeling


_CLAIMS = {
    CLAIM_VALID_IFF_NONDEG: _Claim(
        {THEOREM_NONDEG: (_ALL, True)}, True, _axioms, _judge_validity
    ),
    CLAIM_II_IFF_III: _Claim(
        {THEOREM_MAIN: (_ALL, True)}, False,
        lambda f: [] if (f.longest[0] <= 3) == (len(f.highs) <= 2) else
        [f.fail(CLAIM_II_IFF_III, {"longest_path": f.longest[0], "high_degree_count": len(f.highs)})],
    ),
    CLAIM_WITNESS: _Claim(
        {THEOREM_MAIN: (_SHORT, True), THEOREM_CLASSIFY: (_FEW, True)}, True,
        _witnesses, _judge_witness,
    ),
    CLAIM_COUNTEREXAMPLE: _Claim(
        {THEOREM_MAIN: (_LONG, True), THEOREM_CLASSIFY: (_MANY, False)}, False,
        _check_counterexample, _judge_counterexample,
    ),
    CLAIM_CE_APPLICABLE: _Claim(
        {THEOREM_MAIN: (_LONG, False), THEOREM_CLASSIFY: (_MANY, False)}, False,
        lambda f: [f.fail(CLAIM_CE_APPLICABLE, {"longest_path": f.longest[0]})]
        if not f.thirds else [],
    ),
    CLAIM_AT_MOST_TWO: _Claim(  # one case per tree: the lemma holds vacuously on long trees
        {THEOREM_LEMMAS: (_ALL, True)}, False,
        lambda f: [f.fail(CLAIM_AT_MOST_TWO, {"high_degree": [f.names[v] for v in f.highs]})]
        if f.longest[0] <= 3 and len(f.highs) > 2 else [],
    ),
    CLAIM_ADJACENT: _Claim(
        {THEOREM_LEMMAS: (_SHORT, False)}, False,
        lambda f: [f.fail(CLAIM_ADJACENT, {"pair": [f.names[a], f.names[b]]}) for a, b in
                   itertools.combinations(f.highs, 2) if a != f.parents[b] and b != f.parents[a]],
    ),
    CLAIM_CLASS_STRUCTURE: _Claim({THEOREM_CLASSIFY: (_ALL, True)}, False, _class_structure),
    CLAIM_CE_INAPPLICABLE: _Claim(
        {THEOREM_CLASSIFY: (_FEW, False)}, False,
        lambda f: [f.fail(CLAIM_CE_INAPPLICABLE, {"longest_path": f.longest[0]})]
        if f.thirds else [],
    ),
}


def _reported(theorem: str) -> list[tuple[_Claim, _Trees, bool]]:
    """(claim, trees checked, counted) for each claim the theorem reports."""
    found = [(c, *c.reports[theorem]) for c in _CLAIMS.values() if theorem in c.reports]
    if not found:
        raise ValueError(f"unknown theorem id {theorem!r}")
    return found


def _cases_by_order(theorem: str, value_count: int) -> Iterator[int]:
    """The checks a run performs on the trees of order 1, 2, ...: for each
    claim the theorem counts, one per tree it is checked on, or one per
    labeling of such a tree for a claim checked on every labeling."""
    claims = [(trees, c.per_labeling) for c, trees, counted in _reported(theorem) if counted]
    return (
        sum(trees.count(n) * (value_count ** n if each else 1) for trees, each in claims)
        for n in itertools.count(1)
    )


def _require_int(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an int, got {value!r}")


def predicted_cases(theorem: str, n_max: int, value_count: int) -> int:
    """The exact number of checks a run will perform up to order n_max."""
    _require_int("n_max", n_max)
    if n_max < 0:
        raise ValueError(f"n_max must be at least 0, got {n_max}")
    if isinstance(value_count, bool) or not isinstance(value_count, int) or value_count < 0:
        raise ValueError(f"value_count must be a non-negative int, got {value_count!r}")
    return sum(itertools.islice(_cases_by_order(theorem, value_count), n_max))


def _check(facts: _Facts, claims) -> tuple[int, list[Certificate]]:
    """(cases, certificates) of the ``claims`` (_reported) on one record,
    each case counted once."""
    cases, fails = 0, []
    for claim, trees, counted in claims:
        if trees.holds(facts):
            made, bad = claim.check(facts) if claim.per_labeling else (1, claim.check(facts))
            cases += made if counted else 0
            fails += bad
    return cases, fails


def _sweep(task: dict) -> tuple[int, list[Certificate]]:
    """(cases, certificates) of one task of one order, a list of (class key,
    weight): each class's facts go through the checks the table lists for
    the theorem, each case counting once per labeled tree, its weight times.
    A class that fails goes through them again in this task, as each of its
    labeled copies, whose certificates replace the class's."""
    claims = _reported(task["theorem"])
    values, codes = _value_codes(task["values"] or ())
    cases, fails = 0, []
    for key, weight in task["trees"]:
        cls = _ClassFacts(key, range(len(key)), values, codes)
        made, bad = _check(cls, claims)
        cases += weight * made
        if bad:
            fails += [cert for copy in cls.copies(weight) for cert in _check(copy, claims)[1]]
    return cases, fails


# ---------------------------------------------------------------------------
# orchestration

def _report_key(cert: Certificate):
    """Failures in report order: by tree, then, for a claim checked on every
    labeling, by labeling (codes rise with values), then by claim."""
    evidence, claim = cert.evidence, cert.claim_violated
    lab = tuple(cert.labeling.values()) if _CLAIMS[claim].per_labeling else ()
    return evidence["order"], evidence["tree_index"], lab, claim


def _gate(n: int, what: str, got: int, want: int) -> None:
    if got != want:
        raise RuntimeError(
            f"harness accounting bug at order {n}: {got} {what}, predicted {want}"
        )


# a class's facts and per-tree checks cost about as much as this many walk
# visits (_walk_size): 31-33 for main and 51-54 for classify at orders 10 to 12
_CLASS_VISITS = 40
# a sweep whose top order costs fewer walk visits runs in process, where a pool
# costs more than it saves (on three values nondeg gains from order 10, main and
# classify from order 16, lemmas at no order through 16)
_POOL_MIN_VISITS = 900_000


def _costs(theorem: str, classes, value_count: int) -> list[int]:
    """Each class's cost in walk visits: _CLASS_VISITS, plus its _walk_size
    when the theorem walks its labelings, where a few stars and double stars
    can outweigh every other class."""
    walks = [checked.holds for claim, checked, _ in _reported(theorem) if claim.per_labeling]

    def cost(key):
        walked = any(holds(_ClassFacts(key, range(len(key)))) for holds in walks)
        return _CLASS_VISITS + (_walk_size(key, value_count) if walked else 0)

    return [cost(key) for key, _ in classes]


def _pool_costs(theorem: str, classes, value_count: int) -> list[int] | None:
    """The _costs of a sweep's top order if they come to _POOL_MIN_VISITS,
    else None; priced only if they could, every class walking every labeling."""
    most = sum(value_count ** k for k in range(1, len(classes[0][0]) + 1))
    could = len(classes) * (_CLASS_VISITS + most) >= _POOL_MIN_VISITS
    costs = _costs(theorem, classes, value_count) if could else [0]
    return costs if sum(costs) >= _POOL_MIN_VISITS else None


def _deal(theorem: str, classes, chunks: int, value_count: int, costs=None) -> list[list]:
    """The classes of one order in ``chunks`` parts of about equal ``costs``
    (by default _costs), each, costliest first, to the cheapest part so far."""
    if chunks == 1:
        return [classes]
    costs = costs or _costs(theorem, classes, value_count)
    parts, loads = [[] for _ in range(chunks)], [0] * chunks
    for i in sorted(range(len(classes)), key=costs.__getitem__, reverse=True):
        cheapest = loads.index(min(loads))
        parts[cheapest].append(classes[i])
        loads[cheapest] += costs[i]
    return parts


def _execute(theorem, n_max, values, budget, jobs, subchecks=None) -> VerificationReport:
    for name, value, least in ("n_max", n_max, 1), ("jobs", jobs, 1), ("budget", budget, 0):
        _require_int(name, value)
        if value < least:
            raise ValueError(f"{name} must be at least {least}, got {value}")
    labeled = any(claim.per_labeling for claim, _, _ in _reported(theorem))
    vals = _canon_values(values) if labeled else None
    predicted, total = [], 0  # cases by order, and their sum
    for n, cases in zip(range(1, n_max + 1), _cases_by_order(theorem, len(vals or ()))):
        predicted.append(cases)
        total += cases
        if total > budget:  # stop counting: orders past n only add
            upto = "" if n == n_max else f" up to order {n}"
            raise BudgetExceeded(
                f"{_decimal(total)} predicted cases{upto} exceed the budget of "
                f"{_decimal(budget)}; raise the budget to run this grid"
            )
    started = time.perf_counter()
    chunks = min(jobs, os.cpu_count() or 1)  # chunks past the processor count only add tasks
    tasks, otter = [], _free_tree_counts(n_max)
    for n, found in reversed(list(enumerate(_free_trees(n_max), 1))):  # largest order first
        classes = [(key, math.factorial(n) // aut) for key, aut in found.items()]
        _gate(n, "free trees", len(classes), otter[n - 1])
        _gate(n, "labeled trees", sum(weight for _, weight in classes), _tree_count(n))
        costs = _pool_costs(theorem, classes, len(vals or ())) if n == n_max and chunks > 1 else None
        if n == n_max and costs is None:  # one chunk per order: a pool would cost more than it saves
            chunks = 1
        for part in _deal(theorem, classes, min(chunks, len(classes)), len(vals or ()), costs):
            tasks.append({"theorem": theorem, "n": n, "trees": part, "values": vals})
    workers = min(chunks, len(tasks))
    if workers > 1:
        from multiprocessing import Pool

        with Pool(workers) as pool:  # one task per hand-out, so chunks run side by side
            parts = pool.map(_sweep, tasks, chunksize=1)
    else:
        parts = list(map(_sweep, tasks))
    for n, want in enumerate(predicted, 1):
        _gate(n, "cases", sum(cases for task, (cases, _) in zip(tasks, parts) if task["n"] == n), want)
    failures = sorted((cert for _, found in parts for cert in found), key=_report_key)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    return VerificationReport(
        theorem=theorem,
        parameters={
            "max_order": n_max,
            "values": [format_rational(v) for v in vals] if vals else None,
        },
        cases_checked=total,
        failures=tuple(failures),
        elapsed_ms=elapsed_ms,
        subchecks=dict(subchecks) if subchecks else {},
    )


def verify_theorem_nondegeneracy(
    n_max: int = DEFAULT_MAX_ORDER,
    values: Iterable = DEFAULT_VALUES,
    *,
    budget: int = DEFAULT_CASE_BUDGET,
    jobs: int = 1,
) -> VerificationReport:
    """Path-maximum matrix valid iff labeling non-degenerate, over every
    labeled tree of order <= n_max with labels from ``values``.

    One case per (tree, labeling) pair, degenerate labelings included:
    cases_checked = sum over n of n**max(n-2, 0) * |values|**n.
    """
    return _execute(THEOREM_NONDEG, n_max, values, budget, jobs)


def verify_main_theorem(
    n_max: int = DEFAULT_MAX_ORDER,
    values: Iterable = DEFAULT_VALUES,
    *,
    budget: int = DEFAULT_CASE_BUDGET,
    jobs: int = 1,
) -> VerificationReport:
    """The three-way equivalence between short longest paths, few
    high-degree vertices, and every labeling being star-generated.

    Counting convention: one case per tree for the structural equivalence,
    one per enumerated labeling on trees with longest path <= 3, and one
    per counterexample check on the remaining trees.
    """
    return _execute(
        THEOREM_MAIN, n_max, values, budget, jobs, subchecks=MAIN_SUBCHECKS
    )


def verify_structure_lemmas(
    n_max: int = DEFAULT_MAX_ORDER,
    *,
    budget: int = DEFAULT_CASE_BUDGET,
    jobs: int = 1,
) -> VerificationReport:
    """Adjacency and cardinality of high-degree vertices in trees whose
    paths all have at most three edges. One case per tree."""
    return _execute(THEOREM_LEMMAS, n_max, None, budget, jobs)


def verify_classification(
    n_max: int = DEFAULT_MAX_ORDER,
    values: Iterable = DEFAULT_VALUES,
    *,
    budget: int = DEFAULT_CASE_BUDGET,
    jobs: int = 1,
) -> VerificationReport:
    """Star/DoubleStar trees: every non-degenerate labeling star-generated
    and no counterexample possible. Other trees: the counterexample labeling
    exists and its space has no witness. One case per tree plus one per
    enumerated labeling on Star/DoubleStar trees."""
    return _execute(THEOREM_CLASSIFY, n_max, values, budget, jobs)


# ---------------------------------------------------------------------------
# certificates: serialization and replay

def certificate_to_dict(cert: Certificate) -> dict:
    return {
        "tree": tree_to_dict(cert.tree),
        "labeling": (
            {v: format_rational(q) for v, q in cert.labeling.items()}
            if cert.labeling is not None
            else None
        ),
        "claim_violated": cert.claim_violated,
        "evidence": cert.evidence,
    }


def certificate_from_dict(obj) -> Certificate:
    """Parse a certificate; malformed input raises ParseError."""
    if not isinstance(obj, dict):
        raise ParseError("expected a JSON object for a certificate")
    labeling, evidence = obj.get("labeling"), obj.get("evidence", {})
    if not isinstance(labeling, (dict, type(None))) or not isinstance(evidence, dict):
        raise ParseError('"labeling" (unless null) and "evidence" must be JSON objects')
    if not isinstance(obj.get("claim_violated"), str):
        raise ParseError('"claim_violated" must be a string')
    if labeling is not None:
        labeling = {v: parse_rational(s) for v, s in labeling.items()}
    return Certificate(
        tree=tree_from_dict(obj.get("tree")),
        labeling=labeling,
        claim_violated=obj["claim_violated"],
        evidence=dict(evidence),
    )


def report_to_dict(report: VerificationReport) -> dict:
    out = {
        "theorem": report.theorem,
        "parameters": dict(report.parameters),
        "cases_checked": report.cases_checked,
        "elapsed_ms": report.elapsed_ms,
        "status": report.status,
        "failures": [certificate_to_dict(c) for c in report.failures],
    }
    if report.subchecks:
        out["subchecks"] = dict(report.subchecks)
    return out


def replay_certificate(cert: Certificate) -> bool:
    """Re-run the sweep's check behind a certificate on its stored data: the
    claim's judge on the rank codes of its labeling (ValueError without
    one), or its check if the tree passes its tree test for some theorem.

    Returns True when the recorded violation reproduces, False when the
    claim holds on the data.
    """
    claim = _CLAIMS.get(cert.claim_violated)
    if claim is None:
        raise ValueError(f"unknown claim {cert.claim_violated!r}")
    facts = _Facts.of(cert.tree)
    if claim.judge is None:
        tested = any(trees.holds(facts) for trees, _ in claim.reports.values())
        return tested and bool(claim.check(facts))
    if cert.labeling is None:
        raise ValueError(f"claim {cert.claim_violated!r} needs a labeling to replay")
    labels = LabeledTree(cert.tree, dict(cert.labeling)).labels
    codes = _value_codes(list(map(labels.__getitem__, cert.tree.vertices)))[1]  # as a sweep codes them
    return claim.judge(facts, codes) is not None
