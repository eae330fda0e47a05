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

A sweep runs on one facts record per tree (_Facts): order, rank, index
edges and adjacency, and, each computed when a claim first reads it, the
search record of trees._far (the diameter, and two of the three searches
of the counterexample path), the high-degree vertices, the public Tree,
that path and the labeling walk. The claim table (_CLAIMS) maps
each claim id to the theorems that report it, with for each the trees it is
checked on and whether its checks count as cases; to whether it is checked
once per tree or once per labeling; to its check on the record; and, for a
claim on one labeling, to its judge on the full path-max matrix. One loop
(_sweep) runs the theorem's checks on each record, predicted_cases counts
from the same table, and replay_certificate runs the sweep's own check, the
claim's judge or its tree test and check, on the certificate's data.

Every claim is invariant under vertex relabeling, so a sweep checks each
order once per free tree (trees._free_trees), on a record of its class key
(_ClassFacts), and counts each case n!/|Aut T| times, once per labeled
tree of the class. Only the counterexample reads vertex names, to pick a
longest path; a class record judges it with the 3 on every vertex third on
some longest path, onto which each labeled copy's pick maps. An order
where any class fails is swept again by Prufer rank, so its report is that
of a sweep by rank; a passing order never decodes a rank.

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
  for all x, the join rule spaces._joins that validation applies too: the
  isosceles property at (z, a, x) forces this row, and it keeps every
  triple through z isosceles. Failure is kept by extensions.
* Witness: old candidate x0 stays one iff d(z, x0) = m and no other column
  minimum drops (x0's row must hold them all); z becomes one iff no column
  minimum lies below its row. A dropped candidate never returns.
* Rows are built only while they can matter: under a valid prefix for the
  axioms, a non-degenerate one for the witness. Each labeling is counted
  with its own verdict at a leaf; a mismatch rebuilds the full matrix.

The walk runs on a class key (trees._canonical_tree), in which vertex
k > 0 hangs from key[k] < k. A sweep by rank walks each class once too (6
for the 1,296 trees of order 6) and keeps its leaf count and failing
labelings by key position: a tree's breadth-first shape, each position's
parent position, is canonicalized once per shape, and each tree reads its
class's failures through its vertices' key positions.
"""

from __future__ import annotations

import itertools
import math
import os
import time
from dataclasses import dataclass, field
from fractions import Fraction
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
from .spaces import _first_offender, _joins, _value_codes, _witness_index
from .serialize import tree_to_dict, tree_from_dict
from .trees import (
    Tree,
    _bfs_parents,
    _canonical_tree,
    _ends,
    _far,
    _free_trees,
    _index_adjacency,
    _index_tree,
    _kind_of,
    _longest_path,
    _rank_edges,
    _tree_count,
    _vertex_names,
    classify,
)

DEFAULT_MAX_ORDER = 6
DEFAULT_VALUES = (Fraction(0), Fraction(1), Fraction(2))
DEFAULT_CASE_BUDGET = 2_000_000
# below this order a sweep runs in process: a pool costs more than it saves
_POOL_MIN_ORDER = 7

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


def _free_tree_count(n: int) -> int:
    """Free trees of order n >= 1 (OEIS A000055), by Otter's formula
    t(x) = r(x) - (r(x)^2 - r(x^2)) / 2 on the rooted tree counts r (A000081)."""
    r = [0, 1]
    for m in range(1, n):  # r(m + 1), each root's subtrees a multiset of rooted trees
        divisors = (sum(d * r[d] for d in range(1, k + 1) if k % d == 0) for k in range(1, m + 1))
        r.append(sum(s * r[m + 1 - k] for k, s in enumerate(divisors, 1)) // m)
    pairs = sum(r[i] * r[n - i] for i in range(1, n)) - (r[n // 2] if n % 2 == 0 else 0)
    return r[n] - pairs // 2


# ---------------------------------------------------------------------------
# the labeling walk

def _labelings(parents, codes, witness: bool, leaf) -> None:
    """Call leaf(lab, nondeg, verdict) once for every labeling over ``codes``
    of the tree in which vertex k > 0 hangs from ``parents[k]`` < k, a class
    key of trees._canonical_tree; ``lab`` lists codes by vertex and is
    reused between calls. The verdict is whether the path-max matrix is an
    ultrametric, or with ``witness`` whether the matrix of a non-degenerate
    labeling has a witness (False on degenerate ones). See the module
    docstring."""
    n = len(parents)
    lab = [0] * n
    d = [[0] * n for _ in range(n)]  # zero diagonal

    def extend(k, nondeg, valid, cand, colmin):
        p = parents[k]
        above = lab[p]
        dp = d[p][:k]
        dp[p] = above
        low = min(dp)
        for c in codes:
            lab[k] = c
            nd = nondeg and (c > 0 or above > 0)
            ok, keep, cm = False, None, None
            if nd if witness else valid:
                r = [c if c > w else w for w in dp]
                m = c if c > low else low
                if witness:
                    cm = [v if v < w else w for v, w in zip(r, colmin)]
                    keep = [x for x in cand if r[x] == m
                            and cm[:x] == colmin[:x] and cm[x + 1:] == colmin[x + 1:]]
                    if r == cm:
                        keep.append(k)
                    cm.append(m)
                    ok = bool(keep)
                else:
                    ok = _joins(r, m, d[r.index(m)][:k])
                if k < n - 1:
                    d[k][:k] = r
                    for x in range(k):
                        d[x][k] = r[x]
            if k == n - 1:
                leaf(lab, nd, ok)
            else:
                extend(k + 1, nd, ok, keep, cm)

    for c in codes:
        lab[0] = c
        if n == 1:
            leaf(lab, True, True)
        else:
            extend(1, True, True, [0], [float("inf")])  # one point: no other in its column


def _shape_walk(memo: dict, classes: dict, n: int, adj, codes, witness: bool):
    """(cases, failing labelings by vertex) of _labelings on one tree. The
    walk runs once per isomorphism class, on its key, and ``classes`` keeps
    its count and failing labelings by key position; ``memo`` keeps, per
    shape (each breadth-first position's parent position), the class key
    and each position's key position."""
    parent, order = _bfs_parents(n, adj, 0)
    at = {v: k for k, v in enumerate(order)}
    key = tuple(at[parent[v]] for v in order)
    if key not in memo:
        # the shape's own tree, position k hanging from key[k]
        memo[key] = _canonical_tree(_index_adjacency(n, zip(key[1:], range(1, n))))
    form, pos = memo[key]
    if form not in classes:
        classes[form] = _class_walk(form, codes, witness)
    cases, bad = classes[form]
    return cases, [[lab[pos[at[v]]] for v in range(n)] for lab in bad]


def _class_walk(key, codes, witness: bool):
    """(cases, failing labelings) of _labelings on the class key ``key``."""
    cases, bad = 0, []

    def leaf(lab, nondeg, verdict):
        nonlocal cases
        cases += 1
        if (nondeg and not verdict) if witness else verdict != nondeg:
            bad.append(tuple(lab))

    _labelings(key, codes, witness, leaf)
    return cases, bad


# ---------------------------------------------------------------------------
# the facts of one tree

class _fact:
    """A fact computed on first read and then kept as a plain attribute:
    functools.cached_property without the lock it takes on Python < 3.12."""

    def __init__(self, compute):
        self.compute = compute

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, facts, owner=None):
        value = facts.__dict__[self.name] = self.compute(facts)
        return value


class _Facts:
    """One tree of a sweep by Prufer rank, in index form (vertex i is
    v(i+1)), with the labeling walk memo of its sweep and the codes of its
    value grid, ``values[code]`` being a code's value. The facts past the
    adjacency are computed when a claim first reads them, so a sweep pays
    only for what its theorem's claims use."""

    def __init__(self, n: int, rank: int, values=(), codes=(), memo=None):
        self.n, self.rank = n, rank
        self.values, self.codes, self.memo = values, codes, {} if memo is None else memo
        self.edges = _rank_edges(n, rank)
        self.adj = _index_adjacency(n, self.edges)

    @classmethod
    def of(cls, tree: Tree) -> _Facts:
        """The facts of a public tree, for a replay: no rank, no sweep."""
        facts = cls.__new__(cls)
        facts.n, facts.rank, facts.adj = tree.order, None, tree._indexed
        facts.edges = [(tree._index[a], tree._index[b]) for a, b in tree.edges]
        facts.names, facts.tree = tree.vertices, tree
        return facts

    @_fact
    def names(self) -> tuple[str, ...]:
        return _vertex_names(self.n)

    @_fact
    def far(self) -> tuple[list[int], list[int], int]:
        """trees._far, whose ``far[2]`` is the diameter; the path reuses it."""
        return _far(self.adj)

    @_fact
    def highs(self) -> list[int]:
        """The vertices of degree two or more, ascending."""
        return [v for v, nbrs in enumerate(self.adj) if len(nbrs) >= 2]

    @_fact
    def tree(self) -> Tree:
        return _index_tree(self.names, self.edges)

    @_fact
    def path(self) -> list[int]:
        """The longest path counterexample_labeling labels."""
        return _longest_path(self.adj, self.names, self.far)

    @_fact
    def thirds(self):
        """The vertices the counterexample check puts its 3 on: the path's third."""
        return self.path[2:3]

    def walk(self, witness: bool):
        """_shape_walk over the sweep's codes, a shape and a class memo per mode."""
        shapes, classes = self.memo.setdefault(witness, ({}, {}))
        return _shape_walk(shapes, classes, self.n, self.adj, self.codes, witness)

    def fail(self, claim: str, evidence: dict, lab=None, values=None) -> Certificate:
        """The certificate of a failure on this tree: on the labeling ``lab``
        if one was in play, a code per vertex into ``values`` (by default
        the sweep's), and with the tree's order and rank as evidence."""
        labeling = None
        if lab is not None:
            labeling = dict(zip(self.names, map((values or self.values).__getitem__, lab)))
        evidence = {**evidence, "order": self.n, "tree_index": self.rank}
        return Certificate(self.tree, labeling, claim, evidence)


class _ClassFacts(_Facts):
    """The facts of a free tree's representative, in which vertex k > 0
    hangs from ``key[k]``: no rank. Its counterexample check judges every
    vertex third on some longest path, the vertex two steps in from an end,
    so it fails if the check fails on any labeled copy of the class."""

    def __init__(self, key, values, codes):
        self.n, self.rank, self.key = len(key), None, key
        self.values, self.codes = values, codes
        self.edges = list(zip(key[1:], range(1, self.n)))
        self.adj = _index_adjacency(self.n, self.edges)

    @_fact
    def thirds(self):
        return {parent[parent[end]] for end, parent in _ends(self.adj, self.far).items()}

    def walk(self, witness: bool):
        return _class_walk(self.key, self.codes, witness)


# ---------------------------------------------------------------------------
# the claim checks on a tree's facts

# judges of one labeling ``lab``, a rank code per vertex (0 for zero), on the
# full path-max matrix: each returns the failure's evidence, or None

def _validity(f: _Facts, lab) -> dict:
    """The validity claim's evidence, whether the claim holds or not."""
    viol = _first_offender(_path_max(f.adj, lab))
    return {
        "nondegenerate": _zero_edge(f.edges, lab) is None,
        "matrix_valid": viol is None,
        "violation": viol and {"axiom": viol[0], "points": [f.names[i] for i in viol[1]]},
    }


def _judge_validity(f: _Facts, lab) -> dict | None:
    evidence = _validity(f, lab)
    return None if evidence["nondegenerate"] == evidence["matrix_valid"] else evidence


def _judge_witness(f: _Facts, lab) -> dict | None:
    if _zero_edge(f.edges, lab) is not None:
        return None
    return None if _witness_index(_path_max(f.adj, lab)) is not None else {"witness": None}


def _judge_counterexample(f: _Facts, lab) -> dict | None:
    i = _witness_index(_path_max(f.adj, lab))
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
    judged up to the first failure. A path too short for the pattern is
    counterexample-applicable's failure."""
    if len(f.path) < 5:
        return []
    for third in f.thirds:
        lab = _counterexample_codes(third, f.n)
        evidence = _judge_counterexample(f, lab)
        if evidence is not None:
            return [f.fail(CLAIM_COUNTEREXAMPLE, evidence, lab, _COUNTEREXAMPLE_VALUES)]
    return []


def _iff(f: _Facts) -> list[Certificate]:
    high = len(f.highs)
    if (f.far[2] <= 3) == (high <= 2):
        return []
    return [f.fail(CLAIM_II_IFF_III, {"longest_path": f.far[2], "high_degree_count": high})]


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
_SHORT = _Trees(lambda f: f.far[2] <= 3, _qualifying_count)
_LONG = _Trees(lambda f: f.far[2] > 3, _long_count)
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
    CLAIM_II_IFF_III: _Claim({THEOREM_MAIN: (_ALL, True)}, False, _iff),
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
        lambda f: [f.fail(CLAIM_CE_APPLICABLE, {"longest_path": len(f.path) - 1})]
        if len(f.path) < 5 else [],
    ),
    CLAIM_AT_MOST_TWO: _Claim(  # one case per tree: the lemma holds vacuously on long trees
        {THEOREM_LEMMAS: (_ALL, True)}, False,
        lambda f: [f.fail(CLAIM_AT_MOST_TWO, {"high_degree": [f.names[v] for v in f.highs]})]
        if f.far[2] <= 3 and len(f.highs) > 2 else [],
    ),
    CLAIM_ADJACENT: _Claim(
        {THEOREM_LEMMAS: (_SHORT, False)}, False,
        lambda f: [f.fail(CLAIM_ADJACENT, {"pair": [f.names[a], f.names[b]]})
                   for a, b in itertools.combinations(f.highs, 2) if b not in f.adj[a]],
    ),
    CLAIM_CLASS_STRUCTURE: _Claim({THEOREM_CLASSIFY: (_ALL, True)}, False, _class_structure),
    CLAIM_CE_INAPPLICABLE: _Claim(
        {THEOREM_CLASSIFY: (_FEW, False)}, False,
        lambda f: [f.fail(CLAIM_CE_INAPPLICABLE, {"longest_path": f.far[2]})]
        if f.far[2] >= 4 else [],
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


def predicted_cases(theorem: str, n_max: int, value_count: int) -> int:
    """The exact number of checks a run will perform up to order n_max."""
    if n_max < 0:
        raise ValueError(f"n_max must be at least 0, got {n_max}")
    return sum(itertools.islice(_cases_by_order(theorem, value_count), n_max))


def _sweep(task: dict) -> tuple[int, list[Certificate]]:
    """(cases, certificates) of the trees of one task of one order, a range
    of Prufer ranks or a list of (class key, weight): each tree's facts go
    through the checks the table lists for the theorem, and each case counts
    once per labeled tree, a class's weight times."""
    n, vals, span = task["n"], task["values"] or (), task["trees"]
    claims = _reported(task["theorem"])
    values, code = _value_codes(vals)
    codes = [code[v] for v in vals]
    memo: dict = {}
    if isinstance(span, range):
        units = ((_Facts(n, rank, values, codes, memo), 1) for rank in span)
    else:
        units = ((_ClassFacts(key, values, codes), weight) for key, weight in span)
    cases, fails = 0, []
    for facts, weight in units:
        for claim, trees, counted in claims:
            if trees.holds(facts):
                made, found = claim.check(facts) if claim.per_labeling else (1, claim.check(facts))
                cases += weight * made if counted else 0
                fails += found
    return cases, fails


# ---------------------------------------------------------------------------
# orchestration

def _split_range(total: int, parts: int) -> list[tuple[int, int]]:
    if parts <= 1 or total <= 1:
        return [(0, total)]
    size = -(-total // parts)
    return [(lo, min(lo + size, total)) for lo in range(0, total, size)]


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


def _by_order(tasks, parts) -> dict[int, tuple[int, list[Certificate]]]:
    """(cases, certificates) by order of the tasks, from their _sweep results ``parts``."""
    by_order: dict = {}
    for task, (cases, found) in zip(tasks, parts):
        total, fails = by_order.get(task["n"], (0, []))
        by_order[task["n"]] = total + cases, fails + found
    return by_order


def _orders(tasks, chunks: int, run) -> dict[int, tuple[int, list[Certificate]]]:
    """_by_order of the class tasks, ``run`` mapping _sweep over a task
    list; an order with a certificate is swept again in ``chunks`` rank ranges."""
    by_order = _by_order(tasks, run(tasks))
    failing = {task["n"]: task for task in tasks if by_order[task["n"]][1]}
    redo = [
        {**task, "trees": range(lo, hi)}
        for n, task in failing.items()
        for lo, hi in _split_range(_tree_count(n), chunks)
    ]
    return {**by_order, **_by_order(redo, run(redo))} if redo else by_order


def _execute(theorem, n_max, values, budget, jobs, subchecks=None) -> VerificationReport:
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
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
    # chunks past the processor count only add tasks
    chunks = min(jobs, os.cpu_count() or 1) if n_max >= _POOL_MIN_ORDER else 1
    tasks = []
    for n, found in reversed(list(enumerate(_free_trees(n_max), 1))):  # largest order first
        classes = [(key, math.factorial(n) // aut) for key, aut in found.items()]
        _gate(n, "free trees", len(classes), _free_tree_count(n))
        _gate(n, "labeled trees", sum(weight for _, weight in classes), _tree_count(n))
        # every chunks-th class: the stars and double stars, whose walks are
        # most of the work, are generated last, one after another
        for i in range(min(chunks, len(classes))):
            tasks.append({"theorem": theorem, "n": n, "trees": classes[i::chunks], "values": vals})
    workers = min(chunks, len(tasks))
    if workers > 1:
        from multiprocessing import Pool

        with Pool(workers) as pool:  # one task per hand-out, so chunks run side by side
            by_order = _orders(tasks, chunks, lambda ts: pool.map(_sweep, ts, chunksize=1))
    else:
        by_order = _orders(tasks, chunks, lambda ts: list(map(_sweep, ts)))
    for n, want in enumerate(predicted, 1):
        _gate(n, "cases", by_order[n][0], want)
    failures = sorted((c for _, found in by_order.values() for c in found), key=_report_key)
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
    code = _value_codes(labels.values())[1]  # the codes a sweep over these values gives
    return claim.judge(facts, [code[labels[v]] for v in cert.tree.vertices]) is not None
