"""Exhaustive desk-scale verification of the structural theorems.

Four entry points sweep every tree up to a given order (one per Prufer
sequence, vertices v1..vn) and, where labelings matter, every labeling over
a finite value set:

* verify_theorem_nondegeneracy: the path-maximum matrix satisfies the
  ultrametric axioms exactly when the labeling is non-degenerate.
* verify_main_theorem: longest path <= 3 edges, at most two high-degree
  vertices, and "every non-degenerate labeling generates a star-generated
  space" are equivalent. The first equivalence is checked exhaustively per
  tree; the witness direction is checked over the finite value grid and is
  labeled "sampled"; the converse is labeled "certified" because each long
  tree gets an explicit counterexample labeling whose space is checked to
  have no witness.
* verify_structure_lemmas: in trees whose paths all have at most three
  edges, the high-degree vertices are pairwise adjacent and number at most
  two.
* verify_classification: the Star/DoubleStar/Other tag matches the metric
  behaviour (all labelings star-generated and no counterexample possible,
  versus a counterexample labeling that is provably not star-generated).

Each run returns a VerificationReport whose cases_checked equals the
analytically predicted grid size; a mismatch would mean a harness bug and
raises RuntimeError. Failures carry replayable Certificates.

The inner sweeps encode label values as small integer codes: code 0 is
reserved for the value zero and the remaining codes follow the sorted value
order. Path-maximum distances, the witness condition, and the axiom checks
use only comparisons and maxima, which the encoding preserves, so the coded
run decides exactly the same predicates as the Fraction run; so does the
check of each long tree's counterexample labeling, made on the codes of its
values. Certificates and every public object are materialized with exact
Fractions.

Each tree's labelings are swept by one depth-first walk over its vertices
in breadth-first order from v1, so every vertex z joins the labeled prefix
as a leaf and labelings sharing a prefix share its work. With code c on z
and parent p, z's row is d(z, x) = max(c, d(p, x)), reading d(p, p) as p's
label; with m its minimum, first reached at a, the rest costs O(k):

* Axioms: a valid prefix stays valid iff m > 0 and d(z, x) = max(m, d(a, x))
  for all x: the isosceles property at (z, a, x) forces this row, and it
  keeps every triple through z isosceles. Failure is kept by extensions.
* Witness: old candidate x0 stays one iff d(z, x0) = m and no other column
  minimum drops (x0's row must hold them all); z becomes one iff no column
  minimum lies below its row. A dropped candidate never returns.
* Rows are built only while they can matter: under a valid prefix for the
  axioms, a non-degenerate one for the witness. Each labeling is counted
  with its own verdict at a leaf; a mismatch rebuilds the full matrix.

The walk reads only the tree's breadth-first shape, each position's parent
position, so a chunk walks each shape once (42 shapes for the 1,296 trees of
order 6) and keeps its leaf count and failing labelings; each tree of the
shape adds the count and maps the failures to its own vertices.
"""

from __future__ import annotations

import itertools
import os
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Iterable, Mapping

from .errors import (
    BudgetExceeded,
    NoLongPath,
    ParseError,
    PositivityViolation,
    StrongTriangleViolation,
    SymmetryViolation,
)
from .labelings import (
    _COUNTEREXAMPLE_FILL,
    _COUNTEREXAMPLE_PATTERN,
    LabeledTree,
    _bfs_parents,
    _longest_path,
    _path_max,
    build_ultrametric,
    counterexample_labeling,
    is_nondegenerate,
    raw_distance_matrix,
)
from .rationals import coerce_nonnegative, format_rational, parse_rational
from .spaces import _witness_index, us_witness, validate_ultrametric
from .serialize import tree_to_dict, tree_from_dict
from .trees import (
    Tree,
    TreeKind,
    _prufer_edges,
    _vertex_names,
    classify,
    high_degree_vertices,
    longest_path_length,
    validate_tree,
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
# analytic case counts

def _tree_count(n: int) -> int:
    return 1 if n <= 2 else n ** (n - 2)


def _star_count(n: int) -> int:
    return 1 if n <= 2 else n


def _double_star_count(n: int) -> int:
    # two adjacent centers, every other vertex a leaf on one of them,
    # each center keeping at least one leaf
    return comb(n, 2) * (2 ** (n - 2) - 2) if n >= 4 else 0


def _qualifying_count(n: int) -> int:
    return _star_count(n) + _double_star_count(n)


def predicted_cases(theorem: str, n_max: int, value_count: int) -> int:
    """The exact number of checks a run will perform; see each op for the
    counting convention."""
    total = 0
    for n in range(1, n_max + 1):
        t = _tree_count(n)
        if theorem == THEOREM_NONDEG:
            total += t * value_count ** n
        elif theorem == THEOREM_LEMMAS:
            total += t
        elif theorem == THEOREM_MAIN:
            q = _qualifying_count(n)
            total += t + q * value_count ** n + (t - q)
        elif theorem == THEOREM_CLASSIFY:
            total += t + _qualifying_count(n) * value_count ** n
        else:
            raise ValueError(f"unknown theorem id {theorem!r}")
    return total


# ---------------------------------------------------------------------------
# integer-coded tree helpers

def _prufer_sequence(rank: int, n: int) -> tuple[int, ...]:
    seq = [0] * (n - 2)
    for i in range(n - 3, -1, -1):
        rank, seq[i] = divmod(rank, n)
    return tuple(seq)


def _int_edges(n: int, rank: int) -> list[tuple[int, int]]:
    if n == 1:
        return []
    if n == 2:
        return [(0, 1)]
    return _prufer_edges(_prufer_sequence(rank, n), n)


def _int_adjacency(n: int, edges) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    return adj


def _int_diameter(n: int, adj) -> int:
    if n == 1:
        return 0
    _, order = _bfs_parents(n, adj, 0)
    start = order[-1]
    parent, order = _bfs_parents(n, adj, start)
    steps = 0
    v = order[-1]
    while v != start:
        v = parent[v]
        steps += 1
    return steps


def _labelings(n: int, adj, codes, witness: bool, leaf) -> None:
    """Call leaf(lab, nondeg, verdict) once for every labeling of the tree
    over ``codes``; ``lab`` lists codes by vertex and is reused between
    calls. The verdict is whether the path-max matrix is an ultrametric,
    or with ``witness`` whether the matrix of a non-degenerate labeling has
    a witness (False on degenerate ones). See the module docstring."""
    parent, order = _bfs_parents(n, adj, 0)
    at = {v: k for k, v in enumerate(order)}
    lab = [0] * n
    d = [[0] * n for _ in range(n)]  # by BFS position, zero diagonal

    def extend(k, nondeg, valid, cand, colmin):
        z, p = order[k], parent[order[k]]
        above = lab[p]
        dp = d[at[p]][:k]
        dp[at[p]] = above
        low = min(dp)
        for c in codes:
            lab[z] = c
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
                    ok = m > 0 and r == [m if m > w else w for w in d[r.index(m)][:k]]
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


def _shape_walk(memo: dict, n: int, adj, codes, witness: bool):
    """(cases, failures) of _labelings on one tree, a failure being
    (labeling by vertex, nondeg) with a wrong verdict. The walk runs once
    per shape (each breadth-first position's parent position) in ``memo``,
    on the tree whose vertices are the positions."""
    parent, order = _bfs_parents(n, adj, 0)
    at = {v: k for k, v in enumerate(order)}
    key = tuple(at[parent[v]] for v in order)
    if key not in memo:  # parents listed first, so BFS visits 0, 1, ..., n - 1
        shape = _int_adjacency(n, ((key[k], k) for k in range(1, n)))
        cases, bad = 0, []

        def leaf(lab, nondeg, verdict):
            nonlocal cases
            cases += 1
            if (nondeg and not verdict) if witness else verdict != nondeg:
                bad.append((tuple(lab), nondeg))

        _labelings(n, shape, codes, witness, leaf)
        memo[key] = cases, bad
    cases, bad = memo[key]
    return cases, [([by_pos[at[v]] for v in range(n)], nondeg) for by_pos, nondeg in bad]


def _coded_matrix_violation(n: int, d):
    for i in range(n):
        if d[i][i] != 0:
            return ("positivity", (i, i))
        row = d[i]
        for j in range(i + 1, n):
            if row[j] != d[j][i]:
                return ("symmetry", (i, j))
            if row[j] == 0:
                return ("positivity", (i, j))
    for i in range(n):
        di = d[i]
        # symmetry already verified, so i < j covers all ordered pairs
        for j in range(i + 1, n):
            dij = di[j]
            for k in range(n):
                if dij > di[k] and dij > d[k][j]:
                    return ("strong-triangle", (i, j, k))
    return None


# ---------------------------------------------------------------------------
# chunk execution (sequential or in worker processes)

def _codes_for(vals: tuple[Fraction, ...]) -> tuple[int, ...]:
    offset = 0 if vals[0] == 0 else 1
    return tuple(range(offset, offset + len(vals)))


def _fail(n, rank, claim, evidence, codes=None, labels=None):
    return {
        "n": n,
        "rank": rank,
        "claim": claim,
        "evidence": evidence,
        "codes": list(codes) if codes is not None else None,
        "labels": labels,
    }


def _violation_evidence(viol, names):
    if viol is None:
        return None
    axiom, idxs = viol
    return {"axiom": axiom, "points": [names[i] for i in idxs]}


def _kind_of(high: int) -> TreeKind:
    """The class of a tree with ``high`` vertices of degree two or more."""
    if high >= 3:
        return TreeKind.OTHER
    return TreeKind.DOUBLE_STAR if high == 2 else TreeKind.STAR


_CE_VALUES = tuple(sorted({_COUNTEREXAMPLE_FILL, *_COUNTEREXAMPLE_PATTERN}))
_CE_CODE = dict(zip(_CE_VALUES, _codes_for(_CE_VALUES)))
_CE_FILL = _CE_CODE[_COUNTEREXAMPLE_FILL]
_CE_PATTERN = tuple(map(_CE_CODE.get, _COUNTEREXAMPLE_PATTERN))


def _public_tree(n: int, edges) -> Tree:
    names = _vertex_names(n)
    return validate_tree(names, [(names[a], names[b]) for a, b in edges])


def _run_chunk(task: dict) -> tuple[int, list[dict]]:
    theorem = task["theorem"]
    n = task["n"]
    lo, hi = task["lo"], task["hi"]
    vals = (
        tuple(Fraction(s) for s in task["values"])
        if task.get("values") is not None
        else None
    )
    if theorem == THEOREM_NONDEG:
        return _chunk_nondeg(n, lo, hi, vals)
    if theorem == THEOREM_MAIN:
        return _chunk_main(n, lo, hi, vals)
    if theorem == THEOREM_LEMMAS:
        return _chunk_lemmas(n, lo, hi)
    if theorem == THEOREM_CLASSIFY:
        return _chunk_classify(n, lo, hi, vals)
    raise ValueError(f"unknown theorem id {theorem!r}")


def _chunk_nondeg(n, lo, hi, vals):
    codes = _codes_for(vals)
    names = _vertex_names(n)
    memo: dict = {}
    cases = 0
    fails: list[dict] = []
    for rank in range(lo, hi):
        adj = _int_adjacency(n, _int_edges(n, rank))
        swept, bad = _shape_walk(memo, n, adj, codes, False)
        cases += swept
        for lab, nondeg in bad:  # name the offender from the full matrix
            viol = _coded_matrix_violation(n, _path_max(adj, lab, 0))
            evidence = {
                "nondegenerate": nondeg,
                "matrix_valid": viol is None,
                "violation": _violation_evidence(viol, names),
            }
            fails.append(_fail(n, rank, CLAIM_VALID_IFF_NONDEG, evidence, codes=lab))
    return cases, fails


def _witness_sweep(memo, n, rank, adj, codes) -> tuple[int, list[dict]]:
    cases, bad = _shape_walk(memo, n, adj, codes, True)
    return cases, [
        _fail(n, rank, CLAIM_WITNESS, {"witness": None}, codes=lab) for lab, _ in bad
    ]


def _chunk_main(n, lo, hi, vals):
    codes = _codes_for(vals)
    memo: dict = {}
    cases = 0
    fails: list[dict] = []
    for rank in range(lo, hi):
        adj = _int_adjacency(n, _int_edges(n, rank))
        diameter = _int_diameter(n, adj)
        high = sum(1 for nbrs in adj if len(nbrs) >= 2)
        short = diameter <= 3
        few = high <= 2
        cases += 1
        if short != few:
            fails.append(
                _fail(
                    n,
                    rank,
                    CLAIM_II_IFF_III,
                    {"longest_path": diameter, "high_degree_count": high},
                )
            )
        if short:
            swept, found = _witness_sweep(memo, n, rank, adj, codes)
            cases += swept
            fails.extend(found)
        else:
            cases += 1
            fails.extend(_check_counterexample(n, rank, adj))
    return cases, fails


def _check_counterexample(n, rank, adj) -> list[dict]:
    """counterexample_labeling's pattern on the codes of its values (coded
    like a value grid, which keeps every comparison), and its witness."""
    names = _vertex_names(n)
    path = _longest_path(adj, names)
    if len(path) < 5:
        return [_fail(n, rank, CLAIM_CE_APPLICABLE, {"longest_path": len(path) - 1})]
    lab = [_CE_FILL] * n
    for v, c in zip(path, _CE_PATTERN):
        lab[v] = c
    i = _witness_index(_path_max(adj, lab, 0))
    witness = None if i is None else names[i]
    if witness is None:
        return []
    values = (_value_of_code(c, _CE_VALUES) for c in lab)
    labels = {v: format_rational(q) for v, q in zip(names, values)}
    return [_fail(n, rank, CLAIM_COUNTEREXAMPLE, {"witness": witness}, labels=labels)]


def _chunk_lemmas(n, lo, hi):
    cases = 0
    fails: list[dict] = []
    for rank in range(lo, hi):
        edges = _int_edges(n, rank)
        adj = _int_adjacency(n, edges)
        cases += 1
        if _int_diameter(n, adj) > 3:
            continue
        names = _vertex_names(n)
        highs = [v for v in range(n) if len(adj[v]) >= 2]
        if len(highs) > 2:
            fails.append(
                _fail(
                    n,
                    rank,
                    CLAIM_AT_MOST_TWO,
                    {"high_degree": [names[v] for v in highs]},
                )
            )
        edge_set = set(edges)
        for a, b in itertools.combinations(highs, 2):
            if (a, b) not in edge_set:
                fails.append(
                    _fail(
                        n,
                        rank,
                        CLAIM_ADJACENT,
                        {"pair": [names[a], names[b]]},
                    )
                )
    return cases, fails


def _chunk_classify(n, lo, hi, vals):
    codes = _codes_for(vals)
    memo: dict = {}
    cases = 0
    fails: list[dict] = []
    for rank in range(lo, hi):
        edges = _int_edges(n, rank)
        adj = _int_adjacency(n, edges)
        high = sum(1 for nbrs in adj if len(nbrs) >= 2)
        tree = _public_tree(n, edges)
        tag = classify(tree).tag
        cases += 1
        if tag != _kind_of(high):
            fails.append(
                _fail(
                    n,
                    rank,
                    CLAIM_CLASS_STRUCTURE,
                    {"tag": tag.value, "high_degree_count": high},
                )
            )
        if high <= 2:
            length = longest_path_length(tree)
            if length >= 4:  # counterexample_labeling would not refuse the tree
                fails.append(_fail(n, rank, CLAIM_CE_INAPPLICABLE, {"longest_path": length}))
            swept, found = _witness_sweep(memo, n, rank, adj, codes)
            cases += swept
            fails.extend(found)
        else:
            fails.extend(_check_counterexample(n, rank, adj))
    return cases, fails


# ---------------------------------------------------------------------------
# orchestration

def _canon_values(values) -> tuple[Fraction, ...]:
    vals = sorted({coerce_nonnegative(v) for v in values})
    if not vals:
        raise ValueError("values must be non-empty")
    return tuple(vals)


def _split_range(total: int, parts: int) -> list[tuple[int, int]]:
    if parts <= 1 or total <= 1:
        return [(0, total)]
    size = -(-total // parts)
    return [(lo, min(lo + size, total)) for lo in range(0, total, size)]


def _fail_key(fd: dict):
    return (
        fd["n"],
        fd["rank"],
        tuple(fd["codes"]) if fd["codes"] is not None else (),
        fd["claim"],
    )


def _value_of_code(code: int, vals: tuple[Fraction, ...]) -> Fraction:
    offset = 0 if vals[0] == 0 else 1
    return vals[code - offset]


def _materialize(fd: dict, vals) -> Certificate:
    n, rank = fd["n"], fd["rank"]
    names = _vertex_names(n)
    tree = _public_tree(n, _int_edges(n, rank))
    labeling = None
    if fd["codes"] is not None:
        labeling = {
            names[i]: _value_of_code(c, vals) for i, c in enumerate(fd["codes"])
        }
    elif fd["labels"] is not None:
        labeling = {v: parse_rational(s) for v, s in fd["labels"].items()}
    evidence = dict(fd["evidence"])
    evidence["order"] = n
    evidence["tree_index"] = rank
    return Certificate(
        tree=tree, labeling=labeling, claim_violated=fd["claim"], evidence=evidence
    )


def _execute(theorem, n_max, values, budget, jobs, subchecks=None) -> VerificationReport:
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    vals = _canon_values(values) if values is not None else None
    predicted = predicted_cases(theorem, n_max, len(vals) if vals else 0)
    if predicted > budget:
        raise BudgetExceeded(
            f"{predicted} predicted cases exceed the budget of {budget}; "
            "raise the budget to run this grid"
        )
    started = time.perf_counter()
    value_strs = tuple(format_rational(v) for v in vals) if vals else None
    chunks = jobs if n_max >= _POOL_MIN_ORDER else 1  # one chunk walks each shape once
    tasks = []
    for n in range(n_max, 0, -1):  # largest first, so the workers finish together
        for lo, hi in _split_range(_tree_count(n), chunks):
            tasks.append(
                {"theorem": theorem, "n": n, "lo": lo, "hi": hi, "values": value_strs}
            )
    workers = min(chunks, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        from multiprocessing import Pool

        with Pool(workers) as pool:  # one task per hand-out, so chunks run side by side
            parts = pool.map(_run_chunk, tasks, chunksize=1)
    else:
        parts = [_run_chunk(t) for t in tasks]
    cases = sum(p[0] for p in parts)
    if cases != predicted:
        raise RuntimeError(
            f"harness accounting bug: checked {cases} cases, predicted {predicted}"
        )
    fail_dicts = sorted((f for p in parts for f in p[1]), key=_fail_key)
    failures = tuple(_materialize(fd, vals) for fd in fail_dicts)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    return VerificationReport(
        theorem=theorem,
        parameters={
            "max_order": n_max,
            "values": list(value_strs) if value_strs else None,
        },
        cases_checked=cases,
        failures=failures,
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


def _matrix_is_valid(lt: LabeledTree) -> bool:
    points, rows = raw_distance_matrix(lt)
    try:
        validate_ultrametric(points, rows)
    except (PositivityViolation, SymmetryViolation, StrongTriangleViolation):
        return False
    return True


def replay_certificate(cert: Certificate) -> bool:
    """Re-run the single check behind a certificate on its stored data.

    Returns True when the recorded violation reproduces, False when the
    claim holds on the data. Claims needing a labeling raise ValueError if
    the certificate lacks one.
    """
    claim = cert.claim_violated
    tree = cert.tree
    if claim in (CLAIM_VALID_IFF_NONDEG, CLAIM_WITNESS, CLAIM_COUNTEREXAMPLE):
        if cert.labeling is None:
            raise ValueError(f"claim {claim!r} needs a labeling to replay")
        lt = LabeledTree(tree, dict(cert.labeling))
        if claim == CLAIM_VALID_IFF_NONDEG:
            return is_nondegenerate(lt) != _matrix_is_valid(lt)
        if claim == CLAIM_WITNESS:
            return is_nondegenerate(lt) and us_witness(build_ultrametric(lt)) is None
        return us_witness(build_ultrametric(lt)) is not None
    if claim == CLAIM_II_IFF_III:
        return (longest_path_length(tree) <= 3) != (len(high_degree_vertices(tree)) <= 2)
    if claim == CLAIM_ADJACENT:
        if longest_path_length(tree) > 3:
            return False
        highs = sorted(high_degree_vertices(tree))
        edge_set = set(tree.edges)
        return any(
            pair not in edge_set for pair in itertools.combinations(highs, 2)
        )
    if claim == CLAIM_AT_MOST_TWO:
        return longest_path_length(tree) <= 3 and len(high_degree_vertices(tree)) > 2
    if claim in (CLAIM_CE_INAPPLICABLE, CLAIM_CE_APPLICABLE):
        try:
            counterexample_labeling(tree)
        except NoLongPath:
            return claim == CLAIM_CE_APPLICABLE and longest_path_length(tree) > 3
        return claim == CLAIM_CE_INAPPLICABLE and longest_path_length(tree) <= 3
    if claim == CLAIM_CLASS_STRUCTURE:
        return classify(tree).tag != _kind_of(len(high_degree_vertices(tree)))
    raise ValueError(f"unknown claim {claim!r}")
