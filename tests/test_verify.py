import collections
import itertools
import json
import math
import multiprocessing
import os
import re
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from helpers import (
    A000055,
    RankFacts,
    automorphisms,
    brute_counterexample,
    brute_longest_path,
    brute_witness,
    canonical,
    cayley,
    coded_matrix,
    copy_names,
    double_star_count,
    expected_cases,
    high_degree_count,
    index_adjacency,
    labeled,
    orbit,
    orbit_count,
    pair_paths,
    path_tree,
    qualifying_count,
    random_trees,
    reference_sweep,
    space_of,
    star_count,
    star_tree,
)
from ultratree import (
    BudgetExceeded,
    Certificate,
    MAIN_SUBCHECKS,
    VerificationReport,
    build_ultrametric,
    certificate_from_dict,
    certificate_to_dict,
    counterexample_labeling,
    enumerate_trees,
    is_nondegenerate,
    predicted_cases,
    raw_distance_matrix,
    report_to_dict,
    replay_certificate,
    us_witness,
    validate_tree,
    validate_ultrametric,
    verify_classification,
    verify_main_theorem,
    verify_structure_lemmas,
    verify_theorem_nondegeneracy,
)
from ultratree.errors import (
    NoLongPath,
    ParseError,
    PositivityViolation,
    StrongTriangleViolation,
    SymmetryViolation,
)
from ultratree import labelings, spaces, trees, verify
from ultratree.spaces import _first_offender, _row_minima, _value_codes, _witness_index
from ultratree.trees import _bfs_parents, _index_adjacency, _prufer_edges, _rank_edges
from ultratree.verify import (
    CLAIM_ADJACENT,
    CLAIM_AT_MOST_TWO,
    CLAIM_CE_APPLICABLE,
    CLAIM_CE_INAPPLICABLE,
    CLAIM_CLASS_STRUCTURE,
    CLAIM_COUNTEREXAMPLE,
    CLAIM_II_IFF_III,
    CLAIM_VALID_IFF_NONDEG,
    CLAIM_WITNESS,
    _check_counterexample,
    _labelings,
)


def _grid(values):
    """A value grid as a sweep codes it: (each code's value, the grid's codes)."""
    by_code, codes = _value_codes(sorted({Fraction(v) for v in values}))
    return by_code, tuple(codes)


class TestCaseCounting:
    def test_star_and_double_star_formulas_match_enumeration(self):
        for n in range(1, 6):
            stars = doubles = 0
            for tree in enumerate_trees(n):
                high = high_degree_count(tree)
                if high <= 1:
                    stars += 1
                elif high == 2:
                    doubles += 1
            assert stars == star_count(n)
            assert doubles == double_star_count(n)
            assert stars + doubles == qualifying_count(n)

    def test_predicted_cases_against_independent_formula(self):
        for theorem in ("nondeg", "main", "lemmas", "classify"):
            for n_max in (1, 2, 4, 6):
                for k in (2, 3):
                    assert predicted_cases(theorem, n_max, k) == expected_cases(
                        theorem, n_max, k
                    )

    def test_unknown_theorem(self):
        with pytest.raises(ValueError):
            predicted_cases("bogus", 3, 2)

    def test_negative_order_refused(self):
        for n_max in (-1, -10):
            with pytest.raises(ValueError, match=f"n_max must be at least 0, got {n_max}"):
                predicted_cases("main", n_max, 3)
        assert predicted_cases("main", 0, 3) == 0

    def test_order_must_be_an_int(self):
        # negative orders and order 0: test_negative_order_refused
        for n_max in (True, 2.5, "3", None):
            with pytest.raises(ValueError, match=f"n_max must be an int, got {n_max!r}"):
                predicted_cases("main", n_max, 3)

    def test_otter_counts_the_free_trees_through_order_twenty(self):
        assert tuple(verify._free_tree_counts(20)) == A000055
        assert verify._free_tree_counts(0) == []

    def test_value_count_must_be_a_non_negative_int(self):
        for value_count in (-1, -2, 2.5, 3.0, Fraction(3), True, "3", None):
            with pytest.raises(ValueError, match="value_count must be a non-negative int"):
                predicted_cases("nondeg", 3, value_count)
        assert predicted_cases("nondeg", 3, 0) == 0  # no values: only the unlabeled checks
        assert predicted_cases("lemmas", 3, 0) == expected_cases("lemmas", 3, 0)


class TestNondegeneracyTheorem:
    def test_tiny_grid(self):
        report = verify_theorem_nondegeneracy(2, (0, 1))
        assert report.status == "pass"
        assert report.failures == ()
        assert report.cases_checked == 6
        assert report.theorem == "nondeg"
        assert report.parameters == {"max_order": 2, "values": ["0", "1"]}

    def test_order_four_grid(self):
        report = verify_theorem_nondegeneracy(4, (0, 1))
        assert report.status == "pass"
        assert report.cases_checked == 286

    def test_fractional_values(self):
        report = verify_theorem_nondegeneracy(3, (0, "1/2", 2))
        assert report.status == "pass"
        assert report.cases_checked == expected_cases("nondeg", 3, 3)
        assert report.parameters["values"] == ["0", "1/2", "2"]


class TestMainTheorem:
    def test_small_grid(self):
        report = verify_main_theorem(3, (0, 1))
        assert report.status == "pass"
        assert report.cases_checked == expected_cases("main", 3, 2)
        assert report.subchecks == {
            CLAIM_II_IFF_III: "exhaustive",
            CLAIM_WITNESS: "sampled",
            CLAIM_COUNTEREXAMPLE: "certified",
        }
        assert report.subchecks == MAIN_SUBCHECKS

    def test_order_five(self):
        report = verify_main_theorem(5, (0, 1, 2))
        assert report.status == "pass"
        assert report.cases_checked == expected_cases("main", 5, 3)


class TestStructureLemmas:
    def test_order_six(self):
        report = verify_structure_lemmas(6)
        assert report.status == "pass"
        assert report.cases_checked == 1 + 1 + 3 + 16 + 125 + 1296
        assert report.parameters == {"max_order": 6, "values": None}


class TestClassification:
    def test_small_grid(self):
        report = verify_classification(4, (0, 1))
        assert report.status == "pass"
        assert report.cases_checked == expected_cases("classify", 4, 2)


class TestParameterErrors:
    def test_bad_order(self):
        with pytest.raises(ValueError):
            verify_theorem_nondegeneracy(0, (0, 1))

    def test_empty_values(self):
        with pytest.raises(ValueError):
            verify_theorem_nondegeneracy(3, ())

    def test_negative_value(self):
        with pytest.raises(ValueError):
            verify_theorem_nondegeneracy(3, (0, -1))

    @pytest.mark.parametrize(
        "sweep", [verify_theorem_nondegeneracy, verify_main_theorem, verify_classification]
    )
    def test_no_values(self, sweep):
        # a labeled sweep over no value grid would check no labeling and pass
        with pytest.raises(ValueError, match="values must be non-empty"):
            sweep(5, None)

    def test_budget_boundary(self):
        report = verify_theorem_nondegeneracy(2, (0, 1), budget=6)
        assert report.cases_checked == 6
        with pytest.raises(BudgetExceeded):
            verify_theorem_nondegeneracy(2, (0, 1), budget=5)

    def test_default_budget_blocks_order_seven_grid(self):
        with pytest.raises(BudgetExceeded):
            verify_theorem_nondegeneracy(7)

    @pytest.mark.parametrize("n_max", [2000, 100_000])
    def test_budget_refusal_counts_only_to_the_budget(self, n_max):
        # the full count has thousands of digits; orders 1-9 already pass the budget
        with pytest.raises(BudgetExceeded, match="5063362 predicted cases up to order 9 exceed"):
            verify_structure_lemmas(n_max)

    def test_budget_refusal_past_the_printable_digits(self):
        # a budget of 5,001 digits, and a count past it: neither prints in decimal
        want = (
            r"^at least 2\*\*\d+ predicted cases up to order \d+ "
            r"exceed the budget of at least 2\*\*16609;"
        )
        with pytest.raises(BudgetExceeded, match=want):
            verify_structure_lemmas(2000, budget=10**5000)

    def test_jobs_below_one(self):
        for jobs in (0, -3):
            with pytest.raises(ValueError):
                verify_structure_lemmas(3, jobs=jobs)

    def test_negative_budget(self):
        # refused as a usage error before any count; a budget of 0 is refused
        # by the count, as order 1 exceeds it
        with pytest.raises(ValueError, match="budget must be at least 0, got -1"):
            verify_main_theorem(budget=-1)
        with pytest.raises(BudgetExceeded):
            verify_main_theorem(1, budget=0)

    @pytest.mark.parametrize(
        "sweep",
        [verify_theorem_nondegeneracy, verify_main_theorem, verify_structure_lemmas, verify_classification],
    )
    @pytest.mark.parametrize(
        "name, value",
        [("n_max", True), ("n_max", 2.5), ("n_max", "3"), ("jobs", 1.5), ("jobs", True),
         ("budget", 2.5), ("budget", None)],
    )
    def test_order_jobs_and_budget_must_be_ints(self, sweep, name, value):
        # as predicted_cases checks n_max: a bool is no int, and no other
        # type is coerced
        with pytest.raises(ValueError, match=re.escape(f"{name} must be an int, got {value!r}")):
            sweep(**{"n_max": 3, name: value})


class TestParallelExecution:
    def test_jobs_do_not_change_the_report(self, monkeypatch):
        monkeypatch.setattr(verify, "_POOL_MIN_CASES", 0)  # a real pool at order 4
        lone = verify_main_theorem(4, (0, 1, 2), jobs=1)
        pooled = verify_main_theorem(4, (0, 1, 2), jobs=2)
        assert pooled.cases_checked == lone.cases_checked
        assert pooled.failures == lone.failures
        assert pooled.parameters == lone.parameters
        assert pooled.subchecks == lone.subchecks
        assert pooled.status == "pass"

    @staticmethod
    def _recording_pool(monkeypatch, cpus):
        """Stands multiprocessing.Pool in with one that runs the tasks in
        process; returns the list of (processes, chunksize, task orders)."""
        asked = []

        class RecordingPool:
            def __init__(self, processes):
                self.processes = processes

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=None):
                asked.append((self.processes, chunksize, [t["n"] for t in tasks]))
                return [fn(t) for t in tasks]

        monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        return asked

    # lemmas through order 4 split into 5 tasks, one per free tree (1 + 1 + 1 + 2)
    @pytest.mark.parametrize(
        "jobs, cpus, workers",
        [(1, 64, None), (2, 3, 2), (10_000, 3, 3), (10_000, 64, 5), (10_000, None, None)],
    )
    def test_pool_size_is_clamped(self, monkeypatch, jobs, cpus, workers):
        asked = self._recording_pool(monkeypatch, cpus)
        monkeypatch.setattr(verify, "_POOL_MIN_CASES", 0)  # the clamp, not the size rule
        report = verify_structure_lemmas(4, jobs=jobs)
        assert [a[0] for a in asked] == ([] if workers is None else [workers])
        assert report.cases_checked == expected_cases("lemmas", 4, 0)
        for _, chunksize, orders in asked:  # handed out one by one, largest order first
            assert chunksize == 1
            assert orders == sorted(orders, reverse=True)

    def test_chunks_per_order_are_clamped_to_the_processors(self, monkeypatch):
        asked = self._recording_pool(monkeypatch, 2)
        monkeypatch.setattr(verify, "_POOL_MIN_CASES", 0)
        report = verify_structure_lemmas(6, jobs=10**6)
        assert report.cases_checked == expected_cases("lemmas", 6, 0)
        [(workers, _, orders)] = asked
        assert workers == 2
        assert all(orders.count(n) <= 2 for n in range(1, 7))

    def test_chunks_divide_each_orders_classes(self, monkeypatch):
        # one verdict of the order-6 star flipped: the star class fails, and
        # its 6 labeled copies are checked inside the task that holds it
        asked = self._recording_pool(monkeypatch, 2)
        monkeypatch.setattr(verify, "_POOL_MIN_CASES", 0)
        walk, star, forced = verify._labelings, (0,) * 6, (1,) + (0,) * 5

        def flipped(parents, codes, witness, leaf, blocks=()):
            def spy(lab, nondeg, verdict, weight):
                leaf(lab, nondeg, verdict != (tuple(parents) == star and tuple(lab) == forced), weight)

            walk(parents, codes, witness, spy, blocks)

        monkeypatch.setattr(verify, "_labelings", flipped)
        lone = verify_main_theorem(6, (0, 1), jobs=1)
        assert asked == [] and len(lone.failures) == 6
        seen, sweep = [], verify._sweep
        monkeypatch.setattr(verify, "_sweep", lambda task: seen.append(task) or sweep(task))
        pooled = verify_main_theorem(6, (0, 1), jobs=2)
        assert asked == [(2, 1, [task["n"] for task in seen])]  # one map call over every task
        assert pooled.failures == lone.failures
        assert pooled.cases_checked == lone.cases_checked
        for n, found in enumerate(trees._free_trees(6), 1):
            classes = [(key, math.factorial(n) // aut) for key, aut in found.items()]
            chunks = [task["trees"] for task in seen if task["n"] == n]
            assert chunks == verify._deal("main", classes, min(2, len(classes)), 2)
            assert len(chunks) == min(2, len(classes))  # each class walked by one worker
            assert sorted(cls for chunk in chunks for cls in chunk) == sorted(classes)

    @pytest.mark.parametrize("theorem", ["main", "classify", "nondeg", "lemmas"])
    def test_chunks_are_dealt_by_walk_cost(self, theorem):
        walks = [t.holds for c, t, _ in verify._reported(theorem) if c.per_labeling]

        def cost(key):
            walked = any(holds(verify._ClassFacts(key, (), ())) for holds in walks)
            return verify._CLASS_VISITS + (verify._walk_size(key, 3) if walked else 0)

        for n in (6, 10, 12):
            found = trees._free_trees(n)[n - 1]
            classes = [(key, math.factorial(n) // aut) for key, aut in found.items()]
            assert verify._deal(theorem, classes, 1, 3) == [classes]
            # main and classify walk only the star and the double stars
            heavy = {key for key, _ in classes if cost(key) > verify._CLASS_VISITS}
            assert len(heavy) == (len(classes) if theorem == "nondeg" else 0 if theorem == "lemmas" else n // 2)
            for chunks in (2, 3):
                parts = verify._deal(theorem, classes, chunks, 3)
                assert len(parts) == chunks
                assert sorted(c for part in parts for c in part) == sorted(classes)
                # greedy to the cheapest part: parts differ by at most one class's cost
                loads = [sum(cost(key) for key, _ in part) for part in parts]
                assert max(loads) - min(loads) <= max(cost(key) for key, _ in classes)
                assert all(heavy & dict(part).keys() for part in parts) or len(heavy) < chunks

    def test_small_sweeps_run_in_process(self, monkeypatch):
        # the top order's predicted cases on three values: 875,509,120 at
        # order 10 of main, 9,686,789,288 at order 11
        asked = self._recording_pool(monkeypatch, 2)
        small = verify_main_theorem(10, jobs=2, budget=10**9)
        assert asked == []
        assert small.cases_checked == expected_cases("main", 10, 3)
        verify_main_theorem(11, jobs=2, budget=10**11)
        assert [a[0] for a in asked] == [2]


class TestCodedCore:
    def test_prufer_rank_matches_product_order(self):
        seqs = list(itertools.product(range(5), repeat=3))
        for rank, seq in enumerate(seqs):
            assert _rank_edges(5, rank) == _prufer_edges(seq, 5)

    def test_code_assignment(self):
        # zero is code 0 whether or not the grid holds it; the rest in sorted order
        assert _grid((0, 1, 2)) == ([0, 1, 2], (0, 1, 2))
        assert _grid((3, 1)) == ([0, 1, 3], (1, 2))
        assert _grid((7, "1/2", 0, 7)) == ([0, Fraction(1, 2), 7], (0, 1, 2))
        values, codes = _value_codes([Fraction(5), Fraction(0), Fraction(5), Fraction(2)])
        assert values == [0, 2, 5] and codes == [2, 0, 2, 1]
        assert _value_codes([]) == ([0], [])
        # equal values of different objects share a code; 4/2 is 2 in lowest terms
        values, codes = _value_codes([Fraction(4, 2), Fraction(1, 3), Fraction("2"), Fraction(2, 6)])
        assert values == [0, Fraction(1, 3), 2] and codes == [2, 1, 2, 1]

    @given(
        st.lists(st.fractions(min_value=0, max_value=50, max_denominator=4))
        | st.lists(st.integers(0, 99).map(Fraction))  # integers sort as pairs
        # wide numerators and denominators: floors, remainders and float ties
        | st.lists(st.builds(Fraction, st.integers(0, 10**45), st.integers(1, 10**45)))
    )
    def test_value_codes_rank_the_sorted_distinct_values(self, fracs):
        values, codes = _value_codes(fracs)
        assert values == sorted({Fraction(0), *fracs})
        assert all(type(q) is Fraction for q in values)
        assert [values[c] for c in codes] == fracs

    def test_value_codes_order_float_ties_and_values_past_float_range(self):
        tie = [Fraction(3 * 10**39 + 1, 10**40), Fraction(3 * 10**39, 10**40)]
        assert float(tie[0]) == float(tie[1])
        huge = [Fraction(10**400, 3), Fraction(10**400, 7), Fraction(10**400 + 1, 7), Fraction(1, 2)]
        for fracs in (tie, huge, tie + huge, [*reversed(huge), *tie, Fraction(3, 10)]):
            values, codes = _value_codes(fracs)
            assert values == sorted({Fraction(0), *fracs})
            assert [values[c] for c in codes] == fracs

    def _agreement_on(self, n, values):
        vals, codes = _grid(values)
        names = tuple(f"v{i + 1}" for i in range(n))
        for rank in range(cayley(n)):
            edges = _rank_edges(n, rank)
            adj = _index_adjacency(n, edges)
            pairs = pair_paths(n, adj)
            tree = validate_tree(names, [(names[a], names[b]) for a, b in edges])
            for coded in itertools.product(range(len(codes)), repeat=n):
                lab = tuple(codes[i] for i in coded)
                lt = labeled(tree, tuple(vals[c] for c in lab))
                d = coded_matrix(n, pairs, lab)
                viol = _first_offender(d)
                points, rows = raw_distance_matrix(lt)
                try:
                    validate_ultrametric(points, rows)
                    valid = True
                except (
                    PositivityViolation,
                    SymmetryViolation,
                    StrongTriangleViolation,
                ):
                    valid = False
                assert (viol is None) == valid
                assert (viol is None) == is_nondegenerate(lt)
                if valid:
                    space = validate_ultrametric(points, rows)
                    assert (_witness_index(d, _row_minima(d)) is not None) == (brute_witness(space) is not None)

    def test_coded_run_decides_the_same_predicates(self):
        # identity coding, then a coding where values and codes differ
        self._agreement_on(4, (0, 1, 2))
        self._agreement_on(3, (0, "1/2", 7))
        self._agreement_on(3, (1, 3))


def _walk_tree(adj, codes, witness, leaf):
    """_labelings on the tree with adjacency ``adj``: the walk runs on its
    breadth-first positions from vertex 0, and ``leaf`` gets each labeling
    by vertex."""
    n = len(adj)
    parent, order = _bfs_parents(n, adj, 0)
    at = {v: k for k, v in enumerate(order)}

    def by_vertex(lab, nondeg, verdict, weight):
        leaf([lab[at[v]] for v in range(n)], nondeg, verdict, weight)

    _labelings([at[parent[v]] for v in order], codes, witness, by_vertex)


def _walk_verdicts(adj, codes, witness):
    verdicts = {}

    def leaf(lab, nondeg, verdict, weight):
        verdicts[tuple(lab)] = (nondeg, verdict)

    _walk_tree(adj, codes, witness, leaf)
    return verdicts


class TestLabelingWalk:
    """The prefix-sharing walk against the full-matrix oracles, labeling by
    labeling: non-degeneracy, the axiom scan and the literal witness scan."""

    def _check(self, tree, adj, vals, labs, axioms, witness):
        n = tree.order
        pairs = pair_paths(n, adj)
        for lab in labs:
            lt = labeled(tree, tuple(vals[c] for c in lab))
            nondeg = is_nondegenerate(lt)
            d = coded_matrix(n, pairs, lab)
            valid = _first_offender(d) is None
            assert axioms[lab] == (nondeg, valid)
            has_witness = (
                nondeg and brute_witness(space_of(tree.vertices, d)) is not None
            )
            assert witness[lab] == (nondeg, has_witness)

    @pytest.mark.parametrize("values", [(0, 1, 2), (1, 3), (0, "1/2", 7)])
    def test_every_labeling_up_to_order_five(self, values):
        vals, codes = _grid(values)
        for n in range(1, 6):
            names = tuple(f"v{i + 1}" for i in range(n))
            for rank in range(cayley(n)):
                edges = _rank_edges(n, rank)
                adj = _index_adjacency(n, edges)
                tree = validate_tree(names, [(names[a], names[b]) for a, b in edges])
                axioms = _walk_verdicts(adj, codes, False)
                witness = _walk_verdicts(adj, codes, True)
                labs = list(itertools.product(codes, repeat=n))
                assert len(axioms) == len(witness) == len(labs)
                self._check(tree, adj, vals, labs, axioms, witness)

    @settings(max_examples=40)
    @given(
        random_trees(min_order=7, max_order=8),
        st.sampled_from([(0, 1, 2), (1, 2, 3), (0, "1/3", 5), (0, 4)]),
        st.data(),
    )
    def test_random_labelings_of_larger_trees(self, tree, values, data):
        n = tree.order
        adj = index_adjacency(tree)
        vals, codes = _grid(values)
        labs = data.draw(
            st.lists(st.tuples(*[st.sampled_from(codes)] * n), min_size=1, max_size=10)
        )
        axioms = _walk_verdicts(adj, codes, False)
        witness = _walk_verdicts(adj, codes, True)
        assert len(axioms) == len(witness) == len(codes) ** n
        self._check(tree, adj, vals, labs, axioms, witness)

    def test_forced_mismatch_names_the_full_scan_offender(self, monkeypatch):
        """Flip the verdict on labeling (0, 0, 1) by position of the order-3
        path's class key, the path rooted at its middle vertex, which all
        three labeled trees of order 3 share. A forced flip must hit an
        orbit representative, because the class pass walks only those: the
        path's two ends are sibling leaves, and (0, 0, 1) gives them rising
        codes."""
        forced, path_key = (0, 0, 1), (0, 0, 0)
        walk = verify._labelings

        def flipped(parents, codes, witness, leaf, blocks=()):
            def spy(lab, nondeg, verdict, weight):
                if tuple(parents) == path_key and tuple(lab) == forced:
                    verdict = not verdict
                leaf(lab, nondeg, verdict, weight)

            walk(parents, codes, witness, spy, blocks)

        monkeypatch.setattr(verify, "_labelings", flipped)
        report = verify_theorem_nondegeneracy(3, (0, 1))
        assert report.cases_checked == expected_cases("nondeg", 3, 2)
        names = ("v1", "v2", "v3")
        star = validate_tree(names, [("v1", "v2"), ("v1", "v3")])
        far_path = validate_tree(names, [("v1", "v3"), ("v3", "v2")])
        assert [cert.tree for cert in report.failures] == [star, path_tree(3), far_path]
        for cert, near in zip(report.failures, ("v2", "v2", "v3")):
            # v1 and a neighbour take the two zeros, each tree by its own vertices
            assert cert.labeling == {v: int(v not in ("v1", near)) for v in names}
            lab = tuple(int(cert.labeling[v]) for v in names)
            pairs = pair_paths(3, index_adjacency(cert.tree))
            first = _first_offender(coded_matrix(3, pairs, lab))
            assert first == ("positivity", (0, names.index(near)))
            assert cert.claim_violated == CLAIM_VALID_IFF_NONDEG
            assert cert.evidence["violation"] == {"axiom": first[0], "points": ["v1", near]}
            assert cert.evidence["nondegenerate"] is False
            assert cert.evidence["matrix_valid"] is False


def _direct_walk(adj, codes, witness):
    """(cases, failing labelings) as a copy's walk reports them, from a walk
    on the tree itself."""
    cases, bad = 0, []

    def leaf(lab, nondeg, verdict, weight):
        nonlocal cases
        cases += weight
        if (nondeg and not verdict) if witness else verdict != nondeg:
            bad.append(lab)

    _walk_tree(adj, codes, witness, leaf)
    return cases, bad


def _counted_walks(mp):
    """Stands verify._labelings in with a walk that records the order of
    each tree it walks; returns the list of orders."""
    walked = []
    walk = verify._labelings

    def counting(parents, codes, witness, leaf, blocks=()):
        walked.append(len(parents))
        walk(parents, codes, witness, leaf, blocks)

    mp.setattr(verify, "_labelings", counting)
    return walked


class TestCopyWalks:
    """A failing class's full walk, taken once per mode and read through
    each labeled copy's names, against a walk on the copy itself. Long trees
    are included: their labelings without a witness give the witness mode
    failures to map."""

    @pytest.mark.parametrize("values", [(0, 1, 2), (1, 3), (0, "1/2", 7)])
    def test_every_tree_up_to_order_five(self, values, monkeypatch):
        by_code, codes = _grid(values)
        walked = _counted_walks(monkeypatch)
        copies = mapped = 0
        for n, found in enumerate(trees._free_trees(5), 1):
            for key, aut in found.items():
                cls = verify._ClassFacts(key, by_code, codes)
                for facts in cls.copies(math.factorial(n) // aut):
                    copies += 1
                    for witness in (False, True):
                        cases, bad = facts.walk(witness)
                        want_cases, want_bad = _direct_walk(facts.adj, codes, witness)
                        assert cases == want_cases == len(codes) ** n
                        assert sorted(bad) == sorted(want_bad)
                        mapped += len(bad)
        assert copies == sum(cayley(n) for n in range(1, 6))
        # one full walk per free tree (1, 1, 1, 2, 3 by order) and mode
        assert len(walked) == 2 * 8
        assert mapped > 0

    # no shrink phase: shrinking a failure of this test takes minutes
    @settings(max_examples=30, phases=[Phase.explicit, Phase.reuse, Phase.generate])
    @given(random_trees(min_order=7, max_order=8), st.randoms(use_true_random=False))
    def test_random_trees_of_orders_seven_and_eight(self, tree, rnd):
        n = tree.order
        adj = index_adjacency(tree)
        new = list(range(n))
        rnd.shuffle(new)
        copy = [None] * n  # the tree with vertex v renamed new[v]
        for v in range(n):
            copy[new[v]] = [new[u] for u in adj[v]]
        codes = _grid((0, 1, 2))[1]
        witness = rnd.random() < 0.5
        walks = {}  # the class's full walks, shared by its copies
        with pytest.MonkeyPatch.context() as mp:
            walked = _counted_walks(mp)
            for each in (adj, copy):  # two copies of one class
                edges = [(v, u) for v in range(n) for u in each[v] if v < u]
                facts = verify._Facts(n, edges, (), codes)
                facts.key, facts.at = copy_names(n, edges)  # as _copies names it
                facts.walks = walks
                assert set(map(frozenset, facts.edges)) == set(map(frozenset, edges))
                cases, bad = facts.walk(witness)
                want = _direct_walk(each, codes, witness)
                assert cases == want[0] == 3**n
                assert sorted(bad) == sorted(want[1])
        assert walked == [n]

    def test_one_walk_per_class_and_call(self, monkeypatch):
        walked = _counted_walks(monkeypatch)
        for _ in range(2):
            walked.clear()
            report = verify_theorem_nondegeneracy(5, (0, 1))
            assert report.cases_checked == expected_cases("nondeg", 5, 2)
            # free trees by order: 1, 1, 1, 2, 3 (OEIS A000055)
            assert len(walked) == 1 + 1 + 1 + 2 + 3 == 8


def _tally(key, codes, witness, blocks):
    """(weight by (nondeg, verdict), failing labelings, visits) of one walk of ``key``."""
    tally, bad, visits = collections.Counter(), set(), 0

    def leaf(lab, nondeg, verdict, weight):
        nonlocal visits
        visits += 1
        tally[nondeg, verdict] += weight
        if (nondeg and not verdict) if witness else verdict != nondeg:
            bad.add(tuple(lab))

    _labelings(key, codes, witness, leaf, blocks)
    return tally, bad, visits


def _stars_and_double_stars(n_max):
    """(class key, leaves on each center) of every star and double star of
    orders 1..n_max; the edge of order 2 counts as two centers without leaves."""
    for n in range(1, n_max + 1):
        shapes = [([(0, v) for v in range(1, n)], (0, 0) if n == 2 else (n - 1,))]  # the star
        for b in range(1, (n - 2) // 2 + 1):  # b leaves on the second center
            leaves = [(0, v) for v in range(2, n - b)] + [(1, v) for v in range(n - b, n)]
            shapes.append(([(0, 1), *leaves], (n - 2 - b, b)))
        for edges, leaves in shapes:
            yield canonical(_index_adjacency(n, edges))[0], leaves


class TestOrbitWalk:
    """Class sweeps walk one labeling per orbit of Aut T, counted with the
    orbit's size, against networkx's automorphisms, the full walk and the
    full-matrix oracles."""

    def test_blocks_swap_into_automorphisms_that_generate_aut_t(self):
        pytest.importorskip("networkx")
        for n, found in enumerate(trees._free_trees(8), 1):
            for key, aut in found.items():
                auts = set(automorphisms(key))
                blocks = verify._sibling_blocks(key)
                for s, size, j in blocks:  # the block and the one before it, swapped
                    swap = list(range(n))
                    for k in range(s, s + size):
                        swap[k], swap[k - size] = k - size, k
                    assert tuple(swap) in auts
                # a run of m blocks swaps in m! ways, the halves in 2
                assert math.prod(j for _, _, j in blocks) == len(auts) == aut
                # leaves that share a parent are blocks of size 1
                single = {s for s, size, _ in blocks if size == 1}
                for v in range(n):
                    leaves = [k for k in range(1, n) if key[k] == v and k not in key[k + 1:]]
                    assert set(leaves[1:]) <= single

    @pytest.mark.parametrize("values", [(0, 1, 2), (1, 3), (0, "1/2", 7, 9)])
    def test_weighted_tallies_match_the_full_walk_through_order_eight(self, values):
        pytest.importorskip("networkx")
        codes = _grid(values)[1]
        for found in trees._free_trees(8):
            for key in found:
                auts = automorphisms(key)
                blocks = verify._sibling_blocks(key)
                for witness in (False, True):
                    full, full_bad, _ = _tally(key, codes, witness, ())
                    orbits, reps, visits = _tally(key, codes, witness, blocks)
                    assert visits == orbit_count(auts, len(codes))
                    assert orbits == full
                    assert sum(full.values()) == len(codes) ** len(key)
                    # each failing orbit has one failing representative, and no other
                    assert reps <= full_bad
                    while full_bad:
                        failing = orbit(full_bad.pop(), auts)
                        assert len(failing & reps) == 1
                        full_bad -= failing

    def test_one_leaf_per_orbit_on_wide_blocks_at_orders_nine_and_ten(self):
        """Past the tallies' order 8, on every class key whose blocks
        include one of two or more positions, the only blocks the walk
        compares as slices: the leaves fall in distinct orbits that cover
        the grid, each leaf weighted with its orbit's size."""
        pytest.importorskip("networkx")
        found = trees._free_trees(10)
        for n, want in ((9, 17), (10, 40)):
            keys = [key for key in found[n - 1]
                    if any(size > 1 for _, size, _ in verify._sibling_blocks(key))]
            assert len(keys) == want
            for key in keys:
                auts, seen = automorphisms(key), set()

                def leaf(lab, nondeg, verdict, weight):
                    lab = tuple(lab)
                    assert lab not in seen, (key, lab)
                    same = orbit(lab, auts)
                    assert weight == len(same), (key, lab)
                    seen.update(same)

                _labelings(key, (0, 1), True, leaf, verify._sibling_blocks(key))
                assert len(seen) == 2**n

    @pytest.mark.parametrize("codes", [(0, 1, 2), (1, 2, 3, 4), (0, 256, 300)])
    def test_each_leaf_matches_the_full_matrix_oracles_through_order_seven(self, codes):
        """The orbit walk's own verdicts, labeling by labeling, against the
        full-matrix oracles, on byte rows and on list rows. Without a zero no
        labeling is degenerate, so every prefix builds rows, and each code
        after the first at or below the parent row's minimum reuses its row."""
        for n, found in enumerate(trees._free_trees(7), 1):
            for key in found:
                pairs = pair_paths(n, _index_adjacency(n, list(zip(key[1:], range(1, n)))))
                oracle = {}
                for witness in (False, True):
                    visits = 0

                    def leaf(lab, nondeg, verdict, weight):
                        nonlocal visits
                        visits += 1
                        lab = tuple(lab)
                        if lab not in oracle:
                            d = coded_matrix(n, pairs, lab)
                            nd = all(lab[k] or lab[key[k]] for k in range(1, n))
                            star = brute_witness(SimpleNamespace(size=n, dist=d, points=range(n)))
                            oracle[lab] = nd, _first_offender(d) is None, nd and star is not None
                        nd, valid, has_witness = oracle[lab]
                        assert (nondeg, verdict) == (nd, has_witness if witness else valid), (key, lab)

                    _labelings(key, codes, witness, leaf, verify._sibling_blocks(key))
                    assert visits == verify._orbit_count(key, len(codes))

    def test_orbit_count_is_burnsides_and_the_walks(self):
        pytest.importorskip("networkx")
        for found in trees._free_trees(8):
            for key in found:
                auts = automorphisms(key)
                for q in (1, 2, 3, 4):
                    assert verify._orbit_count(key, q) == orbit_count(auts, q)
                codes = _grid((0, 1, 2))[1]
                assert verify._orbit_count(key, 3) == _tally(key, codes, True, verify._sibling_blocks(key))[2]
                # every prefix a walk visits is counted, the last ones being its leaves
                assert verify._walk_size(key, 3) >= verify._orbit_count(key, 3)

    def test_weights_sum_to_the_grid_on_stars_and_double_stars_through_order_fourteen(self):
        codes = _grid((0, 1, 2))[1]
        keys = list(_stars_and_double_stars(14))
        assert len(set(keys)) == len(keys) == 14 + sum((n - 2) // 2 for n in range(4, 15))
        for key, leaves in keys:
            total, visits = 0, 0

            def leaf(lab, nondeg, verdict, weight):
                nonlocal total, visits
                total, visits = total + weight, visits + 1

            _labelings(key, codes, False, leaf, verify._sibling_blocks(key))
            assert total == 3 ** len(key)
            # a center's code times a multiset of codes on its leaves, for each
            # center; equal halves of a double star (H-shaped) swap, so their
            # labelings pair up unordered
            halves = [3 * math.comb(m + 2, 2) for m in leaves]
            if len(leaves) == 2 and leaves[0] == leaves[1]:
                assert visits == halves[0] * (halves[0] + 1) // 2
            else:
                assert visits == math.prod(halves)

    def test_malformed_groups_trip_the_gate(self, monkeypatch):
        # every block listed twice counts its orbit's growth twice over: the
        # weights no longer sum
        real = verify._sibling_blocks
        monkeypatch.setattr(verify, "_sibling_blocks", lambda key: real(key) * 2)
        codes = _grid((0, 1, 2))[1]
        with pytest.raises(RuntimeError, match="at order 4: .* walked labelings, predicted 81"):
            verify._class_walk((0, 0, 0, 0), codes, True, orbits=True)
        with pytest.raises(RuntimeError, match="at order 5: .* walked labelings, predicted 243"):
            verify_main_theorem(5)

    def test_a_well_formed_wrong_group_passes_the_gate_but_not_the_tallies(self, monkeypatch):
        # the star's center as the first of its leaves' run, each leaf in its
        # place after it: the multinomials still sum to |codes|^n, so only
        # the tallies tell
        key, codes = (0, 0, 0, 0), _grid((0, 1, 2))[1]
        wrong = [(1, 1, 2), (2, 1, 3), (3, 1, 4)]
        monkeypatch.setattr(verify, "_sibling_blocks", lambda key: wrong)
        assert verify._class_walk(key, codes, True, orbits=True)[0] == 81
        assert _tally(key, codes, True, wrong)[0] != _tally(key, codes, True, ())[0]


def _stream(key, codes, witness, blocks=()):
    """Every leaf call of one walk of ``key``: (labeling, nondeg, verdict, weight)."""
    calls = []
    _labelings(key, codes, witness, lambda lab, *rest: calls.append((tuple(lab), *rest)), blocks)
    return calls


class TestRowTypes:
    """The walk keeps byte rows while every code is below 256 and list rows
    from code 256 on; both decide alike. The walk reads codes only by order,
    so any grid of the same length and zero gives the same verdicts."""

    @pytest.mark.parametrize("top", [255, 256, 257, 300])
    def test_wide_codes_walk_as_small_ones_through_order_six(self, top, monkeypatch):
        lifts = []
        real = spaces._lift
        monkeypatch.setattr(spaces, "_lift", lambda row, c: lifts.append(c) or real(row, c))
        grids = [((0, 1, 2, 3), (0, 1, top - 1, top)), ((1, 2, 3), (1, top - 1, top))]
        for small, wide in grids:
            recode = dict(zip(small, wide))
            for found in trees._free_trees(6):
                for key in found:
                    for witness, blocks in itertools.product((False, True), ((), verify._sibling_blocks(key))):
                        want = [
                            (tuple(map(recode.__getitem__, lab)), *rest)
                            for lab, *rest in _stream(key, small, witness, blocks)
                        ]
                        assert _stream(key, wide, witness, blocks) == want
        # list rows, lifted by spaces._lift (spaces._row_kind), exactly past code 255
        assert bool(lifts) == (top >= 256)

    @pytest.mark.parametrize("count", [255, 256, 257, 300])
    def test_sweeps_over_wide_grids_through_order_two(self, count):
        report = verify_theorem_nondegeneracy(2, range(count))
        assert report.status == "pass"
        assert report.cases_checked == predicted_cases("nondeg", 2, count) == count + count**2
        report = verify_main_theorem(2, range(1, count + 1))  # no zero: codes 1..count
        assert report.status == "pass"
        assert report.cases_checked == predicted_cases("main", 2, count)

    def test_three_hundred_codes_tally_by_the_one_degenerate_labeling(self):
        """The list walk's tallies over 300 codes on the order-2 key: only
        both codes zero is degenerate, and every other labeling is valid and
        has a witness."""
        for witness in (False, True):
            tally, bad, _ = _tally((0, 0), tuple(range(300)), witness, ())
            assert not bad
            assert tally == {(False, False): 1, (True, True): 300**2 - 1}


def _class_tasks(theorem, n, values):
    """The class sweep's tasks of order n, one class each."""
    return [
        {"theorem": theorem, "n": n, "trees": [(key, math.factorial(n) // aut)], "values": values}
        for key, aut in trees._free_trees(n)[n - 1].items()
    ]


class TestClassSweep:
    """Each order swept once per free tree, each case weighted by the
    class's labeled trees, against the reference sweep by Prufer rank."""

    @pytest.mark.parametrize("values", [(0, 1, 2), (1, 3)])
    @pytest.mark.parametrize("theorem", ["nondeg", "main", "lemmas", "classify"])
    def test_matches_the_rank_sweep_through_order_seven(self, theorem, values):
        vals = tuple(map(Fraction, values)) if theorem != "lemmas" else None
        for n in range(1, 8):
            parts = [verify._sweep(task) for task in _class_tasks(theorem, n, vals)]
            ranks = reference_sweep(theorem, n, vals)
            assert (sum(p[0] for p in parts), [c for p in parts for c in p[1]]) == ranks
            assert not any(p[1] for p in parts)  # no failing class

    def test_thirds_are_the_third_vertices_of_every_longest_path(self):
        chosen = collections.defaultdict(set)  # each labeled tree's third, by key position
        for n in range(1, 8):
            for rank in range(cayley(n)):
                facts = RankFacts(n, rank)
                if facts.far[2] < 4:
                    assert facts.thirds == []
                    with pytest.raises(NoLongPath):
                        counterexample_labeling(facts.tree)
                    continue
                (third,) = facts.thirds
                labels = counterexample_labeling(facts.tree).labels
                assert [v for v, q in labels.items() if q == 3] == [facts.names[third]]
                key, at, _ = canonical(facts.adj)
                chosen[key].add(at[third])
        assert len(chosen) == 1 + 3 + 8  # long free trees of orders 5, 6 and 7
        for key, some in chosen.items():
            facts = verify._ClassFacts(key, (), ())
            # every longest path, read from each end, by the pairs' own searches
            paths = [path for _, _, path in pair_paths(facts.n, facts.adj)]
            longest = [path for path in paths if len(path) == max(map(len, paths))]
            assert facts.thirds == sorted({path[k] for path in longest for k in (2, -3)})
            assert some <= set(facts.thirds)

    @staticmethod
    def _named_copies(monkeypatch):
        """Stands verify._copies in with one that records each (key, names)
        it yields; returns the list."""
        named, real = [], verify._copies

        def spy(key):
            for names in real(key):
                named.append((key, names))
                yield names

        monkeypatch.setattr(verify, "_copies", spy)
        return named

    def test_passing_run_expands_no_copy(self, monkeypatch):
        named = self._named_copies(monkeypatch)
        assert verify_main_theorem(6).status == "pass"
        assert verify_structure_lemmas(8).status == "pass"
        assert verify_theorem_nondegeneracy(5, (0, 1)).status == "pass"
        assert named == []

    def test_forced_witness_expands_the_paths_copies(self, monkeypatch):
        # every counterexample space witnessed: of orders 1-5 only the path
        # of order 5 is long, and each of its 5!/2 copies fails
        named = self._named_copies(monkeypatch)
        monkeypatch.setattr(verify, "_witness_index", lambda d, colmin: 0)
        report = verify_main_theorem(5, (0, 1))
        assert len(set(named)) == len(named) == 60
        assert {key for key, _ in named} == {canonical(index_adjacency(path_tree(5)))[0]}
        assert len({cert.evidence["tree_index"] for cert in report.failures}) == 60
        assert {cert.evidence["order"] for cert in report.failures} == {5}
        assert all(brute_longest_path(cert.tree) == 4 for cert in report.failures)

    @staticmethod
    def _patch_order(monkeypatch, n, change):
        """verify._free_trees with order n's classes replaced by ``change`` of them."""
        real = trees._free_trees

        def patched(n_max):
            found = real(n_max)
            found[n - 1] = change(found[n - 1])
            return found

        monkeypatch.setattr(verify, "_free_trees", patched)

    def test_missing_class_fails_at_its_order(self, monkeypatch):
        self._patch_order(monkeypatch, 5, lambda keys: dict(list(keys.items())[1:]))
        with pytest.raises(RuntimeError, match="at order 5: 2 free trees, predicted 3"):
            verify_structure_lemmas(6)

    def test_wrong_weight_fails_at_its_order(self, monkeypatch):
        self._patch_order(monkeypatch, 4, lambda keys: {key: 2 * aut for key, aut in keys.items()})
        with pytest.raises(RuntimeError, match="at order 4: 8 labeled trees, predicted 16"):
            verify_structure_lemmas(4)

    def test_cases_are_gated_per_order(self, monkeypatch):
        # one case moved from order 2 to order 3 keeps the total
        real = verify._cases_by_order

        def moved(theorem, value_count):
            cases = list(itertools.islice(real(theorem, value_count), 3))
            return iter([cases[0], cases[1] + 1, cases[2] - 1])

        monkeypatch.setattr(verify, "_cases_by_order", moved)
        with pytest.raises(RuntimeError, match="at order 2: 1 cases, predicted 2"):
            verify_structure_lemmas(3)


class TestLongestPathSearches:
    def test_diameter_two_searches_and_the_path_one_more(self, monkeypatch):
        calls = []

        def counting(n, adj, src):
            calls.append(src)
            return _bfs_parents(n, adj, src)

        for module in (trees, labelings, verify):  # wherever a search may be bound
            if hasattr(module, "_bfs_parents"):
                monkeypatch.setattr(module, "_bfs_parents", counting)
        long_trees = 0
        for n in range(1, 7):
            for rank in range(cayley(n)):
                calls.clear()
                facts = RankFacts(n, rank)
                if verify._LONG.holds(facts):  # reads the diameter
                    assert len(calls) == 2
                    assert len(facts.thirds) == 1
                    assert len(calls) == 3
                    long_trees += 1
                else:
                    assert len(calls) == 2
        assert long_trees == sum(cayley(n) - qualifying_count(n) for n in range(1, 7))
        # a class record: both counterexample claims read the one third search
        applicable = verify._CLAIMS[CLAIM_CE_APPLICABLE].check
        long_classes = 0
        for keys in trees._free_trees(7):
            for key in keys:
                calls.clear()
                facts = verify._ClassFacts(key, (), ())
                if verify._LONG.holds(facts):
                    assert len(calls) == 2
                    assert applicable(facts) == _check_counterexample(facts) == []
                    assert len(calls) == 3
                    long_classes += 1
                else:
                    assert len(calls) == 2
        assert long_classes == 1 + 3 + 8


class TestCodedCounterexample:
    def _long_trees(self):
        for n in range(1, 7):
            names = tuple(f"v{i + 1}" for i in range(n))
            for rank in range(cayley(n)):
                edges = _rank_edges(n, rank)
                tree = validate_tree(names, [(names[a], names[b]) for a, b in edges])
                if brute_longest_path(tree) > 3:
                    yield RankFacts(n, rank), tree

    def test_verdict_matches_the_fraction_space(self):
        checked = 0
        for facts, tree in self._long_trees():
            lt = brute_counterexample(tree)
            assert (_check_counterexample(facts) == []) == (
                us_witness(build_ultrametric(lt)) is None
            )
            checked += 1
        assert checked == sum(cayley(n) - qualifying_count(n) for n in range(1, 7))

    def test_coded_pattern_is_the_labeling(self, monkeypatch):
        # report every tree as witnessed, so each failure carries its labeling
        monkeypatch.setattr(verify, "_witness_index", lambda d, colmin: 0)
        for facts, tree in self._long_trees():
            (cert,) = _check_counterexample(facts)
            assert cert.claim_violated == CLAIM_COUNTEREXAMPLE
            assert cert.tree == tree
            assert cert.evidence == {"witness": "v1", "order": facts.n, "tree_index": facts.rank}
            assert cert.labeling == brute_counterexample(tree).labels
            assert all(type(q) is Fraction for q in cert.labeling.values())


class TestCertificates:
    def _p5(self):
        return path_tree(5)

    def test_fail_builds_the_certificate(self):
        # codes map to the grid's values, with or without zero in the grid
        for grid, top in (((0, 1, 2), 2), ((1, 3), 3)):
            facts = RankFacts(5, 0, *_grid(grid))
            cert = facts.fail(CLAIM_WITNESS, {"witness": None}, (1, 1, 2, 1, 1))
            assert cert.tree == RankFacts(5, 0).tree and cert.tree.order == 5
            assert cert.labeling == {
                "v1": 1, "v2": 1, "v3": top, "v4": 1, "v5": 1,
            }
            assert cert.evidence == {"witness": None, "order": 5, "tree_index": 0}
            assert cert.claim_violated == CLAIM_WITNESS

    def test_replay_witness_claim(self):
        flat = Certificate(
            tree=star_tree(4),
            labeling={v: Fraction(1) for v in star_tree(4).vertices},
            claim_violated=CLAIM_WITNESS,
            evidence={},
        )
        assert replay_certificate(flat) is False
        two_level = Certificate(
            tree=self._p5(),
            labeling=dict(counterexample_labeling(self._p5()).labels),
            claim_violated=CLAIM_WITNESS,
            evidence={},
        )
        assert replay_certificate(two_level) is True

    def test_replay_counterexample_claim(self):
        honest = Certificate(
            tree=self._p5(),
            labeling=dict(counterexample_labeling(self._p5()).labels),
            claim_violated=CLAIM_COUNTEREXAMPLE,
            evidence={},
        )
        assert replay_certificate(honest) is False
        constant = Certificate(
            tree=self._p5(),
            labeling={v: Fraction(1) for v in self._p5().vertices},
            claim_violated=CLAIM_COUNTEREXAMPLE,
            evidence={},
        )
        assert replay_certificate(constant) is True

    def test_replay_validity_claim(self):
        for values in ((0, 0), (0, 1)):
            cert = Certificate(
                tree=path_tree(2),
                labeling=dict(zip(("v1", "v2"), map(Fraction, values))),
                claim_violated=CLAIM_VALID_IFF_NONDEG,
                evidence={},
            )
            assert replay_certificate(cert) is False

    def test_replay_structural_claims_hold(self):
        trees = [tree for n in range(1, 6) for tree in enumerate_trees(n)]
        assert len(trees) == 146
        for claim in (
            CLAIM_II_IFF_III,
            CLAIM_ADJACENT,
            CLAIM_AT_MOST_TWO,
            CLAIM_CE_INAPPLICABLE,
            CLAIM_CE_APPLICABLE,
            CLAIM_CLASS_STRUCTURE,
        ):
            for tree in trees:
                cert = Certificate(
                    tree=tree, labeling=None, claim_violated=claim, evidence={}
                )
                assert replay_certificate(cert) is False

    def test_replay_reproduces_counterexample_applicability(self, monkeypatch):
        # no third: too short for the pattern on every tree
        monkeypatch.setattr(verify, "_thirds", lambda adj, far, names=None: [])
        for claim, tree, reproduces in (
            (CLAIM_CE_APPLICABLE, self._p5(), True),
            (CLAIM_CE_INAPPLICABLE, star_tree(4), False),
        ):
            cert = Certificate(tree=tree, labeling=None, claim_violated=claim, evidence={})
            assert replay_certificate(cert) is reproduces
        # a third on every tree
        monkeypatch.setattr(verify, "_thirds", lambda adj, far, names=None: [0])
        for claim, tree, reproduces in (
            (CLAIM_CE_INAPPLICABLE, star_tree(4), True),
            (CLAIM_CE_APPLICABLE, self._p5(), False),
        ):
            cert = Certificate(tree=tree, labeling=None, claim_violated=claim, evidence={})
            assert replay_certificate(cert) is reproduces

    def test_replay_needs_labeling_for_labeled_claims(self):
        cert = Certificate(
            tree=self._p5(),
            labeling=None,
            claim_violated=CLAIM_WITNESS,
            evidence={},
        )
        with pytest.raises(ValueError):
            replay_certificate(cert)

    def test_replay_unknown_claim(self):
        cert = Certificate(
            tree=self._p5(), labeling=None, claim_violated="nope", evidence={}
        )
        with pytest.raises(ValueError):
            replay_certificate(cert)

    def test_certificate_wire_round_trip(self):
        cert = Certificate(
            tree=self._p5(),
            labeling=dict(counterexample_labeling(self._p5()).labels),
            claim_violated=CLAIM_COUNTEREXAMPLE,
            evidence={"witness": "v1", "order": 5},
        )
        again = certificate_from_dict(certificate_to_dict(cert))
        assert again.tree == cert.tree
        assert again.labeling == dict(cert.labeling)
        assert again.claim_violated == cert.claim_violated
        assert again.evidence == cert.evidence

    @pytest.mark.parametrize(
        "obj",
        [
            [],
            {},
            {"tree": {"vertices": ["a"], "edges": []}, "labeling": ["1"],
             "claim_violated": CLAIM_WITNESS},
            {"tree": {"vertices": ["a"], "edges": []}, "labeling": None,
             "claim_violated": CLAIM_WITNESS, "evidence": 5},
        ],
        ids=["list", "empty", "list-labeling", "int-evidence"],
    )
    def test_malformed_certificate_is_a_parse_error(self, obj):
        with pytest.raises(ParseError):
            certificate_from_dict(obj)

    def test_unlabeled_certificate_wire_round_trip(self):
        cert = Certificate(
            tree=star_tree(3),
            labeling=None,
            claim_violated=CLAIM_AT_MOST_TWO,
            evidence={},
        )
        again = certificate_from_dict(certificate_to_dict(cert))
        assert again.labeling is None
        assert again.tree == cert.tree


class TestReportSerialization:
    def test_report_dict_is_json_ready(self):
        report = verify_main_theorem(3, (0, 1))
        obj = report_to_dict(report)
        text = json.dumps(obj)
        parsed = json.loads(text)
        assert parsed["theorem"] == "main"
        assert parsed["status"] == "pass"
        assert parsed["cases_checked"] == report.cases_checked
        assert parsed["failures"] == []
        assert parsed["subchecks"] == MAIN_SUBCHECKS

    def test_subchecks_key_absent_without_subchecks(self):
        report = verify_structure_lemmas(3)
        assert "subchecks" not in report_to_dict(report)

    def test_status_property(self):
        report = VerificationReport(
            theorem="nondeg",
            parameters={},
            cases_checked=1,
            failures=(
                Certificate(
                    tree=path_tree(2),
                    labeling=None,
                    claim_violated=CLAIM_II_IFF_III,
                    evidence={},
                ),
            ),
            elapsed_ms=0.0,
        )
        assert report.status == "fail"
