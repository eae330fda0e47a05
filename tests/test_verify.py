import collections
import itertools
import json
import math
import multiprocessing
import os
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from helpers import (
    brute_counterexample,
    brute_longest_path,
    brute_witness,
    cayley,
    coded_matrix,
    double_star_count,
    expected_cases,
    high_degree_count,
    index_adjacency,
    labeled,
    pair_paths,
    path_tree,
    qualifying_count,
    random_trees,
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
    ParseError,
    PositivityViolation,
    StrongTriangleViolation,
    SymmetryViolation,
)
from ultratree import labelings, trees, verify
from ultratree.spaces import _first_offender, _value_codes, _witness_index
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
    _Facts,
    _check_counterexample,
    _labelings,
    _shape_walk,
    _split_range,
)


def _grid(values):
    """A value grid as a sweep codes it: (each code's value, the grid's codes)."""
    vals = sorted({Fraction(v) for v in values})
    by_code, code = _value_codes(vals)
    return by_code, tuple(code[v] for v in vals)


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


class TestParallelExecution:
    def test_jobs_do_not_change_the_report(self, monkeypatch):
        monkeypatch.setattr(verify, "_POOL_MIN_ORDER", 1)  # a real pool at order 4
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
        monkeypatch.setattr(verify, "_POOL_MIN_ORDER", 1)  # the clamp, not the size rule
        report = verify_structure_lemmas(4, jobs=jobs)
        assert [a[0] for a in asked] == ([] if workers is None else [workers])
        assert report.cases_checked == expected_cases("lemmas", 4, 0)
        for _, chunksize, orders in asked:  # handed out one by one, largest order first
            assert chunksize == 1
            assert orders == sorted(orders, reverse=True)

    def test_chunks_per_order_are_clamped_to_the_processors(self, monkeypatch):
        asked = self._recording_pool(monkeypatch, 2)
        monkeypatch.setattr(verify, "_POOL_MIN_ORDER", 1)
        report = verify_structure_lemmas(6, jobs=10**6)
        assert report.cases_checked == expected_cases("lemmas", 6, 0)
        [(workers, _, orders)] = asked
        assert workers == 2
        assert all(orders.count(n) <= 2 for n in range(1, 7))

    def test_chunks_divide_each_orders_classes(self, monkeypatch):
        self._recording_pool(monkeypatch, 2)
        monkeypatch.setattr(verify, "_POOL_MIN_ORDER", 1)
        seen, sweep = [], verify._sweep
        monkeypatch.setattr(verify, "_sweep", lambda task: seen.append(task) or sweep(task))
        verify_main_theorem(6, (0, 1), jobs=2)
        assert not any(isinstance(task["trees"], range) for task in seen)
        for n, keys in enumerate(trees._free_trees(6), 1):
            chunks = [task["trees"] for task in seen if task["n"] == n]
            assert len(chunks) == min(2, len(keys))  # each class walked by one worker
            assert sorted(key for chunk in chunks for key, _ in chunk) == sorted(keys)

    def test_small_sweeps_run_in_process(self, monkeypatch):
        asked = self._recording_pool(monkeypatch, 2)
        small = verify_structure_lemmas(verify._POOL_MIN_ORDER - 1, jobs=2)
        assert asked == []
        assert small.cases_checked == expected_cases("lemmas", verify._POOL_MIN_ORDER - 1, 0)
        verify_structure_lemmas(verify._POOL_MIN_ORDER, jobs=2)
        assert [a[0] for a in asked] == [2]


class TestCodedCore:
    def test_prufer_rank_matches_product_order(self):
        seqs = list(itertools.product(range(5), repeat=3))
        for rank, seq in enumerate(seqs):
            assert _rank_edges(5, rank) == _prufer_edges(seq, 5)

    def test_split_range_partitions(self):
        for total, parts in ((0, 1), (1, 4), (10, 3), (125, 8), (7, 7), (5, 9)):
            pieces = _split_range(total, parts)
            covered = []
            for lo, hi in pieces:
                covered.extend(range(lo, hi))
            assert covered == list(range(total))

    def test_code_assignment(self):
        # zero is code 0 whether or not the grid holds it; the rest in sorted order
        assert _grid((0, 1, 2)) == ([0, 1, 2], (0, 1, 2))
        assert _grid((3, 1)) == ([0, 1, 3], (1, 2))
        assert _grid((7, "1/2", 0, 7)) == ([0, Fraction(1, 2), 7], (0, 1, 2))
        values, code = _value_codes([Fraction(5), Fraction(0), Fraction(5), Fraction(2)])
        assert values == [0, 2, 5] and code == {0: 0, 2: 1, 5: 2}

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
                    assert (_witness_index(d) is not None) == (brute_witness(space) is not None)

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

    def by_vertex(lab, nondeg, verdict):
        leaf([lab[at[v]] for v in range(n)], nondeg, verdict)

    _labelings([at[parent[v]] for v in order], codes, witness, by_vertex)


def _walk_verdicts(adj, codes, witness):
    verdicts = {}

    def leaf(lab, nondeg, verdict):
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
        # flip the verdict on labeling (0, 0, 1) by position of the order-3
        # path's class key, the path rooted at one end, which all three
        # labeled trees of order 3 share
        forced, path_key = (0, 0, 1), (0, 0, 1)
        walk = verify._labelings

        def flipped(parents, codes, witness, leaf):
            def spy(lab, nondeg, verdict):
                if tuple(parents) == path_key and tuple(lab) == forced:
                    verdict = not verdict
                leaf(lab, nondeg, verdict)

            walk(parents, codes, witness, spy)

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
    """(cases, failing labelings) as _shape_walk reports them, from a walk
    on the tree itself."""
    cases, bad = 0, []

    def leaf(lab, nondeg, verdict):
        nonlocal cases
        cases += 1
        if (nondeg and not verdict) if witness else verdict != nondeg:
            bad.append(lab)

    _walk_tree(adj, codes, witness, leaf)
    return cases, bad


def _counted_walks(mp):
    """Stands verify._labelings in with a walk that records the order of
    each tree it walks; returns the list of orders."""
    walked = []
    walk = verify._labelings

    def counting(parents, codes, witness, leaf):
        walked.append(len(parents))
        walk(parents, codes, witness, leaf)

    mp.setattr(verify, "_labelings", counting)
    return walked


class TestShapeMemo:
    """One walk per isomorphism class, its failures mapped to each tree's
    vertices, against a walk on each tree. Long trees are
    included: their labelings without a witness give the witness mode
    failures to map."""

    @pytest.mark.parametrize("values", [(0, 1, 2), (1, 3), (0, "1/2", 7)])
    def test_every_tree_up_to_order_five(self, values, monkeypatch):
        codes = _grid(values)[1]
        walked = _counted_walks(monkeypatch)
        mapped = 0
        for n in range(1, 6):
            for witness in (False, True):
                memo, classes = {}, {}
                for rank in range(cayley(n)):
                    adj = _index_adjacency(n, _rank_edges(n, rank))
                    cases, bad = _shape_walk(memo, classes, n, adj, codes, witness)
                    want_cases, want_bad = _direct_walk(adj, codes, witness)
                    assert cases == want_cases == len(codes) ** n
                    assert sorted(bad) == sorted(want_bad)
                    mapped += len(bad)
        # one walk per free tree (1, 1, 1, 2, 3 by order) and mode
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
        memo, classes = {}, {}
        with pytest.MonkeyPatch.context() as mp:
            walked = _counted_walks(mp)
            for each in (adj, adj, copy):  # the walk, the memo, an isomorphic copy
                cases, bad = _shape_walk(memo, classes, n, each, codes, witness)
                want = _direct_walk(each, codes, witness)
                assert cases == want[0] == 3**n
                assert sorted(bad) == sorted(want[1])
        assert walked == [n]

    def test_memo_lives_within_one_call(self, monkeypatch):
        walked = _counted_walks(monkeypatch)
        for _ in range(2):
            walked.clear()
            report = verify_theorem_nondegeneracy(5, (0, 1))
            assert report.cases_checked == expected_cases("nondeg", 5, 2)
            # free trees by order: 1, 1, 1, 2, 3 (OEIS A000055)
            assert len(walked) == 1 + 1 + 1 + 2 + 3 == 8


def _class_tasks(theorem, n, values):
    """The class sweep's tasks of order n, one class each."""
    return [
        {"theorem": theorem, "n": n, "trees": [(key, math.factorial(n) // aut)], "values": values}
        for key, aut in trees._free_trees(n)[n - 1].items()
    ]


class TestClassSweep:
    """Each order swept once per free tree, each case weighted by the
    class's labeled trees, against the sweep by Prufer rank."""

    @pytest.mark.parametrize("values", [(0, 1, 2), (1, 3)])
    @pytest.mark.parametrize("theorem", ["nondeg", "main", "lemmas", "classify"])
    def test_matches_the_rank_sweep_through_order_seven(self, theorem, values):
        vals = tuple(map(Fraction, values)) if theorem != "lemmas" else None
        for n in range(1, 8):
            task = {"theorem": theorem, "n": n, "trees": range(cayley(n)), "values": vals}
            ranks = verify._sweep(task)
            parts = [verify._sweep(task) for task in _class_tasks(theorem, n, vals)]
            assert (sum(p[0] for p in parts), [c for p in parts for c in p[1]]) == ranks

    def test_thirds_are_the_third_vertices_of_every_longest_path(self):
        chosen = collections.defaultdict(set)  # each labeled tree's third, by key position
        for n in range(5, 8):
            for rank in range(cayley(n)):
                facts = _Facts(n, rank)
                if facts.far[2] >= 4:
                    key, at = trees._canonical_tree(facts.adj)
                    chosen[key].add(at[facts.path[2]])
        assert len(chosen) == 1 + 3 + 8  # long free trees of orders 5, 6 and 7
        for key, some in chosen.items():
            facts = verify._ClassFacts(key, (), ())
            # every longest path, read from each end, by the pairs' own searches
            paths = [path for _, _, path in pair_paths(facts.n, facts.adj)]
            longest = [path for path in paths if len(path) == max(map(len, paths))]
            assert facts.thirds == {path[k] for path in longest for k in (2, -3)}
            assert some <= facts.thirds

    def test_passing_run_decodes_no_rank(self, monkeypatch):
        decoded, decode = [], verify._rank_edges

        def spy(n, rank):
            decoded.append((n, rank))
            return decode(n, rank)

        monkeypatch.setattr(verify, "_rank_edges", spy)
        assert verify_main_theorem(6).status == "pass"
        assert verify_structure_lemmas(8).status == "pass"
        assert decoded == []
        # every counterexample space witnessed: only order 5 has long trees
        monkeypatch.setattr(verify, "_witness_index", lambda d: 0)
        report = verify_main_theorem(5, (0, 1))
        assert sorted(decoded) == [(5, rank) for rank in range(cayley(5))]
        assert {cert.evidence["order"] for cert in report.failures} == {5}

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
                facts = _Facts(n, rank)
                if verify._LONG.holds(facts):  # reads the diameter
                    assert len(calls) == 2
                    assert len(facts.path) > 4
                    assert len(calls) == 3
                    long_trees += 1
                else:
                    assert len(calls) == 2
        assert long_trees == sum(cayley(n) - qualifying_count(n) for n in range(1, 7))


class TestCodedCounterexample:
    def _long_trees(self):
        for n in range(1, 7):
            names = tuple(f"v{i + 1}" for i in range(n))
            for rank in range(cayley(n)):
                edges = _rank_edges(n, rank)
                tree = validate_tree(names, [(names[a], names[b]) for a, b in edges])
                if brute_longest_path(tree) > 3:
                    yield _Facts(n, rank), tree

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
        monkeypatch.setattr(verify, "_witness_index", lambda d: 0)
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
            facts = _Facts(5, 0, *_grid(grid))
            cert = facts.fail(CLAIM_WITNESS, {"witness": None}, (1, 1, 2, 1, 1))
            assert cert.tree == _Facts(5, 0).tree and cert.tree.order == 5
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
        # a one-vertex path: too short for the pattern on every tree
        monkeypatch.setattr(verify, "_longest_path", lambda adj, names, far: [0])
        for claim, tree, reproduces in (
            (CLAIM_CE_APPLICABLE, self._p5(), True),
            (CLAIM_CE_INAPPLICABLE, star_tree(4), False),
        ):
            cert = Certificate(tree=tree, labeling=None, claim_violated=claim, evidence={})
            assert replay_certificate(cert) is reproduces
        monkeypatch.undo()
        far = verify._far  # every tree long, the search itself kept for the path
        monkeypatch.setattr(verify, "_far", lambda adj: (*far(adj)[:2], 4))
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
