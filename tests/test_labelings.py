import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    FIG1_MATRIX,
    RankFacts,
    all_labelings,
    brute_counterexample,
    brute_witness,
    brute_zero_edge,
    coded_matrix,
    index_adjacency,
    labeled,
    pair_paths,
    path_tree,
    random_labeled_trees,
    random_trees,
    scanned_held,
    star_tree,
)
from ultratree import (
    BudgetExceeded,
    DegenerateLabeling,
    DegenerateResult,
    LabeledTree,
    NoLongPath,
    PositivityViolation,
    UnknownVertex,
    build_ultrametric,
    counterexample_labeling,
    enumerate_labelings,
    enumerate_trees,
    extend_labeling,
    is_nondegenerate,
    longest_path_length,
    raw_distance_matrix,
    restrict,
    space_from_dict,
    unique_path,
    us_witness,
    validate_tree,
    validate_ultrametric,
)
from ultratree.labelings import _coded_distances, _path_max
from ultratree.spaces import _compact, _decode, _value_codes
from ultratree.trees import _bfs_parents
from ultratree.verify import _Facts, _validity


def fig1_tree():
    return labeled(path_tree(5), (2, 2, 3, 2, 2))


class TestLabeledTree:
    def test_missing_label(self):
        with pytest.raises(ValueError, match="missing"):
            LabeledTree(path_tree(2), {"v1": 1})

    def test_unknown_vertex(self):
        with pytest.raises(UnknownVertex):
            LabeledTree(path_tree(2), {"v1": 1, "v2": 1, "v3": 1})

    def test_negative_label(self):
        with pytest.raises(ValueError):
            LabeledTree(path_tree(2), {"v1": 1, "v2": -1})

    def test_float_label(self):
        with pytest.raises(TypeError):
            LabeledTree(path_tree(2), {"v1": 1, "v2": 0.5})

    def test_bool_label(self):
        with pytest.raises(TypeError):
            LabeledTree(path_tree(2), {"v1": 1, "v2": True})

    def test_label_accessor(self):
        lt = labeled(path_tree(2), (0, Fraction(5, 2)))
        assert lt.label("v2") == Fraction(5, 2)
        with pytest.raises(UnknownVertex):
            lt.label("x")

    def test_labels_read_only(self):
        lt = fig1_tree()
        with pytest.raises(TypeError):
            lt.labels["v1"] = Fraction(9)


class TestNondegeneracy:
    def test_examples(self):
        assert is_nondegenerate(fig1_tree())
        assert not is_nondegenerate(labeled(path_tree(2), (0, 0)))
        # zero is fine as long as the neighbor is positive
        assert is_nondegenerate(labeled(path_tree(3), (0, 1, 0)))
        assert is_nondegenerate(labeled(validate_tree(["a"], []), (0,)))


class TestDistanceMatrix:
    def test_two_level_path(self):
        points, rows = raw_distance_matrix(fig1_tree())
        assert points == ("v1", "v2", "v3", "v4", "v5")
        assert rows == FIG1_MATRIX
        assert build_ultrametric(fig1_tree()).dist == FIG1_MATRIX

    def test_one_vertex(self):
        space = build_ultrametric(labeled(validate_tree(["a"], []), (7,)))
        assert space.points == ("a",)
        assert space.dist == ((Fraction(0),),)
        # the label 7 shows nowhere, so the space holds the value 0 only
        assert space == space_from_dict({"points": ["a"], "dist": [["0"]]})
        assert space._ranked[0] == [0]

    def test_single_edge(self):
        space = build_ultrametric(labeled(path_tree(2), (0, 5)))
        assert space.distance("v1", "v2") == 5

    def test_degenerate_rejected(self):
        lt = labeled(path_tree(3), (1, 0, 0))
        with pytest.raises(DegenerateLabeling) as info:
            build_ultrametric(lt)
        assert info.value.offenders == ("v2", "v3")

    def test_degenerate_raw_matrix_fails_positivity(self):
        points, rows = raw_distance_matrix(labeled(path_tree(2), (0, 0)))
        assert rows[0][1] == 0
        with pytest.raises(PositivityViolation):
            validate_ultrametric(points, rows)

    @given(random_labeled_trees(max_order=40), st.randoms(use_true_random=False))
    def test_matches_the_pairwise_path_oracle(self, lt, rnd):
        # vertex order shuffled, so the breadth-first walk starts anywhere
        verts = list(lt.tree.vertices)
        rnd.shuffle(verts)
        lt = LabeledTree(validate_tree(verts, lt.tree.edges), lt.labels)
        points, rows = raw_distance_matrix(lt)
        assert points == tuple(verts)
        n = len(points)
        labels = [lt.labels[v] for v in points]
        expected = coded_matrix(n, pair_paths(n, index_adjacency(lt.tree)), labels)
        assert [list(row) for row in rows] == expected
        assert all(type(rows[i][i]) is Fraction for i in range(n))

    @given(random_labeled_trees(max_order=7))
    def test_matrix_shape_invariants(self, lt):
        points, rows = raw_distance_matrix(lt)
        n = len(points)
        for i in range(n):
            assert rows[i][i] == 0
            for j in range(i + 1, n):
                assert rows[i][j] == rows[j][i]
                assert rows[i][j] >= lt.labels[points[i]]
                assert rows[i][j] >= lt.labels[points[j]]

    @given(random_labeled_trees(max_order=6), st.data())
    def test_raising_a_label_never_shrinks_distances(self, lt, data):
        v = data.draw(st.sampled_from(lt.tree.vertices))
        bumped = dict(lt.labels)
        bumped[v] = bumped[v] + 1
        _, before = raw_distance_matrix(lt)
        _, after = raw_distance_matrix(LabeledTree(lt.tree, bumped))
        for row_b, row_a in zip(before, after):
            for x, y in zip(row_b, row_a):
                assert y >= x

    @given(random_labeled_trees(min_order=2, max_order=6), st.data())
    def test_restriction_to_a_path_is_the_path_metric(self, lt, data):
        assume(is_nondegenerate(lt))
        u = data.draw(st.sampled_from(lt.tree.vertices))
        v = data.draw(st.sampled_from([w for w in lt.tree.vertices if w != u]))
        path = unique_path(lt.tree, u, v)
        sub = restrict(build_ultrametric(lt), path)
        path_only = LabeledTree(
            validate_tree(path, list(zip(path, path[1:]))),
            {w: lt.labels[w] for w in path},
        )
        expected = build_ultrametric(path_only)
        assert set(sub.points) == set(expected.points)
        for a in path:
            for b in path:
                if a != b:
                    assert sub.distance(a, b) == expected.distance(a, b)


class TestPathMaxKernel:
    """_path_max lifts whole rows; every matrix is checked against the
    pairwise path oracle, and its rows are ``bytes`` while every code is
    below 256, lists past it. The codes a built matrix holds, read off the
    tree's edges, are checked against a scan of every entry."""

    @staticmethod
    def _adjacency(n, edges):
        adj = [[] for _ in range(n)]
        for a, b in edges:
            adj[a].append(b)
            adj[b].append(a)
        return adj

    @staticmethod
    def _checked(adj, lab):
        n = len(lab)
        d = _path_max(*_bfs_parents(n, adj, 0), lab)
        assert list(map(list, d)) == coded_matrix(n, pair_paths(n, adj), lab)
        assert all(type(row) is (bytes if max(lab) < 256 else list) for row in d)
        return d

    @staticmethod
    def _held_agrees(n, edges, lab):
        """The tree on v0..v(n-1) with index ``edges``, labeled ``lab``,
        compacts its coded matrix to the codes a scan of every entry finds,
        and its raw matrix decodes them, zero labels included."""
        names = [f"v{k}" for k in range(n)]
        tree = validate_tree(names, [(names[a], names[b]) for a, b in edges])
        lt = LabeledTree(tree, dict(zip(names, lab)))
        values, codes = _value_codes([lt.labels[v] for v in tree.vertices])
        d = _path_max(*_bfs_parents(n, tree._indexed, 0), codes)
        want = _compact(values, d, scanned_held(d))
        assert _coded_distances(lt) == want
        assert raw_distance_matrix(lt) == (tree.vertices, _decode(*want))

    def test_random_trees_with_zero_labels(self):
        rnd = random.Random(28)
        for n in [*range(1, 65), 200]:
            for top in (1, 3, 255):
                # vertex 0, where the walk starts, anywhere in the tree
                at = list(range(n))
                rnd.shuffle(at)
                edges = [(at[rnd.randrange(k)], at[k]) for k in range(1, n)]
                lab = [rnd.randint(0, top) for _ in range(n)]
                self._checked(self._adjacency(n, edges), lab)
                self._held_agrees(n, edges, lab)

    @pytest.mark.parametrize("legs", [1, 2, 3])
    def test_siblings_read_each_other_through_the_parent(self, legs):
        # a star (legs of one edge) or spider whose centre has 5 children
        # with falling labels: a copy of the centre's row shared by the
        # siblings misses each earlier sibling's column
        n = 1 + 5 * legs
        edges = [(0, 1 + k) for k in range(5)]
        edges += [(k, k + 5) for k in range(1, n - 5)]
        for centre in (0, n - 1):  # the walk starts at the centre, or at a leaf
            swap = {0: centre, centre: 0}
            moved = [(swap.get(a, a), swap.get(b, b)) for a, b in edges]
            for lab in ([0] + list(range(n - 1, 0, -1)), [0] + list(range(1, n))):
                lab = [lab[swap.get(v, v)] for v in range(n)]
                self._checked(self._adjacency(n, moved), lab)
                self._held_agrees(n, moved, lab)  # the centre's 0 is below every leaf

    def test_past_a_byte_on_list_rows(self):
        rnd = random.Random(256)
        for n in (256, 300):
            for path in (True, False):
                edges = [(k - 1 if path else rnd.randrange(k), k) for k in range(1, n)]
                lab = list(range(n))
                rnd.shuffle(lab)
                self._checked(self._adjacency(n, edges), lab)
                self._held_agrees(n, edges, lab)

    @pytest.mark.parametrize("n, distinct", [(64, 40), (300, 300)])
    def test_build_ultrametric_matches_the_decoded_oracle(self, n, distinct):
        rnd = random.Random(n)
        names = [f"v{k}" for k in range(n)]
        rnd.shuffle(names)
        pool = [Fraction(k + 1, 3) for k in range(distinct)]
        edges = [(names[rnd.randrange(k)], names[k]) for k in range(1, n)]
        tree = validate_tree(names, edges)
        lt = LabeledTree(tree, dict(zip(names, rnd.sample(pool, n) if distinct >= n else rnd.choices(pool, k=n))))
        labels = [lt.labels[v] for v in tree.vertices]
        expected = coded_matrix(n, pair_paths(n, index_adjacency(tree)), labels)
        points, rows = raw_distance_matrix(lt)
        assert points == tree.vertices and list(map(list, rows)) == expected
        space = build_ultrametric(lt)
        assert list(map(list, space.dist)) == expected
        values, codes = space._ranked
        assert all(type(row) is (bytes if len(values) <= 256 else list) for row in codes)

    def test_compact_keeps_the_row_type(self):
        # the centre's label, below every leaf's, shows nowhere
        lab, edges = [1, 3, 5, 4], [(0, 1), (0, 2), (0, 3)]
        d = _path_max(*_bfs_parents(4, self._adjacency(4, edges), 0), lab)
        held = scanned_held(d)
        assert held == {0, 3, 4, 5}
        values = [Fraction(c) for c in range(6)]
        got = _compact(values, d, held)
        assert got == _compact(values, [list(row) for row in d], held)  # both bytes rows at 4 values
        assert got[0] == [0, 3, 4, 5]
        assert all(type(row) is bytes for row in got[1])
        assert list(map(list, got[1])) == [[0, 1, 3, 2], [1, 0, 3, 2], [3, 3, 0, 3], [2, 2, 3, 0]]
        self._held_agrees(4, edges, lab)


class TestValidityMatchesNondegeneracy:
    def test_exhaustive_small_orders(self):
        for n in range(1, 5):
            for tree in enumerate_trees(n):
                for lt in all_labelings(tree, (0, 1, 2)):
                    points, rows = raw_distance_matrix(lt)
                    if is_nondegenerate(lt):
                        validate_ultrametric(points, rows)
                    else:
                        with pytest.raises(PositivityViolation):
                            validate_ultrametric(points, rows)

    def test_strided_larger_orders(self):
        trees = [path_tree(5), star_tree(6)]
        trees.append(next(itertools.islice(enumerate_trees(6), 500, None)))
        for tree in trees:
            for lt in itertools.islice(all_labelings(tree, (0, 1, 2)), 0, None, 11):
                points, rows = raw_distance_matrix(lt)
                if is_nondegenerate(lt):
                    validate_ultrametric(points, rows)
                else:
                    with pytest.raises(PositivityViolation):
                        validate_ultrametric(points, rows)


class TestZeroEdge:
    def test_every_check_names_the_first_zero_edge(self):
        # every labeling over (0, 1) of every tree up to order 5
        several = 0  # labelings with more than one zero edge, where "first" matters
        for n in range(1, 6):
            for rank in range(n ** max(n - 2, 0)):
                facts = RankFacts(n, rank)
                tree = facts.tree
                labelings = [dict(zip(tree.vertices, map(Fraction, lab)))
                             for lab in itertools.product((0, 1), repeat=n)]
                kept = [lab for lab in labelings if brute_zero_edge(tree, lab) is None]
                assert list(enumerate_labelings(tree, (0, 1), nondegenerate_only=True)) == kept
                for labels in labelings:
                    first = brute_zero_edge(tree, labels)
                    assert is_nondegenerate(LabeledTree(tree, labels)) == (first is None)
                    codes = [int(labels[v]) for v in tree.vertices]
                    for judged in (facts, _Facts.of(tree)):
                        assert _validity(judged, codes)["nondegenerate"] == (first is None)
                    if first is None:
                        build_ultrametric(LabeledTree(tree, labels))
                        assert extend_labeling(tree, labels, 1) == labels
                        continue
                    with pytest.raises(DegenerateLabeling) as info:
                        build_ultrametric(LabeledTree(tree, labels))
                    assert info.value.offenders == first
                    with pytest.raises(DegenerateResult) as info:
                        extend_labeling(tree, labels, 1)
                    assert info.value.offenders == first
                    several += sum(all(labels[v] == 0 for v in e) for e in tree.edges) > 1
        assert several > 100


class TestExtendLabeling:
    def test_fills_missing_vertices(self):
        labels = extend_labeling(path_tree(3), {"v2": 0}, Fraction(1, 2))
        assert labels == {
            "v1": Fraction(1, 2),
            "v2": Fraction(0),
            "v3": Fraction(1, 2),
        }

    def test_empty_partial_gives_constant(self):
        labels = extend_labeling(star_tree(4), {}, 3)
        assert set(labels.values()) == {Fraction(3)}

    def test_fill_must_be_positive(self):
        with pytest.raises(ValueError):
            extend_labeling(path_tree(2), {}, 0)
        with pytest.raises(ValueError):
            extend_labeling(path_tree(2), {}, -1)

    def test_fill_must_be_exact(self):
        with pytest.raises(TypeError):
            extend_labeling(path_tree(2), {}, 0.5)

    def test_unknown_vertex(self):
        with pytest.raises(UnknownVertex):
            extend_labeling(path_tree(2), {"x": 1}, 1)

    def test_degenerate_partial_rejected(self):
        with pytest.raises(DegenerateResult) as info:
            extend_labeling(path_tree(3), {"v1": 0, "v2": 0}, 5)
        assert info.value.offenders == ("v1", "v2")

    @given(random_trees(max_order=7), st.data())
    def test_extension_is_nondegenerate(self, tree, data):
        partial_verts = data.draw(st.sets(st.sampled_from(tree.vertices)))
        partial = {v: data.draw(st.sampled_from((1, 2, 3))) for v in partial_verts}
        labels = extend_labeling(tree, partial, 1)
        assert is_nondegenerate(LabeledTree(tree, labels))
        for v, value in partial.items():
            assert labels[v] == value


class TestCounterexampleLabeling:
    def test_five_path_gets_the_pattern(self):
        lt = counterexample_labeling(path_tree(5))
        assert [lt.labels[v] for v in ("v1", "v2", "v3", "v4", "v5")] == [
            2, 2, 3, 2, 2,
        ]

    def test_six_path_pads_with_fill(self):
        lt = counterexample_labeling(path_tree(6))
        assert [lt.labels[f"v{i}"] for i in range(1, 7)] == [2, 2, 3, 2, 2, 2]

    def test_short_trees_rejected(self):
        with pytest.raises(NoLongPath):
            counterexample_labeling(star_tree(6))
        with pytest.raises(NoLongPath):
            counterexample_labeling(path_tree(4))

    def test_tie_break_is_lexicographic(self):
        # three legs of length two; (a2, b2) is the least diameter pair
        tree = validate_tree(
            ["m", "a1", "a2", "b1", "b2", "c1", "c2"],
            [("m", "a1"), ("a1", "a2"), ("m", "b1"), ("b1", "b2"),
             ("m", "c1"), ("c1", "c2")],
        )
        lt = counterexample_labeling(tree)
        assert lt.labels == {
            "a2": Fraction(2), "a1": Fraction(2), "m": Fraction(3),
            "b1": Fraction(2), "b2": Fraction(2),
            "c1": Fraction(2), "c2": Fraction(2),
        }

    def test_tie_break_compares_names_not_positions(self):
        # three legs of length three from v1, ending at v2, v5 and v10; the
        # least name pair is (v10, v2), by position it would be (v2, v5)
        names = [f"v{i}" for i in range(1, 11)]
        legs = (("v1", "v4", "v3", "v2"), ("v1", "v7", "v6", "v5"), ("v1", "v8", "v9", "v10"))
        tree = validate_tree(names, [e for leg in legs for e in zip(leg, leg[1:])])
        lt = counterexample_labeling(tree)
        assert lt.labels == {v: Fraction(3 if v == "v8" else 2) for v in names}

    @settings(max_examples=150)
    @given(random_trees(min_order=1, max_order=40), st.randoms(use_true_random=False))
    def test_matches_the_name_level_oracle(self, tree, rnd):
        verts = list(tree.vertices)
        rnd.shuffle(verts)  # vertex order is not name order
        tree = validate_tree(verts, tree.edges)
        expected = brute_counterexample(tree)
        if expected is None:
            with pytest.raises(NoLongPath):
                counterexample_labeling(tree)
        else:
            assert counterexample_labeling(tree).labels == expected.labels

    def test_spaces_have_no_witness(self):
        for tree in (path_tree(5), path_tree(6), path_tree(7)):
            space = build_ultrametric(counterexample_labeling(tree))
            assert us_witness(space) is None
            assert brute_witness(space) is None

    def test_pattern_vertices_carry_the_two_level_space(self):
        lt = counterexample_labeling(path_tree(6))
        space = build_ultrametric(lt)
        sub = restrict(space, ("v1", "v2", "v3", "v4", "v5"))
        assert sub.dist == FIG1_MATRIX

    @given(random_trees(min_order=5, max_order=7))
    def test_long_trees_never_star_generated(self, tree):
        assume(longest_path_length(tree) >= 4)
        lt = counterexample_labeling(tree)
        values = sorted(set(lt.labels.values()))
        assert values == [Fraction(2), Fraction(3)]
        assert sum(1 for q in lt.labels.values() if q == 3) == 1
        assert us_witness(build_ultrametric(lt)) is None


class TestEnumerateLabelings:
    def test_single_edge_lexicographic(self):
        got = list(enumerate_labelings(path_tree(2), (0, 1)))
        assert got == [
            {"v1": Fraction(0), "v2": Fraction(0)},
            {"v1": Fraction(0), "v2": Fraction(1)},
            {"v1": Fraction(1), "v2": Fraction(0)},
            {"v1": Fraction(1), "v2": Fraction(1)},
        ]

    def test_single_edge_nondegenerate_only(self):
        got = list(enumerate_labelings(path_tree(2), (0, 1), nondegenerate_only=True))
        assert len(got) == 3
        assert {"v1": Fraction(0), "v2": Fraction(0)} not in got

    def test_three_path_counts(self):
        assert sum(1 for _ in enumerate_labelings(path_tree(3), (0, 1))) == 8
        assert (
            sum(
                1
                for _ in enumerate_labelings(
                    path_tree(3), (0, 1), nondegenerate_only=True
                )
            )
            == 5
        )

    def test_values_deduplicate_and_sort(self):
        got = list(enumerate_labelings(path_tree(2), ("2", "1", 1)))
        assert got[0] == {"v1": Fraction(1), "v2": Fraction(1)}
        assert len(got) == 4

    def test_empty_values(self):
        with pytest.raises(ValueError):
            enumerate_labelings(path_tree(2), ())
        with pytest.raises(ValueError, match="values must be non-empty"):
            enumerate_labelings(path_tree(2), None)

    def test_budget_checked_before_iteration(self):
        with pytest.raises(BudgetExceeded):
            enumerate_labelings(path_tree(3), (0, 1, 2), budget=26)
        # one under the cap is fine
        assert sum(1 for _ in enumerate_labelings(path_tree(3), (0, 1, 2), budget=27)) == 27

    def test_budget_refusal_past_the_printable_digits(self):
        # 3 ** 10000 has 4,772 digits, more than str() of an int allows
        with pytest.raises(BudgetExceeded, match=r"at least 2\*\*15849 labelings"):
            enumerate_labelings(star_tree(10_000), (0, 1, 2))
