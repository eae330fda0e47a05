import collections
import itertools
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    adjacency,
    brute_counterexample,
    brute_longest_path,
    brute_prufer_edges,
    brute_trees,
    cayley,
    edge_index_set,
    path_tree,
    random_trees,
    star_tree,
)
from ultratree import (
    BadEdge,
    CapExceeded,
    EmptyVertexSet,
    HasCycle,
    NoLongPath,
    NotConnected,
    SamePoint,
    Tree,
    TreeClass,
    TreeKind,
    UnknownVertex,
    classify,
    counterexample_labeling,
    degree,
    enumerate_trees,
    high_degree_vertices,
    longest_path_length,
    unique_path,
    validate_tree,
)
from ultratree.trees import (
    _canonical_tree,
    _far,
    _free_trees,
    _index_adjacency,
    _index_tree,
    _longest_path,
    _prufer_edges,
    _rank_edges,
    _vertex_names,
)


class TestValidateTree:
    def test_single_vertex(self):
        t = validate_tree(["a"], [])
        assert t.order == 1
        assert t.edges == ()
        assert "a" in t

    def test_accepts_tuples_and_lists(self):
        t = validate_tree(["a", "b", "c"], [("b", "a"), ["b", "c"]])
        assert t.edges == (("a", "b"), ("b", "c"))

    def test_vertex_order_preserved(self):
        t = validate_tree(["z", "m", "a"], [("z", "m"), ("a", "m")])
        assert t.vertices == ("z", "m", "a")

    def test_duplicate_vertices_collapse(self):
        t = validate_tree(["a", "b", "a"], [("a", "b")])
        assert t.vertices == ("a", "b")

    def test_duplicate_edges_collapse_to_disconnection(self):
        with pytest.raises(NotConnected):
            validate_tree(["a", "b", "c"], [("a", "b"), ("b", "a")])

    def test_empty(self):
        with pytest.raises(EmptyVertexSet):
            validate_tree([], [])

    def test_self_loop(self):
        with pytest.raises(BadEdge):
            validate_tree(["a", "b"], [("a", "a"), ("a", "b")])

    def test_unknown_endpoint(self):
        with pytest.raises(BadEdge):
            validate_tree(["a", "b"], [("a", "x")])

    def test_wrong_arity(self):
        with pytest.raises(BadEdge):
            validate_tree(["a", "b", "c"], [("a", "b", "c")])

    def test_non_string_vertex(self):
        with pytest.raises(BadEdge):
            validate_tree(["a", 3], [])

    def test_unhashable_endpoint(self):
        with pytest.raises(BadEdge) as info:
            validate_tree(["a", "b"], [(["a"], "b")])
        assert info.value.code == "bad-edge"

    def test_non_iterable_edge(self):
        with pytest.raises(BadEdge) as info:
            validate_tree(["a", "b"], [5])
        assert info.value.code == "bad-edge"
        assert info.value.offenders == (5,)

    def test_triangle_has_cycle(self):
        with pytest.raises(HasCycle):
            validate_tree(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])

    def test_too_few_edges(self):
        with pytest.raises(NotConnected):
            validate_tree(["a", "b", "c"], [("a", "b")])

    def test_right_count_but_disconnected(self):
        # triangle plus isolated vertex: 3 edges on 4 vertices
        with pytest.raises(NotConnected):
            validate_tree(
                ["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("a", "c")]
            )

    def test_tree_normalizes_edges_itself(self):
        t = Tree(("a", "b", "c"), (("c", "a"), ("b", "a")))
        assert t.edges == (("a", "b"), ("a", "c"))


class TestUniquePath:
    def test_along_a_path(self):
        t = path_tree(5)
        assert unique_path(t, "v1", "v4") == ("v1", "v2", "v3", "v4")

    def test_through_star_center(self):
        t = star_tree(4)
        assert unique_path(t, "v2", "v3") == ("v2", "v1", "v3")

    def test_single_edge(self):
        t = path_tree(2)
        assert unique_path(t, "v2", "v1") == ("v2", "v1")

    def test_unknown_vertex(self):
        with pytest.raises(UnknownVertex):
            unique_path(path_tree(3), "v1", "nope")

    def test_same_point(self):
        with pytest.raises(SamePoint):
            unique_path(path_tree(3), "v2", "v2")

    @given(random_trees(min_order=2, max_order=7), st.data())
    def test_reverse_and_edge_structure(self, tree, data):
        u = data.draw(st.sampled_from(tree.vertices))
        v = data.draw(st.sampled_from([w for w in tree.vertices if w != u]))
        path = unique_path(tree, u, v)
        assert path[0] == u and path[-1] == v
        assert len(set(path)) == len(path)
        assert unique_path(tree, v, u) == tuple(reversed(path))
        edge_set = set(tree.edges)
        for a, b in zip(path, path[1:]):
            assert ((a, b) if a <= b else (b, a)) in edge_set


class TestDegrees:
    def test_path_degrees(self):
        t = path_tree(5)
        assert [degree(t, v) for v in t.vertices] == [1, 2, 2, 2, 1]
        assert high_degree_vertices(t) == {"v2", "v3", "v4"}

    def test_star_center(self):
        t = star_tree(6)
        assert degree(t, "v1") == 5
        assert high_degree_vertices(t) == {"v1"}

    def test_unknown(self):
        with pytest.raises(UnknownVertex):
            degree(path_tree(2), "x")

    @given(random_trees(max_order=7))
    def test_degree_sum(self, tree):
        assert sum(degree(tree, v) for v in tree.vertices) == 2 * len(tree.edges)


class TestLongestPath:
    def test_examples(self):
        assert longest_path_length(validate_tree(["a"], [])) == 0
        assert longest_path_length(path_tree(2)) == 1
        assert longest_path_length(star_tree(5)) == 2
        assert longest_path_length(path_tree(5)) == 4

    def test_double_star(self):
        t = validate_tree(
            ["a", "b", "c", "d", "e"],
            [("a", "b"), ("b", "c"), ("c", "d"), ("c", "e")],
        )
        assert longest_path_length(t) == 3

    def test_matches_oracle_exhaustively(self):
        for n in range(1, 6):
            for tree in enumerate_trees(n):
                assert longest_path_length(tree) == brute_longest_path(tree)

    @given(random_trees(max_order=7))
    def test_matches_oracle_random(self, tree):
        assert longest_path_length(tree) == brute_longest_path(tree)

    def test_chosen_path_under_scrambled_names(self):
        # names drawn from v1..v12, so name order is not index order ("v10" < "v2")
        rnd = random.Random(12)
        names = [f"v{i}" for i in range(1, 13)]
        for n in range(1, 8):
            for tree in enumerate_trees(n):
                rename = dict(zip(tree.vertices, rnd.sample(names, n)))
                tree = Tree(tuple(rename.values()), [(rename[a], rename[b]) for a, b in tree.edges])
                adj, verts = tree._indexed, tree.vertices
                path = _longest_path(adj, verts, _far(adj))
                assert len(set(path)) == len(path)
                assert all(b in adj[a] for a, b in zip(path, path[1:]))
                assert len(path) == longest_path_length(tree) + 1
                # eccentricities by a search from every vertex; the far end is free
                nbrs, eccentricity = adjacency(tree), {}
                for v in verts:
                    dist, queue = {v: 0}, [v]
                    for w in queue:
                        for u in nbrs[w]:
                            if u not in dist:
                                dist[u] = dist[w] + 1
                                queue.append(u)
                    eccentricity[v] = max(dist.values())
                diameter = max(eccentricity.values())
                assert len(path) == diameter + 1
                assert verts[path[0]] == min(v for v, e in eccentricity.items() if e == diameter)
                expected = brute_counterexample(tree)
                if expected is None:
                    with pytest.raises(NoLongPath):
                        counterexample_labeling(tree)
                else:
                    assert counterexample_labeling(tree).labels == expected.labels


class TestClassify:
    def test_single_vertex_and_edge_are_stars(self):
        assert classify(validate_tree(["a"], [])) == TreeClass(TreeKind.STAR, ())
        result = classify(path_tree(2))
        assert result.tag is TreeKind.STAR
        assert result.centers == ()

    def test_proper_star(self):
        result = classify(star_tree(4))
        assert result.tag is TreeKind.STAR
        assert result.centers == ("v1",)

    def test_path_four_is_double_star(self):
        result = classify(path_tree(4))
        assert result.tag is TreeKind.DOUBLE_STAR
        assert result.centers == ("v2", "v3")

    def test_path_five_is_other(self):
        result = classify(path_tree(5))
        assert result.tag is TreeKind.OTHER
        assert result.centers == ()

    def test_double_star_centers_adjacent_exhaustively(self):
        for n in range(1, 7):
            for tree in enumerate_trees(n):
                result = classify(tree)
                if result.tag is TreeKind.DOUBLE_STAR:
                    a, b = result.centers
                    assert a < b
                    assert (a, b) in set(tree.edges)

    def test_tag_tracks_longest_path_exhaustively(self):
        for n in range(1, 7):
            for tree in enumerate_trees(n):
                short = longest_path_length(tree) <= 3
                assert (classify(tree).tag is not TreeKind.OTHER) == short


class TestEnumerateTrees:
    def test_tiny_orders(self):
        assert len(list(enumerate_trees(1))) == 1
        assert len(list(enumerate_trees(2))) == 1

    def test_counts_match_formula(self):
        for n in range(1, 7):
            assert sum(1 for _ in enumerate_trees(n)) == cayley(n)

    def test_matches_edge_subset_oracle(self):
        for n in range(1, 6):
            got = {edge_index_set(t) for t in enumerate_trees(n)}
            assert got == brute_trees(n)

    def test_prufer_decode_matches_rescanning_oracle(self):
        # same edges in the same order: the order fixes adjacency lists and
        # so the breadth-first shapes the sweeps key on
        for n in range(2, 8):
            for seq in itertools.product(range(n), repeat=n - 2):
                assert _prufer_edges(seq, n) == brute_prufer_edges(seq, n)

    def test_rank_trees_built_unvalidated_equal_validated(self):
        for n in range(1, 7):
            names = _vertex_names(n)
            for rank in range(cayley(n)):
                edges = _rank_edges(n, rank)
                tree = _index_tree(names, edges)
                want = validate_tree(names, [(names[a], names[b]) for a, b in edges])
                assert tree == want
                assert tree._indexed == want._indexed

    def test_no_duplicates_and_shape(self):
        seen = set()
        for tree in enumerate_trees(5):
            assert tree.order == 5
            assert len(tree.edges) == 4
            assert tree.vertices == ("v1", "v2", "v3", "v4", "v5")
            seen.add(tree.edges)
        assert len(seen) == 125

    def test_cap(self):
        with pytest.raises(CapExceeded):
            enumerate_trees(9)
        with pytest.raises(CapExceeded):
            enumerate_trees(0)
        with pytest.raises(CapExceeded):
            enumerate_trees(3, cap=2)

    def test_cap_override_starts_lazily(self):
        gen = enumerate_trees(9, cap=9)
        first = list(itertools.islice(gen, 3))
        assert len(first) == 3
        assert all(t.order == 9 for t in first)


def _bfs_shapes(n):
    """Every breadth-first shape of order n: the parent position of each
    position, the root its own, non-decreasing and each below its own
    position. There are Catalan(n - 1) of them."""
    shapes = [(0,)]
    for k in range(1, n):
        shapes = [s + (p,) for s in shapes for p in range(s[-1], k)]
    return shapes


# free trees by order, 1 through 8 (OEIS A000055)
FREE_TREES = (1, 1, 1, 2, 3, 6, 11, 23)


class TestCanonicalTree:
    def test_every_shape_to_order_eight(self):
        shapes = 0
        for n in range(1, 9):
            forms = set()
            for key in _bfs_shapes(n):
                edges = list(zip(key[1:], range(1, n)))
                form, at = _canonical_tree(_index_adjacency(n, edges))
                spelled = list(zip(form[1:], range(1, n)))
                # a preorder of a rooted tree, onto which ``at`` maps every edge
                assert form[0] == 0 and all(p < k for p, k in spelled)
                assert sorted(at) == list(range(n))
                mapped = {frozenset((at[a], at[b])) for a, b in edges}
                assert mapped == set(map(frozenset, spelled))
                assert _canonical_tree(_index_adjacency(n, spelled))[0] == form
                forms.add(form)
                shapes += 1
            assert len(forms) == FREE_TREES[n - 1]
        assert shapes == 626

    def test_free_tree_counts_against_networkx(self):
        nx = pytest.importorskip("networkx")
        counts = tuple(len(list(nx.nonisomorphic_trees(n))) for n in range(2, 9))
        assert FREE_TREES[1:] == counts


class TestFreeTrees:
    """Leaf augmentation against hard-coded A000055 and networkx, and each
    class weight n!/|Aut T| against a count of the labeled trees."""

    def test_classes_against_a000055_and_networkx(self):
        nx = pytest.importorskip("networkx")
        found = _free_trees(10)
        assert tuple(map(len, found)) == FREE_TREES + (47, 106)
        for n, keys in enumerate(found, 1):
            for key in keys:  # each a canonical key, spelling its own form
                assert _canonical_tree(_index_adjacency(n, zip(key[1:], range(1, n))))[0] == key
            if n > 1:
                theirs = {
                    _canonical_tree(_index_adjacency(n, tree.edges()))[0]
                    for tree in nx.nonisomorphic_trees(n)
                }
                assert theirs == set(keys)

    def test_weights_count_the_labeled_trees(self):
        for n, keys in enumerate(_free_trees(7), 1):
            labeled = collections.Counter(
                _canonical_tree(_index_adjacency(n, _rank_edges(n, rank)))[0]
                for rank in range(cayley(n))
            )
            assert labeled == {key: math.factorial(n) // aut for key, aut in keys.items()}
