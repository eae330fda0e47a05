import collections
import itertools
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    A000055,
    adjacency,
    automorphisms,
    brute_counterexample,
    brute_longest_path,
    brute_prufer_edges,
    brute_trees,
    canonical,
    canonicalized,
    cayley,
    edge_index_set,
    index_adjacency,
    leaf_augmented_trees,
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
    verify_main_theorem,
)
from ultratree import trees, verify
from ultratree.trees import (
    _centered,
    _free_trees,
    _index_adjacency,
    _index_tree,
    _longest,
    _prufer_edges,
    _prufer_rank,
    _rank_edges,
    _spine,
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

    @pytest.mark.parametrize("vertices, edges, message", [
        # two bad entries, the first late: the first is named
        (["a", "b", "c", 3, ""], [], "vertex ids must be non-empty strings, got 3"),
        (["a", ["b"]], [], "vertex ids must be non-empty strings, got ['b']"),
        (["a", "b"], [("a", ["b"])], "edge ('a', ['b']) references an unknown vertex"),
        (["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "c"), ("d", "x")], "self-loop at 'c'"),
        (["a", "b", "c"], [("a", "b"), ("c", "c")], "self-loop at 'c'"),  # else n - 1 edges, unconnected
        (["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("d", "x"), ("c", "c")],
         "edge ('d', 'x') references an unknown vertex"),
        (["a", "b", "c"], [("a", "b"), ("b", "c"), 5, ("a",)], "edge 5 is not a two-element set"),
    ])
    def test_first_offender_is_named(self, vertices, edges, message):
        with pytest.raises(BadEdge) as info:
            validate_tree(vertices, edges)
        assert str(info.value) == message

    def test_generators_are_read_once(self):
        t = validate_tree((v for v in "abc"), (e for e in [("a", "b"), ("c", "b")]))
        assert t == Tree(("a", "b", "c"), (("a", "b"), ("b", "c")))

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

    @given(random_trees(max_order=12), st.randoms(use_true_random=False))
    def test_keeps_the_index_form_its_check_built(self, tree, rnd):
        # vertices and edges shuffled, edges flipped: the cached index form
        # is the one a fresh tree derives from its sorted edges
        verts = list(tree.vertices)
        edges = [e[::-1] if rnd.random() < 0.5 else e for e in tree.edges]
        rnd.shuffle(verts)
        rnd.shuffle(edges)
        t = validate_tree(verts, edges)
        assert {"_index", "_indexed"} <= t.__dict__.keys()
        assert t._index == {v: i for i, v in enumerate(verts)}
        assert t._indexed == index_adjacency(t) == Tree(t.vertices, t.edges)._indexed


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
                verts = tree.vertices
                facts = verify._Facts.of(tree)  # the replay's record: its third is the labeling's
                thirds = facts.thirds
                # distances and eccentricities by a search from every vertex
                nbrs, dist = adjacency(tree), {}
                for v in verts:
                    dist[v], queue = {v: 0}, [v]
                    for w in queue:
                        for u in nbrs[w]:
                            if u not in dist[v]:
                                dist[v][u] = dist[v][w] + 1
                                queue.append(u)
                eccentricity = {v: max(found.values()) for v, found in dist.items()}
                diameter = max(eccentricity.values())
                assert facts.longest[0] == diameter
                if diameter < 4:
                    assert thirds == []
                else:
                    # two steps in from the least-named end along a longest
                    # path: the one vertex that far from it whose eccentricity
                    # is D - 2, any other one being D or more from the end's
                    # farthest vertex
                    end = min(v for v, e in eccentricity.items() if e == diameter)
                    assert [verts[v] for v in thirds] == [
                        v for v in verts if dist[end][v] == 2 and eccentricity[v] == diameter - 2
                    ]
                expected = brute_counterexample(tree)
                if expected is None:
                    with pytest.raises(NoLongPath):
                        counterexample_labeling(tree)
                else:
                    assert counterexample_labeling(tree).labels == expected.labels


class TestLongestAgainstNetworkx:
    """trees._longest, the diameter and the ends of the longest paths in one
    pass over a center-rooted order, against networkx's diameter and
    periphery; public trees are rooted by trees._centered, class keys read
    as they are."""

    @staticmethod
    def _agrees(nx, n, parents, order):
        """The tree's graph and its center, once _longest agrees on it."""
        graph = nx.Graph()
        graph.add_nodes_from(range(n))
        graph.add_edges_from((parents[v], v) for v in order[1:])
        assert nx.is_tree(graph) and sorted(order) == list(range(n))
        eccentricity = nx.eccentricity(graph)  # what diameter, periphery and center read
        d, ends = _longest(parents, order)
        assert d == nx.diameter(graph, e=eccentricity)
        assert sorted(ends) == sorted(nx.periphery(graph, e=eccentricity))
        return graph, nx.center(graph, e=eccentricity)

    def _centered_agrees(self, nx, n, edges):
        adj = _index_adjacency(n, edges)
        parent, order, path = _spine(adj)
        parents, centered = _centered(adj)
        root = centered[0]
        placed = set()
        for v in centered:  # each vertex after its parent, the root its own
            assert parents[v] == v if v == root else parents[v] in placed
            placed.add(v)
        graph, center = self._agrees(nx, n, parents, centered)
        assert set(map(frozenset, graph.edges)) == set(map(frozenset, edges))
        assert root in center
        assert len(path) - 1 == _longest(parents, centered)[0]
        return len(center)

    def test_every_labeled_tree_through_order_seven(self):
        nx = pytest.importorskip("networkx")
        checked = 0
        for n in range(1, 8):
            for rank in range(cayley(n)):
                self._centered_agrees(nx, n, _rank_edges(n, rank))
                checked += 1
        assert checked == sum(cayley(n) for n in range(1, 8))

    def test_every_class_key_through_order_twelve(self):
        nx = pytest.importorskip("networkx")
        for n, keys in enumerate(_free_trees(12), 1):
            for key in keys:
                self._agrees(nx, n, key, range(n))
            assert len(keys) == A000055[n - 1]

    def test_random_trees_up_to_order_two_hundred(self):
        nx = pytest.importorskip("networkx")
        rnd = random.Random(200)
        centers = collections.Counter()
        for n in [*range(3, 201, 9)] * 3:
            at = list(range(n))
            rnd.shuffle(at)
            if rnd.random() < 0.5:  # a random recursive tree
                edges = [(at[rnd.randrange(k)], at[k]) for k in range(1, n)]
            else:  # a long path with random trees hung from it
                spine = rnd.randrange(1, n)
                edges = [(at[k - 1], at[k]) if k < spine else (at[rnd.randrange(k)], at[k]) for k in range(1, n)]
            centers[self._centered_agrees(nx, n, edges)] += 1
        assert centers[1] > 15 and centers[2] > 15  # unicentral and bicentral

    def test_orders_one_and_two(self):
        nx = pytest.importorskip("networkx")
        assert _longest([0], range(1)) == (0, [0])
        assert _longest([0, 0], range(2)) == (1, [1, 0])
        assert _centered([[]]) == ([0], [0])
        assert _centered([[1], [0]])[0] in ([0, 0], [1, 1])
        for n in (1, 2):
            self._centered_agrees(nx, n, _rank_edges(n, 0))


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


class TestFreeTrees:
    """The level-sequence generator against hard-coded A000055, leaf
    augmentation and networkx, and each class weight n!/|Aut T| against a
    count of the labeled trees."""

    def test_classes_against_a000055_and_networkx(self):
        nx = pytest.importorskip("networkx")
        found = canonicalized(_free_trees(10))
        assert tuple(map(len, found)) == A000055[:10]
        for n, keys in enumerate(found[1:], 2):
            theirs = {canonical(_index_adjacency(n, tree.edges()))[0] for tree in nx.nonisomorphic_trees(n)}
            assert theirs == set(keys)

    def test_weights_count_the_labeled_trees(self):
        for n, keys in enumerate(canonicalized(_free_trees(7)), 1):
            labeled = collections.Counter(
                canonical(_index_adjacency(n, _rank_edges(n, rank)))[0]
                for rank in range(cayley(n))
            )
            assert labeled == {key: math.factorial(n) // aut for key, aut in keys.items()}

    def test_matches_leaf_augmentation_through_order_twelve(self):
        # keys and |Aut T|, which _free_trees reads off the level sequence
        # and leaf augmentation finds by AHU strings; the keys themselves
        # differ from order 9 on, so they are compared as AHU forms
        assert canonicalized(_free_trees(12)) == leaf_augmented_trees(12)

    def test_keys_through_order_eight_are_the_ahu_forms(self):
        # through order 8 the level sequence orders siblings as the AHU
        # strings do, so sweeps of these orders walk the same keys as when
        # the generator canonicalized each layout
        found = _free_trees(8)
        assert canonicalized(found) == found

    def test_keys_meet_the_orbit_walks_precondition_through_order_ten(self):
        # a preorder; alike sibling subtrees side by side and laid out alike;
        # alike halves of a bicentral tree at [0, h) and [h, n): then the
        # swaps of _sibling_blocks generate Aut T. Alike means one rooted
        # shape, each vertex's children's shapes sorted, whatever the key's order
        nx = pytest.importorskip("networkx")
        for n, keys in enumerate(_free_trees(10), 1):
            for key in keys:
                assert key[0] == 0 and all(key[k] < k for k in range(1, n))
                kids, size, shape = [[] for _ in range(n)], [1] * n, [()] * n
                for k in range(n - 1, 0, -1):
                    kids[key[k]].insert(0, k)
                    size[key[k]] += size[k]
                for v in range(n - 1, -1, -1):
                    shape[v] = tuple(sorted(shape[c] for c in kids[v]))

                def laid_out(s, end=None):  # positions [s, end) as offsets from s
                    return [key[k] - s for k in range(s + 1, end or s + size[s])]

                graph = nx.Graph(list(zip(key[1:], range(1, n))))
                half = max(nx.center(graph)) if n > 1 else 0
                for v in range(n):
                    group = [c for c in kids[v] if not (v == 0 and c == half)]
                    runs = [s for s, _ in itertools.groupby(shape[c] for c in group)]
                    assert len(runs) == len(set(runs))  # alike siblings side by side
                    for a, b in zip(group, group[1:]):
                        assert (shape[a] == shape[b]) == (laid_out(a) == laid_out(b))
                if half:
                    assert size[half] == n - half
                    rest = tuple(sorted(shape[c] for c in kids[0] if c != half))
                    alike = rest == shape[half]
                    assert alike == (2 * half == n and laid_out(half) == laid_out(0, half))

    def test_split_siblings_trip_the_cayley_gate(self, monkeypatch):
        # a layout whose alike legs have a leaf between them spells a key on
        # which _sibling_blocks misses their swap: |Aut T| reads 1, not 2,
        # and order 6's weights sum past 6^4
        real = trees._layouts

        def split(n):
            for layout in real(n):
                yield [0, 1, 2, 1, 1, 2] if layout == [0, 1, 2, 1, 2, 1] else layout

        monkeypatch.setattr(trees, "_layouts", split)
        with pytest.raises(RuntimeError, match="at order 6: 1656 labeled trees, predicted 1296"):
            verify_main_theorem(6)

    def test_layouts_are_center_rooted_level_sequences(self):
        # each a preorder of depths from a root that is a center: the two
        # deepest branches from it differ in depth by at most one
        for n in range(2, 13):
            count = 0
            for layout in trees._layouts(n):
                count += 1
                assert layout[0] == 0 and all(1 <= b <= a + 1 for a, b in zip(layout, layout[1:]))
                starts = [i for i, depth in enumerate(layout) if depth == 1] + [n]
                depths = sorted((max(layout[i:j]) for i, j in zip(starts, starts[1:])), reverse=True)
                assert depths[0] - (depths + [0])[1] <= 1
            assert count == A000055[n - 1]


class TestCenterRootedKeys:
    """Each class key is rooted at a center, against networkx's centers and
    automorphism counts."""

    def test_root_is_a_center_and_the_second_half_comes_last(self):
        nx = pytest.importorskip("networkx")
        for n, keys in enumerate(_free_trees(10), 1):
            for key in keys:
                graph = nx.Graph()
                graph.add_nodes_from(range(n))
                graph.add_edges_from(zip(key[1:], range(1, n)))
                centers = sorted(nx.center(graph))
                assert centers[0] == 0
                if len(centers) == 2:
                    # the second center is the root's last child, and its
                    # half, everything past it, hangs from it
                    h = centers[1]
                    assert h == max(k for k in range(1, n) if key[k] == 0)
                    assert all(key[k] >= h for k in range(h + 1, n))

    def test_automorphisms_against_networkx_through_order_nine(self):
        pytest.importorskip("networkx")
        for n, keys in enumerate(_free_trees(9), 1):
            for key, aut in keys.items():
                assert aut == len(automorphisms(key))


class TestPruferRank:
    """The rank encoder against the decode, and the labeled copies of each
    class (verify._copies) against the ranks they must cover."""

    def test_inverts_the_decode_through_order_seven(self):
        for n in range(1, 8):
            for rank in range(cayley(n)):
                assert _prufer_rank(n, _rank_edges(n, rank)) == rank

    @given(st.integers(8, 14).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n ** (n - 2) - 1))))
    def test_inverts_the_decode_at_orders_eight_to_fourteen(self, case):
        n, rank = case
        edges = _rank_edges(n, rank)
        assert _prufer_rank(n, edges) == rank
        # the edges in any order, either way round
        assert _prufer_rank(n, [(b, a) for a, b in reversed(edges)]) == rank

    def test_copies_partition_the_ranks_through_order_seven(self):
        for n, found in enumerate(_free_trees(7), 1):
            ranks = []
            for key, aut in found.items():
                mine = []
                for names in verify._copies(key):
                    edges = [(names[key[k]], names[k]) for k in range(1, n)]
                    mine.append(_prufer_rank(n, edges))
                    assert set(map(frozenset, _rank_edges(n, mine[-1]))) == set(map(frozenset, edges))
                assert len(mine) == math.factorial(n) // aut
                ranks += mine
            assert sorted(ranks) == list(range(cayley(n)))

    def test_a_dropped_copy_fails_at_its_order(self, monkeypatch):
        # every counterexample space witnessed: the order-5 path fails, and
        # its expansion comes one copy short of 5!/2
        real = verify._copies
        monkeypatch.setattr(verify, "_copies", lambda key: itertools.islice(real(key), 1, None))
        monkeypatch.setattr(verify, "_first_witness", lambda parents, order, lab: 0)
        with pytest.raises(RuntimeError, match="at order 5: 59 labeled copies, predicted 60"):
            verify_main_theorem(5, (0, 1))
