import copy
import json
import itertools
import pickle
import sys
from collections.abc import Sequence
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import (
    FIG1_MATRIX,
    FIG1_POINTS,
    FIXTURES,
    LABEL_POOL,
    all_labelings,
    brute_form,
    brute_isometric,
    brute_validate,
    brute_witness,
    coded_matrix,
    independent_ranking,
    index_adjacency,
    labeled,
    pair_paths,
    path_tree,
    random_labeled_trees,
    random_spaces,
    space_of,
    star_tree,
)
from ultratree import (
    CanonicalForm,
    LabeledTree,
    UltratreeError,
    EmptySubset,
    FiniteUltrametricSpace,
    NotUS,
    ParseError,
    PositivityViolation,
    StrongTriangleViolation,
    SymmetryViolation,
    UnknownPoint,
    build_ultrametric,
    canonical_form,
    check_isometric,
    enumerate_trees,
    is_nondegenerate,
    labeled_tree_from_dict,
    labeled_tree_to_dict,
    raw_distance_matrix,
    realize_as_star,
    restrict,
    space_from_dict,
    space_to_dict,
    us_witness,
    validate_tree,
    validate_ultrametric,
)
from ultratree import cli, spaces
from ultratree.cli import run
from ultratree.labelings import _path_max
from ultratree.rationals import coerce_nonnegative, parse_rational
from ultratree.spaces import (
    _column_minima,
    _first_offender,
    _joins,
    _rank,
    _row_minima,
    _witness_index,
)
from ultratree.trees import _bfs_parents, _free_trees, _index_tree, longest_path_length


def fig1_space():
    return space_of(FIG1_POINTS, FIG1_MATRIX)


def star_space():
    # center c at 0; leaves at pairwise max of their center distances
    return space_of(
        ("c", "x", "y", "z"),
        ((0, 1, 2, 3), (1, 0, 2, 3), (2, 2, 0, 3), (3, 3, 3, 0)),
    )


def small_us_corpus(max_order=4, values=(0, 1, 2)):
    """Every space generated by a nondegenerate labeling of a small tree."""
    spaces = []
    for n in range(1, max_order + 1):
        for tree in enumerate_trees(n):
            for lt in all_labelings(tree, values):
                if is_nondegenerate(lt):
                    spaces.append(build_ultrametric(lt))
    return spaces


class TestSpaceType:
    def test_entries_coerced(self):
        s = space_of(("a", "b"), ((0, "1/2"), ("1/2", 0)))
        assert s.distance("a", "b") == Fraction(1, 2)

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            FiniteUltrametricSpace(("a", "b"), ((0, 0.5), (0.5, 0)))

    def test_unknown_point(self):
        with pytest.raises(UnknownPoint):
            fig1_space().distance("v1", "nope")

    @pytest.mark.parametrize(
        "points, dist",
        [
            (("a", "b"), ((0, 1, 5), (1, 0))),  # a row longer than the points
            (("a", "b", "c"), ((0, 1), (1, 0))),  # more points than rows
        ],
        ids=["long-row", "short-matrix"],
    )
    def test_matrix_of_the_wrong_shape_is_rejected(self, points, dist):
        for build in (FiniteUltrametricSpace, validate_ultrametric):
            shape = f"distance matrix must be {len(points)}x{len(points)}"
            with pytest.raises(ValueError, match=shape):
                build(points, dist)

    @pytest.mark.parametrize(
        "points, dist, message",
        [
            ((), (), "at least one point"),
            (("a", "b", "a"), ((0, 1, 2), (1, 0, 2), (2, 2, 0)), "must be unique"),
        ],
        ids=["empty", "repeated"],
    )
    def test_points_are_checked_as_validation_checks_them(self, points, dist, message):
        # the repeated-point matrix satisfies the axioms: only the names can fail it
        for build in (FiniteUltrametricSpace, validate_ultrametric):
            with pytest.raises(ValueError, match=message):
                build(points, dist)


class TestValidateUltrametric:
    def test_valid_example(self):
        s = validate_ultrametric(FIG1_POINTS, FIG1_MATRIX)
        assert s.dist == FIG1_MATRIX

    def test_one_point(self):
        s = validate_ultrametric(("p",), ((0,),))
        assert s.size == 1

    def test_empty(self):
        with pytest.raises(ValueError):
            validate_ultrametric((), ())

    def test_duplicate_points(self):
        with pytest.raises(ValueError):
            validate_ultrametric(("a", "a"), ((0, 1), (1, 0)))

    def test_not_square(self):
        with pytest.raises(ValueError):
            validate_ultrametric(("a", "b"), ((0, 1),))

    def test_negative_entry(self):
        with pytest.raises(PositivityViolation):
            validate_ultrametric(("a", "b"), ((0, -1), (-1, 0)))

    def test_nonzero_diagonal(self):
        with pytest.raises(PositivityViolation):
            validate_ultrametric(("a", "b"), ((1, 1), (1, 0)))

    def test_zero_off_diagonal(self):
        with pytest.raises(PositivityViolation) as info:
            validate_ultrametric(("a", "b"), ((0, 0), (0, 0)))
        assert info.value.offenders == ("a", "b")

    def test_asymmetric(self):
        with pytest.raises(SymmetryViolation):
            validate_ultrametric(("a", "b"), ((0, 1), (2, 0)))

    def test_strong_triangle(self):
        with pytest.raises(StrongTriangleViolation):
            validate_ultrametric(
                ("x", "y", "z"),
                ((0, 3, 1), (3, 0, 1), (1, 1, 0)),
            )


class TestWitness:
    def test_two_level_space_has_none(self):
        assert us_witness(fig1_space()) is None
        assert brute_witness(fig1_space()) is None

    def test_star_space_center(self):
        assert us_witness(star_space()) == "c"

    def test_tiny_spaces(self):
        assert us_witness(space_of(("p",), ((0,),))) == "p"
        assert us_witness(space_of(("p", "q"), ((0, 4), (4, 0)))) == "p"

    def test_matches_oracle_on_corpus(self):
        for space in small_us_corpus():
            assert us_witness(space) == brute_witness(space)


class TestRestrict:
    def test_pair(self):
        sub = restrict(fig1_space(), ("v1", "v2"))
        assert sub.points == ("v1", "v2")
        assert sub.dist == ((Fraction(0), Fraction(2)), (Fraction(2), Fraction(0)))

    def test_order_follows_the_space_not_the_subset(self):
        sub = restrict(fig1_space(), ("v5", "v1", "v3"))
        assert sub.points == ("v1", "v3", "v5")

    def test_full_subset_is_identity(self):
        s = fig1_space()
        assert restrict(s, s.points) == s

    def test_singleton(self):
        sub = restrict(fig1_space(), ("v3",))
        assert sub.dist == ((Fraction(0),),)

    def test_empty_subset(self):
        with pytest.raises(EmptySubset):
            restrict(fig1_space(), ())

    def test_unknown_point(self):
        with pytest.raises(UnknownPoint):
            restrict(fig1_space(), ("v1", "bogus"))

    def test_witnessed_spaces_stay_witnessed(self):
        s = star_space()
        for subset in (("c", "x"), ("x", "y", "z"), ("c", "z"), ("y",)):
            assert us_witness(restrict(s, subset)) is not None

    @settings(max_examples=60)
    @given(random_spaces(max_order=40), st.data())
    def test_subspaces_are_coded_where_made(self, space, data):
        # small subsets of large spaces often lose some distance values
        subset = data.draw(st.sets(st.sampled_from(space.points), min_size=1, max_size=8)
                           | st.sets(st.sampled_from(space.points), min_size=1))
        sub = restrict(space, subset)
        assert _is_seeded(sub)
        assert us_witness(sub) == brute_witness(sub)
        assert canonical_form(sub) == brute_form(sub)

    def test_values_no_entry_holds_are_dropped(self):
        # the path 1 - 4 - 2 - 5 - 3 holds 4 and 5; v1..v3 hold only 4, v1 and v5 only 5
        space = build_ultrametric(labeled(path_tree(5), (1, 4, 2, 5, 3)))
        assert space._ranked[0] == [0, 4, 5]
        sub = restrict(space, ("v1", "v2", "v3"))
        assert _listed(sub) == ([0, 4], [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        sub = restrict(space, ("v5", "v1"))
        assert _listed(sub) == ([0, 5], [[0, 1], [1, 0]]) == independent_ranking(sub)
        assert sub.dist == ((0, 5), (5, 0))


class TestRealizeAsStar:
    def test_star_space_round_trip(self):
        s = star_space()
        lt = realize_as_star(s)
        assert lt.labels == {
            "c": Fraction(0), "x": Fraction(1), "y": Fraction(2), "z": Fraction(3)
        }
        assert set(lt.tree.edges) == {("c", "x"), ("c", "y"), ("c", "z")}
        assert build_ultrametric(lt) == s

    def test_two_point_space(self):
        s = space_of(("p", "q"), ((0, 5), (5, 0)))
        lt = realize_as_star(s)
        assert lt.labels == {"p": Fraction(0), "q": Fraction(5)}
        assert build_ultrametric(lt) == s

    def test_one_point_space(self):
        s = space_of(("p",), ((0,),))
        lt = realize_as_star(s)
        assert lt.tree.order == 1
        assert build_ultrametric(lt) == s

    def test_not_us(self):
        with pytest.raises(NotUS):
            realize_as_star(fig1_space())

    def test_round_trip_on_corpus(self):
        checked = 0
        for space in small_us_corpus():
            if us_witness(space) is None:
                continue
            lt = realize_as_star(space)
            center = us_witness(space)
            assert all(center in e for e in lt.tree.edges)
            assert build_ultrametric(lt) == space
            checked += 1
        assert checked > 100


class TestCanonicalForm:
    def test_one_point(self):
        form = canonical_form(space_of(("p",), ((0,),)))
        assert form.diameter == 0
        assert form.children == ()
        assert form.serialized == "(0)"

    def test_two_points(self):
        form = canonical_form(space_of(("p", "q"), ((0, 4), (4, 0))))
        assert form.diameter == 4
        assert [c.serialized for c in form.children] == ["(0)", "(0)"]
        assert form.serialized == "(4(0)(0))"

    def test_two_level_space(self):
        form = canonical_form(fig1_space())
        assert form.serialized == "(3(0)(2(0)(0))(2(0)(0)))"

    def test_children_sorted_and_strictly_shallower(self):
        def walk(form):
            keys = [c.serialized for c in form.children]
            assert keys == sorted(keys)
            for child in form.children:
                assert child.diameter < form.diameter
                walk(child)

        for space in (fig1_space(), star_space()):
            walk(canonical_form(space))

    def test_multi_point_splits(self):
        for space in small_us_corpus(max_order=3):
            form = canonical_form(space)
            if space.size > 1:
                assert len(form.children) >= 2
                assert sum(_leaves(c) for c in form.children) == space.size


def _leaves(form):
    if not form.children:
        return 1
    return sum(_leaves(c) for c in form.children)


def _permuted(space, perm):
    pts = tuple(space.points[i] for i in perm)
    rows = tuple(tuple(space.dist[i][j] for j in perm) for i in perm)
    return FiniteUltrametricSpace(pts, rows)


class TestIsometry:
    def test_renaming_points_is_an_isometry(self):
        relabeled = space_of(("a", "b", "c", "d", "e"), FIG1_MATRIX)
        assert check_isometric(fig1_space(), relabeled)
        assert brute_isometric(fig1_space(), relabeled)

    def test_mirrored_labeling_is_isometric(self):
        mirrored = build_ultrametric(labeled(path_tree(5), (2, 2, 3, 2, 2)[::-1]))
        assert check_isometric(fig1_space(), mirrored)

    def test_size_mismatch(self):
        assert not check_isometric(fig1_space(), star_space())

    def test_distance_mismatch(self):
        a = space_of(("p", "q"), ((0, 2), (2, 0)))
        b = space_of(("p", "q"), ((0, 3), (3, 0)))
        assert not check_isometric(a, b)
        # one value set {1, 2}, with two pairs at 1 against one
        two = space_of(
            ("p", "q", "r", "s"),
            ((0, 1, 2, 2), (1, 0, 2, 2), (2, 2, 0, 1), (2, 2, 1, 0)),
        )
        one = space_of(
            ("p", "q", "r", "s"),
            ((0, 1, 2, 2), (1, 0, 2, 2), (2, 2, 0, 2), (2, 2, 2, 0)),
        )
        assert not check_isometric(two, one)
        assert not check_isometric(one, two)

    def test_equal_multisets_can_still_differ(self):
        # one 4-block with two tight pairs plus two far points, versus two
        # 3-blocks; both have distance multiset {1,1,2,2,2,2,3 x 9}
        blocky = space_of(
            ("a", "b", "c", "d", "e", "f"),
            (
                (0, 1, 2, 2, 3, 3),
                (1, 0, 2, 2, 3, 3),
                (2, 2, 0, 1, 3, 3),
                (2, 2, 1, 0, 3, 3),
                (3, 3, 3, 3, 0, 3),
                (3, 3, 3, 3, 3, 0),
            ),
        )
        paired = space_of(
            ("a", "b", "c", "d", "e", "f"),
            (
                (0, 1, 2, 3, 3, 3),
                (1, 0, 2, 3, 3, 3),
                (2, 2, 0, 3, 3, 3),
                (3, 3, 3, 0, 1, 2),
                (3, 3, 3, 1, 0, 2),
                (3, 3, 3, 2, 2, 0),
            ),
        )
        validate_ultrametric(blocky.points, blocky.dist)
        validate_ultrametric(paired.points, paired.dist)
        multiset = sorted(
            blocky.dist[i][j] for i in range(6) for j in range(i + 1, 6)
        )
        assert multiset == sorted(
            paired.dist[i][j] for i in range(6) for j in range(i + 1, 6)
        )
        assert not check_isometric(blocky, paired)
        assert not brute_isometric(blocky, paired)

    def test_a_chain_and_two_pairs_over_one_value_set(self):
        # (((x y) z) u) against ((x y) (z u)) at distances {1, 2, 3}: were a
        # point's number also a node's, x's number would stand for (x y)
        chain = validate_ultrametric("xyzu", ((0, 1, 2, 3), (1, 0, 2, 3), (2, 2, 0, 3), (3, 3, 3, 0)))
        pairs = validate_ultrametric("xyzu", ((0, 1, 3, 3), (1, 0, 3, 3), (3, 3, 0, 2), (3, 3, 2, 0)))
        assert not check_isometric(chain, pairs)
        assert not check_isometric(pairs, chain)
        assert canonical_form(chain) != canonical_form(pairs)

    def test_matches_oracle_on_every_four_point_space_over_three_values(self):
        # same-size, same-value pairs, which the shortcut cannot decide
        found = []
        for upper in itertools.product((1, 2, 3), repeat=6):
            rows = [[0] * 4 for _ in range(4)]
            for (i, j), x in zip(itertools.combinations(range(4), 2), upper):
                rows[i][j] = rows[j][i] = x
            try:
                found.append(validate_ultrametric("abcd", rows))
            except StrongTriangleViolation:
                pass
        pairs = [(a, b) for a in found for b in found if a._ranked[0] == b._ranked[0]]
        assert (len(found), len(pairs)) == (60, 834)
        for a, b in pairs:
            assert check_isometric(a, b) == brute_isometric(a, b)

    def test_matches_oracle_on_corpus(self):
        distinct = list({(s.points, s.dist): s for s in small_us_corpus()}.values())
        small = [s for s in distinct if s.size <= 4]
        for i, a in enumerate(small):
            for b in small[i:]:
                assert check_isometric(a, b) == brute_isometric(a, b)

    @given(random_labeled_trees(max_order=6), st.data())
    def test_invariant_under_permutation(self, lt, data):
        assume(is_nondegenerate(lt))
        space = build_ultrametric(lt)
        perm = data.draw(st.permutations(range(space.size)))
        shuffled = _permuted(space, perm)
        assert check_isometric(space, shuffled)
        assert canonical_form(space).serialized == canonical_form(shuffled).serialized


def _outcome(validate, points, rows):
    try:
        return validate(points, rows)
    except UltratreeError as err:
        return type(err), str(err), err.offenders


class TestAgainstOracles:
    """The quadratic kernels against the cubic scans and the recursive
    split they replaced, kept in helpers as oracles."""

    @settings(max_examples=60)
    @given(random_labeled_trees(max_order=40))
    def test_validation_on_tree_matrices(self, lt):
        points, rows = raw_distance_matrix(lt)
        assert _outcome(validate_ultrametric, points, rows) == _outcome(
            brute_validate, points, rows
        )

    @settings(max_examples=150)
    @given(random_spaces(min_order=2), st.data())
    def test_validation_with_one_entry_perturbed(self, space, data):
        n = space.size
        i = data.draw(st.integers(0, n - 1))
        j = data.draw(st.integers(0, n - 1))
        value = data.draw(st.sampled_from(LABEL_POOL + (Fraction(7),)))
        rows = [list(row) for row in space.dist]
        rows[i][j] = value
        if data.draw(st.booleans()):
            rows[j][i] = value
        assert _outcome(validate_ultrametric, space.points, rows) == _outcome(
            brute_validate, space.points, rows
        )

    @settings(max_examples=60)
    @given(random_spaces())
    def test_witness(self, space):
        assert us_witness(space) == brute_witness(space)

    @settings(max_examples=60)
    @given(random_spaces())
    def test_canonical_form(self, space):
        form = canonical_form(space)
        assert form.serialized == brute_form(space).serialized
        assert form == brute_form(space)

    @given(random_spaces(max_order=7), st.data())
    def test_isometry_up_to_order_seven(self, a, data):
        if data.draw(st.booleans()):
            b = data.draw(random_spaces(min_order=a.size, max_order=a.size))
        else:
            b = _permuted(a, data.draw(st.permutations(range(a.size))))
        assert check_isometric(a, b) == brute_isometric(a, b)

    def test_deep_dendrogram_needs_no_recursion(self):
        # d(i, j) = max(i, j): point k joins the points below it at k, a
        # dendrogram 299 levels deep
        n = 300
        points = [f"p{i}" for i in range(n)]
        rows = [[0 if i == j else max(i, j) for j in range(n)] for i in range(n)]
        space = validate_ultrametric(points, rows)
        flipped = validate_ultrametric(points[::-1], [row[::-1] for row in rows[::-1]])
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            form = canonical_form(space)
            same = check_isometric(space, flipped)
        finally:
            sys.setrecursionlimit(limit)
        assert same
        assert form.serialized.startswith("(299(0)(298(0)(297(0)")
        assert form.serialized.count("(") == 2 * n - 1

    def test_deep_forms_compare_hash_and_print_without_recursion(self):
        # d(i, j) = max(i, j) on 1,100 points, deeper than the default
        # recursion limit: a star whose center is labeled 0
        n = 1100
        names = [f"p{i}" for i in range(n)]
        star = validate_tree(names, [(names[0], v) for v in names[1:]])
        space = build_ultrametric(LabeledTree(star, dict(zip(names, range(n)))))
        assert space.distance("p3", "p7") == 7
        form, again = canonical_form(space), canonical_form(space)
        hand = CanonicalForm(Fraction(0), ())
        for k in range(1, n):
            hand = CanonicalForm(Fraction(k), (CanonicalForm(Fraction(0), ()), hand))
        assert form == again == hand
        assert hash(form) == hash(again) == hash(hand)
        assert form != CanonicalForm(Fraction(0), ())
        assert repr(hand).startswith("CanonicalForm('(1099(0)(1098(0)")
        assert hand.serialized.count("(") == 2 * n - 1


def _small_code_matrices(max_order=5, codes=(1, 2, 3)):
    """Every symmetric matrix with a zero diagonal and off-diagonal entries
    from ``codes``, on 1 to ``max_order`` points."""
    for n in range(1, max_order + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for upper in itertools.product(codes, repeat=len(pairs)):
            d = [[0] * n for _ in range(n)]
            for (i, j), x in zip(pairs, upper):
                d[i][j] = d[j][i] = x
            yield d


class TestJoinRule:
    """The join rule of validation and canonical forms on every small matrix
    of rank codes, against the scan over every ordered triple and the
    recursive split."""

    def test_every_small_matrix(self):
        matrices = ultrametrics = 0
        for d in _small_code_matrices():
            n = len(d)
            triples = itertools.product(range(n), repeat=3)
            valid = not any(d[i][j] > max(d[i][k], d[k][j]) for i, j, k in triples)
            offence = _first_offender(d)
            assert _first_offender(list(map(bytes, d))) == offence
            if valid:
                assert offence is None
                space = FiniteUltrametricSpace(tuple(f"p{i}" for i in range(n)), d)
                assert canonical_form(space) == brute_form(space)
                ultrametrics += 1
            else:
                axiom, (i, j, k) = offence
                assert axiom == "strong-triangle"
                assert d[i][j] > max(d[i][k], d[k][j])
            matrices += 1
        assert (matrices, ultrametrics) == (59_809, 434)


def _any_outcome(validate, points, rows):
    """The space, or the class, message and offenders of what was raised."""
    try:
        return validate(points, rows)
    except Exception as err:
        return type(err), str(err), getattr(err, "offenders", None)


BIG = 2**70  # above every cached int, so equal ints are distinct objects

# one bad entry: a negative, a float, True, a zero or an asymmetric value
PERTURBATIONS = ("none", "negative", "float", "true", "zero", "asymmetric")


@st.composite
def mixed_entry_matrices(draw):
    """(points, rows) of a random space, scaled by 1 or BIG, each entry a
    fresh int, str or Fraction object of its value, then one entry perturbed
    (in one cell or in both mirrored cells)."""
    space = draw(random_spaces(min_order=2, max_order=12))
    scale = draw(st.sampled_from((1, BIG)))

    def spread(q):
        kind = draw(st.sampled_from(("int", "str", "fraction")))
        if kind == "int" and q.denominator == 1:
            return int(str(q.numerator))
        if kind == "str":
            return str(q)
        return Fraction(q.numerator, q.denominator)

    rows = [[spread(x * scale) for x in row] for row in space.dist]
    n = space.size
    i = draw(st.integers(0, n - 1))
    j = draw(st.integers(0, n - 1))
    kind = draw(st.sampled_from(PERTURBATIONS))
    q = space.dist[i][j] * scale
    bad = {
        "none": rows[i][j],
        "negative": draw(st.sampled_from((-1, "-3", Fraction(-1, 2), -BIG))),
        "float": float(q),
        "true": True,
        "zero": draw(st.sampled_from((0, "0", Fraction(0)))),
        "asymmetric": spread(q + 1),
    }[kind]
    rows[i][j] = bad
    if kind != "asymmetric" and draw(st.booleans()):
        rows[j][i] = bad
    return space.points, rows


class FreshRows(Sequence):
    """A matrix that builds new rows of new int objects on every access, so
    an id taken from one access may name another value on the next."""

    def __init__(self, rows):
        self.rows = rows

    def __len__(self):
        return len(self.rows)

    def __getitem__(self, i):
        return [int(str(x)) for x in self.rows[i]]


def _listed(space):
    """A space's (values, codes) with each code row as a list of ints."""
    values, codes = space.__dict__["_ranked"]
    return values, [list(row) for row in codes]


def _is_seeded(space):
    """The space carries the oracle's ranking, in byte rows up to 256 values."""
    values, codes = space.__dict__["_ranked"]
    row_type = bytes if len(values) <= 256 else list
    return all(type(row) is row_type for row in codes) and _listed(space) == independent_ranking(space)


class TestRankedBoundary:
    """Spaces are rank-coded once where they are made; the checks on codes
    agree with the entry-by-entry oracle."""

    @settings(max_examples=150)
    @given(mixed_entry_matrices())
    def test_validation_on_mixed_entry_objects(self, case):
        points, rows = case
        got = _any_outcome(validate_ultrametric, points, rows)
        assert got == _any_outcome(brute_validate, points, rows)
        if isinstance(got, FiniteUltrametricSpace):
            assert _is_seeded(got)

    @settings(max_examples=40)
    @given(random_spaces(min_order=2, max_order=12), st.data())
    def test_fresh_rows_on_every_access(self, space, data):
        rows = [[x * 2 * BIG for x in row] for row in space.dist]
        i = data.draw(st.integers(0, space.size - 1))
        j = data.draw(st.integers(0, space.size - 1))
        rows[i][j] = data.draw(st.sampled_from((rows[i][j], rows[i][j] + 1, 0, 3 * BIG)))
        fresh = FreshRows([[int(x) for x in row] for row in rows])
        got = _any_outcome(validate_ultrametric, space.points, fresh)
        assert got == _any_outcome(brute_validate, space.points, fresh)
        if isinstance(got, FiniteUltrametricSpace):
            assert _is_seeded(got)

    @settings(max_examples=80)
    @given(random_labeled_trees(max_order=12))
    def test_every_space_made_carries_its_ranking(self, lt):
        assume(is_nondegenerate(lt))
        built = build_ultrametric(lt)
        made = [
            built,
            validate_ultrametric(built.points, built.dist),
            space_from_dict(space_to_dict(built)),
            FiniteUltrametricSpace(built.points, [[str(x) for x in row] for row in built.dist]),
        ]
        for space in made:
            assert space == built
            assert _is_seeded(space)
            if us_witness(space) is not None:
                assert build_ultrametric(realize_as_star(space)) == space
        sub = restrict(built, built.points[::2])
        assert _is_seeded(sub)

    def test_labels_that_never_show_are_not_ranked(self):
        # a star's leaves below their center's label appear in no distance
        space = build_ultrametric(labeled(star_tree(4), (5, 1, 2, 0)))
        assert _listed(space) == ([0, 5], [[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]])
        assert _listed(build_ultrametric(labeled(path_tree(1), (7,)))) == ([0], [[0]])


def _fresh(text):
    """A new str object equal to ``text``."""
    return "".join(list(text))


class TestRankByValue:
    """Exact str and int entries are coerced once per distinct value, not
    once per object; other entries once per object."""

    def _counting(self, monkeypatch):
        calls = []
        real = spaces.coerce_nonnegative
        monkeypatch.setattr(spaces, "coerce_nonnegative", lambda x: calls.append(x) or real(x))
        return calls

    def test_one_coercion_per_distinct_value(self, monkeypatch):
        calls = self._counting(monkeypatch)
        n = 60
        rows = [[0 if i == j else _fresh("10") for j in range(n)] for i in range(n)]
        assert len({id(x) for row in rows for x in row}) == n * (n - 1) + 1
        space = validate_ultrametric([f"p{i}" for i in range(n)], rows)
        assert sorted(calls, key=str) == [0, "10"]
        assert space._ranked[0] == [0, 10] and _is_seeded(space)
        calls.clear()
        FiniteUltrametricSpace(space.points, [[str(x) for x in row] for row in space.dist])
        assert sorted(calls) == ["0", "10"]

    def test_objects_of_other_types_coerce_once_each(self, monkeypatch):
        calls = self._counting(monkeypatch)
        rows = [[0, Fraction(2), "2"], [Fraction(2), 0, 2], ["2", 2, 0]]
        validate_ultrametric("abc", rows)
        assert len(calls) == 5  # 0, "2", 2 and each Fraction object

    def test_first_bad_entry_raises_and_names_its_cell(self):
        # equal negatives share a key; the error names the first cell holding it
        rows = [[0, "10", "10"], [_fresh("10"), 0, _fresh("-3")], [_fresh("10"), _fresh("-3"), 0]]
        with pytest.raises(ValueError) as info:
            _rank(rows, spaces.coerce_nonnegative)
        assert info.value.at == (1, 2)
        rows[2][0] = 2.0  # a float after the first negative: the negative still comes first
        with pytest.raises(PositivityViolation) as info:
            validate_ultrametric("abc", rows)
        assert info.value.offenders == ("b", "c")
        rows[0][1] = 2.0  # a float before it: TypeError, not a named cell
        with pytest.raises(TypeError):
            validate_ultrametric("abc", rows)

    def test_true_and_floats_are_not_their_int(self):
        for bad in (True, 1.0, Fraction(1)):
            rows = [[0, 1, 1], [1, 0, bad], [1, bad, 0]]
            got = _any_outcome(validate_ultrametric, "abc", rows)
            assert got == _any_outcome(brute_validate, "abc", rows)


class TestByteJoins:
    """The join rule by translate on byte rows against its rule on list rows, and
    _first_offender on byte and list rows of one matrix."""

    @example(near=[255, 0, 7], m=0, data=None)
    @example(near=[255, 254, 0], m=255, data=None)
    @example(near=[], m=255, data=None)
    @given(st.lists(st.integers(0, 255), max_size=40), st.integers(0, 255), st.data())
    def test_translate_join_agrees_with_the_list_rule(self, near, m, data):
        joined = [max(m, w) for w in near]
        rows = [joined, near, [255] * len(near)]
        if data is not None:
            rows.append(data.draw(st.lists(st.integers(0, 255), min_size=len(near), max_size=len(near))))
            if near:
                k = data.draw(st.integers(0, len(near) - 1))
                rows.append(joined[:k] + [data.draw(st.integers(0, 255))] + joined[k + 1:])
        for r in rows:
            assert _joins(bytes(r), m, bytes(near)) == _joins(r, m, near)
            assert _joins(bytearray(r), m, bytearray(near)) == _joins(r, m, near)
        assert _joins(bytes(joined), m, bytes(near)) is (m > 0)

    @settings(max_examples=150)
    @given(mixed_entry_matrices())
    def test_first_offender_reads_byte_and_list_rows_alike(self, case):
        points, rows = case
        try:
            codes = _rank(rows, coerce_nonnegative)[1]
        except (TypeError, ValueError):
            return
        lists = [list(row) for row in codes]
        assert _first_offender(list(map(bytes, lists))) == _first_offender(lists)


def _max_rows(n):
    """d(i, j) = max(i, j) off the diagonal: the space of a star whose
    center is labeled 0 and whose leaves are labeled 1 to n - 1, n values."""
    return [[0 if i == j else max(i, j) for j in range(n)] for i in range(n)]


def _from_json(points, rows):
    """space_from_dict of the document holding each entry as a string."""
    return space_from_dict({"points": list(points), "dist": [[str(x) for x in row] for row in rows]})


def _first_parse_error(rows):
    """The message parse_rational gives the first bad entry in row-major order."""
    for x in itertools.chain.from_iterable(rows):
        try:
            parse_rational(x)
        except UltratreeError as err:
            return str(err)
    return None


class TestByteWidthBoundary:
    """Spaces of 256 values keep byte rows and spaces of 257 list rows; every
    call answers on either as the oracles do. The cubic brute_validate runs
    on matrices whose first offence comes early; the valid matrix is checked
    against the space of the labeled star that generates it."""

    @pytest.mark.parametrize("n", (256, 257))
    def test_every_call_at_the_width_of_a_byte(self, n):
        star = labeled(star_tree(n), range(n))
        points, rows = star.tree.vertices, _max_rows(n)
        text = [[str(x) for x in row] for row in rows]
        built = build_ultrametric(star)
        loaded = _from_json(points, rows)
        for space in (loaded, validate_ultrametric(points, rows), FiniteUltrametricSpace(points, text)):
            assert space == built and hash(space) == hash(built)
            assert len(space._ranked[0]) == n and _is_seeded(space)
        assert space_to_dict(loaded)["dist"] == text
        assert us_witness(loaded) == brute_witness(loaded) == "v1"
        assert build_ultrametric(realize_as_star(loaded)) == loaded
        form = canonical_form(loaded)
        assert form == brute_form(SimpleNamespace(dist=rows, size=n))  # on ints, to be quick
        perm = list(range(n))[::-1]
        flipped = _permuted(loaded, perm)
        assert _is_seeded(flipped) and check_isometric(loaded, flipped)
        other = build_ultrametric(labeled(star_tree(n), [*range(n - 1), n]))
        assert not check_isometric(loaded, other) and form != canonical_form(other)
        codes = loaded._ranked[1]
        assert _first_offender(codes) is None
        lists = [list(row) for row in codes]
        assert _witness_index(codes, _column_minima(loaded)) == _witness_index(lists, _row_minima(lists)) == 0
        # offences found early: strong triangle, symmetry and positivity
        for cells, x in ((((0, 2), (2, 0)), 1), (((0, n - 1),), n - 2), (((n - 1, n - 2), (n - 2, n - 1)), 0)):
            bad = [row[:] for row in rows]
            for i, j in cells:
                bad[i][j] = x
            got = _any_outcome(validate_ultrametric, points, bad)
            assert isinstance(got, tuple) and got == _any_outcome(brute_validate, points, bad)
            assert _any_outcome(_from_json, points, bad) == got

    def test_restricting_below_the_width_makes_byte_rows(self):
        n = 257
        points = [f"p{i}" for i in range(n)]
        space = validate_ultrametric(points, _max_rows(n))
        assert all(type(row) is list for row in space._ranked[1])
        for keep in (points[:256], points[1:], points[::2], points[:1]):
            sub = restrict(space, keep)
            fresh = validate_ultrametric(keep, [[space.distance(a, b) for b in keep] for a in keep])
            assert _is_seeded(sub) and all(type(row) is bytes for row in sub._ranked[1])
            assert sub == fresh and hash(sub) == hash(fresh)
        assert restrict(space, points) == space

    @pytest.mark.parametrize("n", (255, 256, 257))
    def test_the_first_bad_token_raises_past_the_width(self, n):
        # row 0 holds every token of the matrix, so each bad one comes later
        points = [f"p{i}" for i in range(n)]
        text = [[str(x) for x in row] for row in _max_rows(n)]
        for bad in ({(5, 3): "bad(5, 3)", (7, 2): True}, {(3, 1): None, (5, 3): "1/0"}, {(9, 4): "-3"}):
            dist = [row[:] for row in text]
            for (i, j), x in bad.items():
                dist[i][j] = x
            with pytest.raises(ParseError) as info:
                space_from_dict({"points": points, "dist": dist})
            assert str(info.value) == _first_parse_error(dist)
        dist = [row[:] for row in text]
        dist[9][4] = "-3"
        got = _any_outcome(validate_ultrametric, points, dist)
        assert got == _any_outcome(brute_validate, points, dist)
        assert got[0] is PositivityViolation and got[2] == ("p9", "p4")


class TestTrustedStar:
    """realize_as_star builds its star unchecked; it equals the checked one."""

    def test_round_trip_grid_through_order_six(self):
        checked = 0
        for n, classes in enumerate(_free_trees(6), start=1):
            names = tuple(f"v{i + 1}" for i in range(n))
            for key in classes:
                tree = _index_tree(names, [(key[k], k) for k in range(1, n)])
                if longest_path_length(tree) > 3:
                    continue
                for values in itertools.product((0, 1, 2), repeat=n):
                    lt = labeled(tree, values)
                    if not is_nondegenerate(lt):
                        continue
                    space = build_ultrametric(lt)
                    star = realize_as_star(space)
                    center = us_witness(space)
                    edges = [(center, p) for p in space.points if p != center]
                    assert star.tree == validate_tree(space.points, edges)
                    row = space.dist[space.points.index(center)]
                    assert dict(star.labels) == dict(zip(space.points, row))
                    assert all(type(q) is Fraction for q in star.labels.values())
                    assert star == LabeledTree(star.tree, dict(star.labels))
                    assert build_ultrametric(star) == space
                    checked += 1
        assert checked > 1000


def _brute_decode(space):
    """A space's matrix read cell by cell from its rank codes."""
    values, codes = space._ranked
    return tuple(tuple(values[codes[i][j]] for j in range(space.size)) for i in range(space.size))


def _fractions(rows):
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def _no_decode(monkeypatch):
    def refuse(*args):
        raise AssertionError("decoded a Fraction matrix")

    monkeypatch.setattr(spaces, "_decode", refuse)


class TestLazyDist:
    """Spaces hold only their codes until ``dist`` is read; what reads it,
    compares or hashes a space sees what an eagerly decoded space showed."""

    @staticmethod
    def _made(lt, keep):
        """(space, its matrix by an oracle) from every maker of a space."""
        n = lt.tree.order
        labels = [lt.labels[v] for v in lt.tree.vertices]
        rows = coded_matrix(n, pair_paths(n, index_adjacency(lt.tree)), labels)
        points = lt.tree.vertices
        text = [[str(x) for x in row] for row in rows]
        made = [
            (build_ultrametric(lt), rows),
            (validate_ultrametric(points, rows), rows),
            (space_from_dict({"points": list(points), "dist": text}), rows),
            (FiniteUltrametricSpace(points, text), rows),
        ]
        idx = [i for i, p in enumerate(points) if p in keep]
        block = [[rows[i][j] for j in idx] for i in idx]
        made.append((restrict(made[0][0], keep), block))
        return made

    @settings(max_examples=80)
    @given(random_labeled_trees(max_order=12), st.data())
    def test_every_maker_decodes_its_matrix_on_first_read(self, lt, data):
        assume(is_nondegenerate(lt))
        keep = data.draw(st.sets(st.sampled_from(lt.tree.vertices), min_size=1))
        for space, rows in self._made(lt, keep):
            assert "dist" not in space.__dict__
            assert space.dist == _brute_decode(space) == _fractions(rows)
            assert all(type(q) is Fraction for row in space.dist for q in row)
            assert space.__dict__["dist"] is space.dist  # kept once read

    @settings(max_examples=80)
    @given(random_spaces(max_order=10), random_spaces(max_order=10), st.data())
    def test_equality_and_hash_agree_with_the_decoded_matrices(self, a, b, data):
        perm = data.draw(st.permutations(range(a.size)))
        twins = [
            FiniteUltrametricSpace(a.points, [[str(x) for x in row] for row in a.dist]),
            validate_ultrametric(a.points, a.dist),
            space_from_dict(space_to_dict(a)),
            restrict(a, a.points),
            FiniteUltrametricSpace(
                [a.points[i] for i in perm], [[a.dist[i][j] for j in perm] for i in perm]
            ),
            FiniteUltrametricSpace(a.points, [[2 * x for x in row] for row in a.dist]),
            b,
        ]
        for other in twins:
            same = (a.points, a.dist) == (other.points, other.dist)
            assert (a == other) is same and (other == a) is same and (a != other) is not same
            if same:
                assert hash(a) == hash(other)
        assert a != (a.points, a.dist)

    @settings(max_examples=40)
    @given(random_spaces(max_order=12))
    def test_copies_and_pickles_are_equal(self, space):
        for read in (False, True):
            if read:
                space.dist
            for twin in (copy.deepcopy(space), pickle.loads(pickle.dumps(space))):
                assert twin == space and hash(twin) == hash(space)
                assert twin.dist == space.dist and twin._ranked == space._ranked

    def test_constructor_drops_the_callers_rows(self):
        space = FiniteUltrametricSpace(["a"], [["0"]])
        assert space.dist == ((Fraction(0),),)
        assert type(space.dist[0][0]) is Fraction
        assert space.distance("a", "a") == 0
        with pytest.raises(TypeError):
            FiniteUltrametricSpace(["a"])  # dist stays a required field

    @settings(max_examples=40, deadline=None)
    @given(random_spaces(max_order=40), random_labeled_trees(max_order=12))
    def test_request_paths_never_decode(self, space, lt):
        assume(is_nondegenerate(lt))
        doc, tree_doc = space_to_dict(space), labeled_tree_to_dict(lt)
        want = space_to_dict(FiniteUltrametricSpace(*raw_distance_matrix(lt)))
        far = space.dist[0][-1]
        with pytest.MonkeyPatch.context() as mp:
            _no_decode(mp)
            loaded = space_from_dict(doc)
            if us_witness(loaded) is not None:
                labeled_tree_to_dict(realize_as_star(loaded))
            assert check_isometric(loaded, space_from_dict(doc))
            assert space_to_dict(build_ultrametric(labeled_tree_from_dict(tree_doc))) == want
            assert loaded.distance(space.points[0], space.points[-1]) == far
            assert loaded == space and hash(loaded) == hash(space)

    def test_cli_paths_never_decode(self, monkeypatch, capsys, tmp_path):
        _no_decode(monkeypatch)
        fig1_space = str(FIXTURES / "fig1-space.json")
        for name in ("double-star", "star", "fig1-path"):
            out = tmp_path / f"{name}.json"
            assert run(["distance", str(FIXTURES / f"{name}.json"), "--json", str(out)]) == 0
            witnessed = run(["check-us", str(out)])
            assert witnessed in (0, 2)
            assert run(["realize", str(out)]) == witnessed
            assert run(["isometric", str(out), fig1_space]) == (0 if name == "fig1-path" else 2)
        capsys.readouterr()


class TestWitnessIndex:
    """_witness_index compares rows with column minima from its caller: a
    checked space's from the links its check found, any other space's and
    a path-max matrix's from its rows, which takes a symmetric matrix. The
    link minima are checked against the row minima, and the answers against
    brute_witness."""

    def test_matches_the_brute_witness_on_every_small_labeling(self):
        checked = 0
        for n, classes in enumerate(_free_trees(6), start=1):
            names = tuple(f"v{i + 1}" for i in range(n))
            for key in classes:
                tree = _index_tree(names, [(key[k], k) for k in range(1, n)])
                adj = index_adjacency(tree)
                pairs = pair_paths(n, adj)
                for lab in itertools.product(range(3), repeat=n):
                    d = _path_max(*_bfs_parents(n, adj, 0), lab)
                    assert list(map(list, d)) == coded_matrix(n, pairs, lab)
                    got = _witness_index(d, _row_minima(d))
                    brute = brute_witness(FiniteUltrametricSpace(names, d))
                    assert (None if got is None else names[got]) == brute
                    checked += 1
        assert checked == sum(3**n * len(c) for n, c in enumerate(_free_trees(6), start=1)) == 5304

    @staticmethod
    def _checked_agree(space, unchecked, matrix):
        """A checked space's link minima are its row minima, and its answers
        are those of the same matrix in an unchecked space and the oracles.
        The oracles read ``matrix`` itself, which the unchecked space must
        decode to: on ints they run about ten times faster than on Fractions."""
        assert space._mst is not None and unchecked._mst is None
        assert unchecked.dist == tuple(map(tuple, matrix))
        oracle = SimpleNamespace(size=len(matrix), dist=matrix, points=unchecked.points)
        codes = space._ranked[1]
        assert _column_minima(space) == _row_minima(codes) == _column_minima(unchecked)
        assert us_witness(space) == us_witness(unchecked) == brute_witness(oracle)
        if us_witness(space) is not None:
            assert build_ultrametric(realize_as_star(space)) == space
        assert canonical_form(space) == canonical_form(unchecked) == brute_form(oracle)

    @settings(max_examples=60)
    @given(random_spaces(max_order=40))
    def test_link_minima_are_row_minima_on_checked_spaces(self, space):
        rows = [[str(x) for x in row] for row in space.dist]
        for checked in (validate_ultrametric(space.points, space.dist), _from_json(space.points, rows)):
            self._checked_agree(checked, space, space.dist)

    @pytest.mark.parametrize("n", (2, 256, 257, 300))
    def test_link_minima_on_byte_and_list_rows(self, n):
        # d(i, j) = max(i, j) holds n values: byte rows up to 256, lists
        # above; reversed, the first witness is neither end of the order
        rows = _max_rows(n)
        points = [f"p{i}" for i in range(n)]
        back = [row[::-1] for row in rows[::-1]]
        for names, matrix, witness in ((points, rows, "p0"), (points[::-1], back, "p1")):
            checked = validate_ultrametric(names, matrix)
            assert type(checked._ranked[1][0]) is (bytes if n <= 256 else list)
            self._checked_agree(checked, FiniteUltrametricSpace(names, matrix), matrix)
            assert us_witness(checked) == witness

    def test_an_unchecked_space_off_the_axioms_keeps_row_minima(self):
        # c is the only witness; the nearest-earlier links (5, a, b) and
        # (1, a, c) are no minimum spanning tree, and their minima would name a
        rows = [[0, 5, 1], [5, 0, 1], [1, 1, 0]]
        with pytest.raises(StrongTriangleViolation):
            validate_ultrametric("abc", rows)
        space = FiniteUltrametricSpace("abc", rows)
        assert list(_column_minima(space)) == [1, 1, 1]
        assert us_witness(space) == brute_witness(space) == "c"
        assert realize_as_star(space).tree.edges == (("a", "c"), ("b", "c"))

    def test_an_isometric_request_finds_links_once_per_space(self, monkeypatch, capsys, tmp_path):
        # the spaces share size and value set, so both dendrograms are
        # numbered, each from the links its validation found, with no
        # canonical form built and no Fraction row decoded
        calls, loaded, made = [], [], []
        real, check = spaces._links, spaces.check_isometric
        monkeypatch.setattr(spaces, "_links", lambda codes: calls.append(len(codes)) or real(codes))
        monkeypatch.setattr(cli, "check_isometric", lambda a, b: loaded.extend((a, b)) or check(a, b))
        monkeypatch.setattr(spaces, "canonical_form", lambda space: made.append(space))
        monkeypatch.setattr(CanonicalForm, "__init__", lambda form, *args: made.append(args))
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        first.write_text(json.dumps(space_to_dict(fig1_space())))
        second.write_text(json.dumps(space_to_dict(_permuted(fig1_space(), [4, 3, 2, 1, 0]))))
        assert run(["isometric", str(first), str(second)]) == 0
        assert capsys.readouterr().out == "true\n"
        assert calls == [5, 5]
        assert made == []
        assert len(loaded) == 2 and all(space._mst is not None for space in loaded)
        assert all("dist" not in space.__dict__ for space in loaded)
