import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    FIG1_MATRIX,
    labeled,
    load_fixture,
    path_tree,
    random_labeled_trees,
    random_spaces,
    random_trees,
    regex_parse_rational,
)
from ultratree import (
    BadEdge,
    ParseError,
    PositivityViolation,
    UnknownVertex,
    build_ultrametric,
    coerce_nonnegative,
    coerce_rational,
    format_rational,
    labeled_tree_from_dict,
    labeled_tree_to_dict,
    parse_rational,
    space_from_dict,
    space_to_dict,
    tree_from_dict,
    tree_to_dict,
    us_witness,
    validate_tree,
    validate_ultrametric,
)


class TestParseRational:
    def test_accepted_forms(self):
        assert parse_rational("3") == 3
        assert parse_rational("5/2") == Fraction(5, 2)
        assert parse_rational(" 7 ") == 7
        assert parse_rational(4) == 4
        assert parse_rational(0) == 0
        assert parse_rational("0/5") == 0

    def test_rejected_forms(self):
        for bad in (-1, "-1", "1.5", 1.5, "1/0", "", "x", "1/2/3", True, None, "+1"):
            with pytest.raises(ParseError):
                parse_rational(bad)

    @given(st.fractions(min_value=0, max_denominator=10**6))
    def test_round_trips_with_format(self, q):
        assert parse_rational(format_rational(q)) == q

    @pytest.mark.parametrize("raw", [
        "٣/٤", "²", " 3 ", "+1", "1_000", "3/", "/3", "", "1/0", "0/0", " 5/ 2", "1/2/3",
        pytest.param("9" * 4301, id="4301-digits"),
        pytest.param("1/" + "9" * 4301, id="1/4301-digits"),
        pytest.param(10**4301, id="int-4301-digits"), True, None, 1.5, [1],
    ])
    def test_matches_the_regex_parser(self, raw):
        assert _parsed(parse_rational, raw) == _parsed(regex_parse_rational, raw)

    @given(st.one_of(
        st.text(st.sampled_from("0123456789/ _+-.٣٤२²\u00a0\t"), max_size=8),
        st.builds("{}/{}".format, st.integers(0, 10**30), st.integers(0, 10**30)),
        st.integers(0, 10**30).map(str),
    ))
    def test_random_tokens_match_the_regex_parser(self, raw):
        assert _parsed(parse_rational, raw) == _parsed(regex_parse_rational, raw)

    def test_format_shapes(self):
        assert format_rational(Fraction(4)) == "4"
        assert format_rational(Fraction(5, 2)) == "5/2"
        assert format_rational(Fraction(0)) == "0"


def _parsed(parse, raw):
    """The Fraction a parser gives, or the text of its ParseError."""
    try:
        return parse(raw)
    except ParseError as err:
        return str(err)


class TestCoercion:
    def test_coerce_rational(self):
        assert coerce_rational(Fraction(1, 3)) == Fraction(1, 3)
        assert coerce_rational(7) == 7
        assert coerce_rational("7/3") == Fraction(7, 3)
        for bad in (True, 0.5, [1], None):
            with pytest.raises(TypeError):
                coerce_rational(bad)

    def test_coerce_nonnegative(self):
        assert coerce_nonnegative(0) == 0
        with pytest.raises(ValueError):
            coerce_nonnegative(-1)
        with pytest.raises(ValueError):
            coerce_nonnegative("-2/3")


class TestTreeWire:
    def test_round_trip(self):
        tree = validate_tree(["b", "a", "c"], [("c", "a"), ("a", "b")])
        assert tree_from_dict(tree_to_dict(tree)) == tree

    def test_edges_written_sorted(self):
        tree = validate_tree(["b", "a"], [("b", "a")])
        assert tree_to_dict(tree)["edges"] == [["a", "b"]]

    def test_extra_keys_ignored(self):
        obj = {"vertices": ["a", "b"], "edges": [["a", "b"]], "labels": {"a": "1"}}
        assert tree_from_dict(obj).order == 2

    def test_bad_shapes(self):
        for obj in (
            [],
            {},
            {"vertices": "ab", "edges": []},
            {"vertices": ["a", ""], "edges": []},
            {"vertices": ["a", "a"], "edges": []},
            {"vertices": ["a", "b"], "edges": {}},
            {"vertices": ["a", "b"], "edges": [["a", "b", "c"]]},
            {"vertices": ["a", "b"], "edges": [["a", 1]]},
        ):
            with pytest.raises(ParseError):
                tree_from_dict(obj)

    @given(random_trees(max_order=7))
    def test_json_text_round_trip(self, tree):
        text = json.dumps(tree_to_dict(tree))
        assert tree_from_dict(json.loads(text)) == tree


class TestLabeledTreeWire:
    def test_labels_in_vertex_order(self):
        lt = labeled(path_tree(3), (1, "1/2", 0))
        obj = labeled_tree_to_dict(lt)
        assert list(obj["labels"]) == ["v1", "v2", "v3"]
        assert obj["labels"]["v2"] == "1/2"

    def test_round_trip(self):
        lt = labeled(path_tree(3), (1, "1/2", 0))
        assert labeled_tree_from_dict(labeled_tree_to_dict(lt)) == lt

    def test_missing_labels_key(self):
        with pytest.raises(ParseError):
            labeled_tree_from_dict({"vertices": ["a"], "edges": []})

    def test_bad_label_value(self):
        obj = {"vertices": ["a"], "edges": [], "labels": {"a": "0.5"}}
        with pytest.raises(ParseError):
            labeled_tree_from_dict(obj)

    def test_label_for_unknown_vertex(self):
        obj = {"vertices": ["a"], "edges": [], "labels": {"a": "1", "b": "1"}}
        with pytest.raises(UnknownVertex):
            labeled_tree_from_dict(obj)

    @given(random_labeled_trees(max_order=7))
    def test_json_text_round_trip(self, lt):
        text = json.dumps(labeled_tree_to_dict(lt))
        assert labeled_tree_from_dict(json.loads(text)) == lt


class TestSpaceWire:
    def test_round_trip(self):
        space = build_ultrametric(labeled(path_tree(5), (2, 2, 3, 2, 2)))
        assert space_from_dict(space_to_dict(space)) == space

    def test_equal_entries_of_any_form_write_alike(self):
        # "2", 2 and "4/2" in mirrored cells: each distinct value is
        # formatted once, so mirrored cells write the same text
        obj = {
            "points": ["a", "b", "c"],
            "dist": [["0", "2", "4/2"], [2, "0", "2"], ["2", "4/2", 0]],
        }
        written = space_to_dict(space_from_dict(obj))
        assert written["dist"] == [["0", "2", "2"], ["2", "0", "2"], ["2", "2", "0"]]

    def test_integers_above_two_to_the_64_write_symmetric(self):
        big, bigger = 2**70, 2**70 + 1
        obj = {
            "points": ["a", "b", "c"],
            "dist": [
                [0, big, str(bigger)],
                [str(big), "0", bigger],
                [f"{2 * bigger}/2", bigger, 0],
            ],
        }
        dist = space_to_dict(space_from_dict(obj))["dist"]
        assert dist == [["0", str(big), str(bigger)], [str(big), "0", str(bigger)],
                        [str(bigger), str(bigger), "0"]]
        assert all(dist[i][j] == dist[j][i] for i in range(3) for j in range(3))

    def test_read_validates_axioms(self):
        obj = {"points": ["a", "b"], "dist": [["0", "0"], ["0", "0"]]}
        with pytest.raises(PositivityViolation):
            space_from_dict(obj)

    def test_bad_shapes(self):
        for obj in (
            [],
            {"points": ["a"], "dist": [["0"], ["0"]]},
            {"points": ["a", "b"], "dist": [["0", "1"]]},
            {"points": ["a", "a"], "dist": [["0", "1"], ["1", "0"]]},
            {"points": ["a", "b"], "dist": [["0", "1.5"], ["1.5", "0"]]},
            # True after an equal 1: entries are parsed once per type and value
            {"points": ["a", "b"], "dist": [[0, 1], [True, 0]]},
            {"points": ["a", "b"], "dist": [["0", [1]], [[1], "0"]]},
        ):
            with pytest.raises(ParseError):
                space_from_dict(obj)


_PATH4 = {"vertices": ["a", "b", "c", "d"], "edges": [["a", "b"], ["b", "c"], ["c", "d"]]}
_TRIO = {"points": ["a", "b", "c"]}
_NOT_RATIONAL = "expected 'p' or 'p/q' with non-negative integers, got "


class TestFirstOffender:
    """Each reader screens whole lists and names a rejected input's first
    offender, as an entry-by-entry read does; two bad entries, the first
    late in its list, name the first."""

    @pytest.mark.parametrize("read, obj, error, message", [
        (tree_from_dict, {"vertices": ["a", "b", "c", 1, ""], "edges": []},
         ParseError, '"vertices" must be a list of non-empty strings'),
        (tree_from_dict, {"vertices": ["a", "b", "c", ["d"]], "edges": []},
         ParseError, '"vertices" must be a list of non-empty strings'),
        (tree_from_dict, {"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"], ["a", 1], ["c"]]},
         ParseError, "bad edge entry ['a', 1]"),
        (tree_from_dict, dict(_PATH4, edges=[["a", "b"], ["b", "c"], ["c", "x"], ["d", "d"]]),
         BadEdge, "edge ('c', 'x') references an unknown vertex"),
        (tree_from_dict, dict(_PATH4, edges=[["a", "b"], ["b", "c"], ["c", "c"], ["d", "x"]]),
         BadEdge, "self-loop at 'c'"),
        (space_from_dict, {"points": ["a", "b", 3, ""], "dist": []},
         ParseError, '"points" must be a list of non-empty strings'),
        # a short row names a bad entry of an earlier row first
        (space_from_dict, dict(_TRIO, dist=[["0", "1", "1"], ["1", "0", "x"], ["1", "1"]]),
         ParseError, _NOT_RATIONAL + "'x'"),
        (space_from_dict, dict(_TRIO, dist=[["0", "1", "1"], ["1", "0", "1"], ["1", "1"], "x"]),
         ParseError, '"dist" must be a square matrix of rational strings'),
        (space_from_dict, dict(_TRIO, dist=[["0", "1", "1"], ["1", "0", "1"], ["1", "1", "0.5"]]),
         ParseError, _NOT_RATIONAL + "'0.5'"),
        (space_from_dict, {"points": [], "dist": []}, ValueError, "a space needs at least one point"),
        (labeled_tree_from_dict, dict(_PATH4, labels={"a": "1", "b": "2", "c": "0.5", "d": -1}),
         ParseError, _NOT_RATIONAL + "'0.5'"),
        # distinct tokens are parsed in order of first appearance
        (labeled_tree_from_dict, dict(_PATH4, labels={"a": "1", "b": "q", "c": "1", "d": "p"}),
         ParseError, _NOT_RATIONAL + "'q'"),
        (labeled_tree_from_dict, dict(_PATH4, labels={"a": "1", "b": 2, "c": "1", "d": [1]}),
         ParseError, _NOT_RATIONAL + "[1]"),
    ])
    def test_first_offender_is_named(self, read, obj, error, message):
        with pytest.raises(error) as info:
            read(obj)
        assert type(info.value) is error and str(info.value) == message


class TestFixtures:
    def test_two_level_pair_agrees(self):
        lt = labeled_tree_from_dict(load_fixture("fig1-path.json"))
        assert [lt.labels[v] for v in lt.tree.vertices] == [2, 2, 3, 2, 2]
        space = space_from_dict(load_fixture("fig1-space.json"))
        assert space.dist == FIG1_MATRIX
        assert build_ultrametric(lt) == space

    def test_tree_parse_ignores_fixture_labels(self):
        tree = tree_from_dict(load_fixture("fig1-path.json"))
        assert tree.vertices == ("v1", "v2", "v3", "v4", "v5")

    def test_star_fixture(self):
        lt = labeled_tree_from_dict(load_fixture("star.json"))
        assert us_witness(build_ultrametric(lt)) == "c"

    def test_double_star_fixture(self):
        lt = labeled_tree_from_dict(load_fixture("double-star.json"))
        space = build_ultrametric(lt)
        assert us_witness(space) is not None


def _parsed_one_by_one(obj):
    """The reference read of a square space: every entry parsed on its own,
    in row-major order, then the checked constructor."""
    rows = [[parse_rational(x) for x in row] for row in obj["dist"]]
    return validate_ultrametric(obj["points"], rows)


def _outcome(read, obj):
    try:
        space = read(obj)
    except Exception as err:
        return type(err), str(err), err.args
    return space.points, space.dist, space._ranked


def _spellings(q):
    """Wire forms of one non-negative value: its text, a scaled p/q and,
    for an integer, the JSON number."""
    forms = [str(q), f"{3 * q.numerator}/{3 * q.denominator}"]
    if q.denominator == 1:
        forms.append(q.numerator)
    return forms


# one change to a valid matrix: none, or a bad entry, or a broken axiom
DAMAGE = ("none", "true", "float", "zero-denominator", "negative", "asymmetric", "triangle")


@st.composite
def wire_spaces(draw):
    """A random space as a JSON-shaped dict, each entry in a random wire
    form of its value, with one random change (DAMAGE) in one or both of
    a pair of mirrored cells."""
    space = draw(random_spaces(min_order=1, max_order=10))
    rows = [[draw(st.sampled_from(_spellings(q))) for q in row] for row in space.dist]
    n = space.size
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    top = max(max(row) for row in space.dist) + 1
    bad = {
        "none": rows[i][j],
        "true": True,
        "float": float(space.dist[i][j]),
        "zero-denominator": "1/0",
        "negative": -draw(st.integers(1, 3)),
        "asymmetric": draw(st.sampled_from(_spellings(space.dist[i][j] + 1))),
        "triangle": draw(st.sampled_from(_spellings(top))),
    }[draw(st.sampled_from(DAMAGE))]
    rows[i][j] = bad
    if draw(st.booleans()):
        rows[j][i] = bad
    return {"points": list(space.points), "dist": rows}


class TestCodingOracle:
    """space_from_dict codes each distinct token once; it must read every
    document exactly as parsing each entry on its own and validating does."""

    def test_fixtures(self):
        docs = [load_fixture("fig1-space.json")]
        for name in ("fig1-path.json", "star.json", "double-star.json"):
            docs.append(space_to_dict(build_ultrametric(labeled_tree_from_dict(load_fixture(name)))))
        for obj in docs:
            got = _outcome(space_from_dict, obj)
            assert got == _outcome(_parsed_one_by_one, obj)
            assert isinstance(got[0], tuple)

    def test_mixed_tokens(self):
        for dist in (
            [["0", 2, "4/2"], [2, "0", "2"], ["4/2", "2", 0]],
            [[0, 1, 1], [1, 0, True], [1, True, 0]],
            [[0, "1", 1], ["1", 0, 1.0], [1, 1.0, 0]],
            [["0", "1/0", "1"], ["1/0", "0", "1"], ["1", "1", "0"]],
            [[0, -1, 2], [-1, 0, 2], [2, 2, 0]],
            [["0", "2", "3"], ["2", "0", "2"], ["3", "2", "0"]],
            [["0", "2", "2"], ["3", "0", "2"], ["2", "2", "0"]],
        ):
            obj = {"points": ["a", "b", "c"], "dist": dist}
            assert _outcome(space_from_dict, obj) == _outcome(_parsed_one_by_one, obj)

    @settings(max_examples=300)
    @given(wire_spaces())
    def test_random_documents(self, obj):
        assert _outcome(space_from_dict, obj) == _outcome(_parsed_one_by_one, obj)
