import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import FIXTURES, expected_cases, load_fixture, space_of
from ultratree import (
    build_ultrametric,
    labeled_tree_from_dict,
    space_from_dict,
    space_to_dict,
)
from ultratree.cli import run

FIG1_PATH = str(FIXTURES / "fig1-path.json")
FIG1_SPACE = str(FIXTURES / "fig1-space.json")
STAR = str(FIXTURES / "star.json")
DOUBLE_STAR = str(FIXTURES / "double-star.json")

FIG1_CSV = (
    ",v1,v2,v3,v4,v5\n"
    "v1,0,2,3,3,3\n"
    "v2,2,0,3,3,3\n"
    "v3,3,3,0,3,3\n"
    "v4,3,3,3,0,2\n"
    "v5,3,3,3,2,0\n"
)


def star_space_file(tmp_path):
    space = build_ultrametric(labeled_tree_from_dict(load_fixture("star.json")))
    path = tmp_path / "star-space.json"
    path.write_text(json.dumps(space_to_dict(space)))
    return str(path), space


class TestDistance:
    def test_csv_output(self, capsys):
        assert run(["distance", FIG1_PATH]) == 0
        assert capsys.readouterr().out == FIG1_CSV

    def test_json_sidecar(self, capsys, tmp_path):
        out = tmp_path / "space.json"
        assert run(["distance", FIG1_PATH, "--json", str(out)]) == 0
        capsys.readouterr()
        written = space_from_dict(json.loads(out.read_text()))
        assert written == space_from_dict(load_fixture("fig1-space.json"))

    def test_degenerate_labeling(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "vertices": ["a", "b"],
                    "edges": [["a", "b"]],
                    "labels": {"a": "0", "b": "0"},
                }
            )
        )
        assert run(["distance", str(bad)]) == 1
        assert "error[degenerate-labeling]" in capsys.readouterr().err


class TestCheckUS:
    def test_negative_answer(self, capsys):
        assert run(["check-us", FIG1_SPACE]) == 2
        assert capsys.readouterr().out == "NOT-US\n"

    def test_positive_answer(self, capsys, tmp_path):
        path, _ = star_space_file(tmp_path)
        out = tmp_path / "witness.json"
        assert run(["check-us", path, "--json", str(out)]) == 0
        assert capsys.readouterr().out == "c\n"
        assert json.loads(out.read_text()) == {"witness": "c"}

    def test_not_us_json(self, capsys, tmp_path):
        out = tmp_path / "witness.json"
        assert run(["check-us", FIG1_SPACE, "--json", str(out)]) == 2
        capsys.readouterr()
        assert json.loads(out.read_text()) == {"witness": None}


class TestRealize:
    def test_round_trip_through_distance(self, capsys, tmp_path):
        path, space = star_space_file(tmp_path)
        assert run(["realize", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        realized = tmp_path / "realized.json"
        realized.write_text(json.dumps(payload))
        assert run(["distance", str(realized), "--json", str(tmp_path / "back.json")]) == 0
        capsys.readouterr()
        back = space_from_dict(json.loads((tmp_path / "back.json").read_text()))
        assert back == space

    def test_star_shape(self, capsys, tmp_path):
        path, space = star_space_file(tmp_path)
        assert run(["realize", path]) == 0
        lt = labeled_tree_from_dict(json.loads(capsys.readouterr().out))
        assert all("c" in edge for edge in lt.tree.edges)
        assert build_ultrametric(lt) == space

    def test_json_side_file_is_what_stdout_prints(self, capsys, tmp_path):
        path, _ = star_space_file(tmp_path)
        out = tmp_path / "star.json"
        assert run(["realize", path, "--json", str(out)]) == 0
        assert out.read_text() == capsys.readouterr().out

    def test_refuses_two_level_space(self, capsys):
        assert run(["realize", FIG1_SPACE]) == 2
        assert "error[not-us]" in capsys.readouterr().err


class TestClassify:
    def test_tags(self, capsys):
        assert run(["classify", FIG1_PATH]) == 0
        assert capsys.readouterr().out == "Other\n"
        assert run(["classify", STAR]) == 0
        assert capsys.readouterr().out == "Star\n"
        assert run(["classify", DOUBLE_STAR]) == 0
        assert capsys.readouterr().out == "DoubleStar\n"

    def test_json_centers(self, capsys, tmp_path):
        out = tmp_path / "class.json"
        assert run(["classify", DOUBLE_STAR, "--json", str(out)]) == 0
        capsys.readouterr()
        assert json.loads(out.read_text()) == {
            "tag": "DoubleStar",
            "centers": ["b", "c"],
        }


class TestIsometric:
    def test_self(self, capsys):
        assert run(["isometric", FIG1_SPACE, FIG1_SPACE]) == 0
        assert capsys.readouterr().out == "true\n"

    def test_different(self, capsys, tmp_path):
        path, _ = star_space_file(tmp_path)
        out = tmp_path / "iso.json"
        assert run(["isometric", FIG1_SPACE, path, "--json", str(out)]) == 2
        assert capsys.readouterr().out == "false\n"
        assert json.loads(out.read_text()) == {"isometric": False}

    def test_renamed_copy(self, capsys, tmp_path):
        space = space_from_dict(load_fixture("fig1-space.json"))
        renamed = space_of(
            ("a", "b", "c", "d", "e"), space.dist
        )
        other = tmp_path / "renamed.json"
        other.write_text(json.dumps(space_to_dict(renamed)))
        assert run(["isometric", FIG1_SPACE, str(other)]) == 0
        assert capsys.readouterr().out == "true\n"


class TestCounterexample:
    def test_labels_long_path(self, capsys):
        assert run(["counterexample", FIG1_PATH]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["labels"] == {
            "v1": "2", "v2": "2", "v3": "3", "v4": "2", "v5": "2",
        }

    def test_json_side_file_is_what_stdout_prints(self, capsys, tmp_path):
        out = tmp_path / "labeling.json"
        assert run(["counterexample", FIG1_PATH, "--json", str(out)]) == 0
        assert out.read_text() == capsys.readouterr().out

    def test_short_tree(self, capsys):
        assert run(["counterexample", STAR]) == 2
        assert "error[no-long-path]" in capsys.readouterr().err


class TestVerifyCommand:
    def test_main_summary(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        assert run(
            ["verify", "--theorem", "main", "--max-order", "3", "--json", str(out)]
        ) == 0
        text = capsys.readouterr().out
        assert "theorem: main" in text
        assert "status: PASS (0 failures)" in text
        assert "subcheck [exhaustive]" in text
        assert "subcheck [sampled]" in text
        assert "subcheck [certified]" in text
        report = json.loads(out.read_text())
        assert report["status"] == "pass"
        assert report["cases_checked"] == expected_cases("main", 3, 3)

    def test_lemmas_ignores_values(self, capsys):
        assert run(["verify", "--theorem", "lemmas", "--max-order", "4"]) == 0
        text = capsys.readouterr().out
        assert "values: -" in text
        assert "cases checked: 21" in text

    def test_lemmas_still_parses_values(self, capsys):
        # the values are outside input: checked, though lemmas does not use them
        assert run(["verify", "--theorem", "lemmas", "--values", "x"]) == 1
        assert capsys.readouterr().err == (
            "error[parse-error]: expected 'p' or 'p/q' with non-negative integers, got 'x'\n"
        )

    def test_jobs_flag(self, capsys):
        assert run(
            ["verify", "--theorem", "lemmas", "--max-order", "5", "--jobs", "2"]
        ) == 0
        assert "status: PASS" in capsys.readouterr().out

    def test_custom_values(self, capsys):
        assert run(
            ["verify", "--theorem", "nondeg", "--max-order", "2", "--values", "0,1/2"]
        ) == 0
        text = capsys.readouterr().out
        assert "values: 0,1/2" in text
        assert "cases checked: 6" in text

    def test_budget_refusal(self, capsys):
        assert run(["verify", "--theorem", "nondeg", "--max-order", "7"]) == 1
        assert capsys.readouterr().err == (
            "error[budget-exceeded]: 37733457 predicted cases exceed the budget of "
            "2000000; raise the budget to run this grid\n"
        )

    def test_budget_refusal_of_a_huge_order(self, capsys):
        assert run(["verify", "--theorem", "lemmas", "--max-order", "2000"]) == 1
        assert capsys.readouterr().err.startswith("error[budget-exceeded]: ")

    def test_budget_raise_notes(self, capsys):
        assert run(
            [
                "verify", "--theorem", "nondeg", "--max-order", "2",
                "--values", "0,1", "--budget", "3000000",
            ]
        ) == 0
        assert "budget raised" in capsys.readouterr().err

    def test_empty_values_usage_error(self, capsys):
        assert run(["verify", "--theorem", "main", "--values", ","]) == 1
        assert "error[usage]" in capsys.readouterr().err

    def test_bad_value_string(self, capsys):
        assert run(["verify", "--theorem", "main", "--values", "0,0.5"]) == 1
        assert "error[parse-error]" in capsys.readouterr().err

    def test_jobs_below_one_usage_error(self, capsys):
        for jobs in ("0", "-3"):
            argv = ["verify", "--theorem", "lemmas", "--max-order", "3", "--jobs", jobs]
            assert run(argv) == 1
            assert "error[usage]" in capsys.readouterr().err

    def test_negative_budget_usage_error(self, capsys):
        assert run(["verify", "--theorem", "main", "--budget", "-5"]) == 1
        assert capsys.readouterr().err == "error[usage]: budget must be at least 0, got -5\n"


_USAGE = {
    "": "usage: ultratree [-h]\n"
    "                 {distance,check-us,realize,classify,isometric,counterexample,verify}\n"
    "                 ...",
    "distance": "usage: ultratree distance [-h] [--json OUT] file",
    "check-us": "usage: ultratree check-us [-h] [--json OUT] file",
    "realize": "usage: ultratree realize [-h] [--json OUT] file",
    "classify": "usage: ultratree classify [-h] [--json OUT] file",
    "isometric": "usage: ultratree isometric [-h] [--json OUT] first second",
    "counterexample": "usage: ultratree counterexample [-h] [--json OUT] file",
    "verify": "usage: ultratree verify [-h] --theorem {nondeg,main,lemmas,classify}\n"
    "                        [--max-order N] [--values VALUES] [--jobs K]\n"
    "                        [--budget BUDGET] [--json OUT]",
}


class TestUsageAndIO:
    def test_no_arguments(self, capsys):
        assert run([]) == 1
        capsys.readouterr()

    def test_help(self, capsys):
        assert run(["--help"]) == 0
        assert "ultrametric" in capsys.readouterr().out.lower()

    @pytest.mark.parametrize("command", sorted(_USAGE))
    def test_usage_lines(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal width
        assert run([command, "--help"] if command else ["--help"]) == 0
        assert capsys.readouterr().out.split("\n\n")[0] == _USAGE[command]

    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 1
        capsys.readouterr()

    def test_unknown_flag(self, capsys):
        assert run(["classify", FIG1_PATH, "--wat"]) == 1
        capsys.readouterr()

    def test_missing_file(self, capsys):
        assert run(["classify", "/nonexistent/tree.json"]) == 1
        assert "error[io]" in capsys.readouterr().err

    def test_unreadable_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert run(["classify", str(bad)]) == 1
        assert "error[parse-error]" in capsys.readouterr().err

    def test_deeply_nested_json(self, capsys, tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        for command in ("classify", "check-us"):
            assert run([command, str(deep)]) == 1
            assert capsys.readouterr().err.startswith("error[parse-error]")

    def test_input_that_is_not_utf8(self, capsys, tmp_path):
        bad = tmp_path / "latin.json"
        bad.write_bytes(b'{"vertices": ["\xff"], "edges": []}')
        for command in ("classify", "check-us"):
            assert run([command, str(bad)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error[parse-error]: 'utf-8' codec can't decode byte 0xff")

    def test_wrong_document_shape(self, capsys, tmp_path):
        bad = tmp_path / "list.json"
        bad.write_text("[1, 2, 3]")
        assert run(["classify", str(bad)]) == 1
        assert "error[parse-error]" in capsys.readouterr().err

    @pytest.mark.parametrize("form", ['"1{}/3"', "1{}"], ids=["string", "integer"])
    @pytest.mark.parametrize("command", ["check-us", "distance"])
    def test_over_long_integer(self, capsys, tmp_path, command, form):
        # past Python's 4,300-digit limit for int conversion, in a "p/q"
        # string or as a bare JSON integer; the message leaves the digits out
        value = form.format("0" * 5000)
        doc = {
            "check-us": f'{{"points": ["a", "b"], "dist": [["0", {value}], [{value}, "0"]]}}',
            "distance": f'{{"vertices": ["a", "b"], "edges": [["a", "b"]], '
            f'"labels": {{"a": {value}, "b": "1"}}}}',
        }[command]
        big = tmp_path / "big.json"
        big.write_text(doc)
        assert run([command, str(big)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[parse-error]: ")
        assert "0" * 100 not in err

    def test_invalid_tree_document(self, capsys, tmp_path):
        bad = tmp_path / "forest.json"
        bad.write_text(
            json.dumps({"vertices": ["a", "b", "c"], "edges": [["a", "b"]]})
        )
        assert run(["classify", str(bad)]) == 1
        assert "error[not-connected]" in capsys.readouterr().err

    def test_invalid_space_document(self, capsys, tmp_path):
        bad = tmp_path / "space.json"
        bad.write_text(
            json.dumps(
                {
                    "points": ["x", "y", "z"],
                    "dist": [
                        ["0", "3", "1"],
                        ["3", "0", "1"],
                        ["1", "1", "0"],
                    ],
                }
            )
        )
        assert run(["check-us", str(bad)]) == 1
        assert "error[strong-triangle-violation]" in capsys.readouterr().err


_FUZZ_KEYS = ("vertices", "edges", "labels", "points", "dist", "a")
_FUZZ_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 9)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(["a", "b", "c", "x", "", "0", "1", "1/2", "3", "-1", "1/0", "2.5"]),
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.sampled_from(_FUZZ_KEYS), kids, max_size=4),
    max_leaves=16,
)
_FIXTURE_DOCS = ("star.json", "double-star.json", "fig1-path.json", "fig1-space.json")


@st.composite
def _fuzz_documents(draw):
    """Random JSON, or a fixture with one top-level value replaced or
    removed, or text that is not JSON at all."""
    kind = draw(st.sampled_from(["json", "fixture", "text"]))
    if kind == "text":
        return draw(st.text(max_size=30))
    if kind == "json":
        return json.dumps(draw(_FUZZ_JSON))
    doc = load_fixture(draw(st.sampled_from(_FIXTURE_DOCS)))
    key = draw(st.sampled_from(sorted(doc)))
    if draw(st.booleans()):
        del doc[key]
    else:
        doc[key] = draw(_FUZZ_JSON)
    return json.dumps(doc)


class TestFuzzedDocuments:
    """Every loader behind the CLI (tree, labeled tree, space) on malformed
    documents ends in a documented exit code, never a traceback."""

    @settings(max_examples=200, suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.sampled_from(
            ["distance", "check-us", "realize", "classify", "counterexample", "isometric"]
        ),
        _fuzz_documents(),
    )
    def test_exit_code_is_documented(self, command, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "doc.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            argv = [command, path] + ([FIG1_SPACE] if command == "isometric" else [])
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(argv)
        assert code in (0, 1, 2)
        if code == 1:
            assert err.getvalue().startswith("error[")
