"""Passing ``ultratree verify`` runs against recorded output.

``verify_reports.json`` holds, for each run below, what ``cli.run`` printed
to stdout (the ``elapsed:`` line dropped) and stderr, its exit code, and the
report it wrote with ``--json`` (``elapsed_ms`` dropped). A change to the
sweeps that keeps their verdicts and counts keeps these bytes.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from ultratree.cli import run

FIXTURE = Path(__file__).with_name("verify_reports.json")

RUNS = {
    **{
        f"{theorem}-6-j{jobs}": ["--theorem", theorem, "--max-order", "6", "--jobs", str(jobs)]
        for theorem in ("nondeg", "main", "lemmas", "classify")
        for jobs in (1, 2)
    },
    **{
        f"{theorem}-5-{name}": ["--theorem", theorem, "--max-order", "5", "--values", values]
        for theorem in ("main", "nondeg")
        for name, values in (("1-3", "1,3"), ("0-half-7", "0,1/2,7"))
    },
}


def recorded_run(name, directory):
    """The recorded form of the run ``name``, its --json written to ``directory``."""
    out_path = Path(directory) / f"{name}.json"
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(["verify", *RUNS[name], "--json", str(out_path)])
    report = json.loads(out_path.read_text(encoding="utf-8"))
    del report["elapsed_ms"]
    lines = [line for line in out.getvalue().splitlines(True) if not line.startswith("elapsed:")]
    return {"code": code, "stdout": "".join(lines), "stderr": err.getvalue(), "json": report}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_report_matches_the_recording(tmp_path, name):
    want = json.loads(FIXTURE.read_text(encoding="utf-8"))[name]
    assert json.dumps(recorded_run(name, tmp_path)) == json.dumps(want)
