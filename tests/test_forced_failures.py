"""Sweeps forced to fail through verify's patch points, against recorded
reports.

Each run below breaks one step of a sweep on purpose, so its report carries
certificates: a flipped verdict of the labeling walk on the path, a
witness found in every counterexample space, a classifier that tags stars as
double stars. ``forced_failures.json`` holds the reports of these runs
(``report_to_dict`` with ``elapsed_ms`` dropped) and pins their bytes: the
order of the failures, their trees, labelings and evidence.

A replay runs the check the sweep ran, so while the patch is in place every
certificate of a run that patches such a check (the witness test, the
classifier) must replay as reproducing; the labeling walk is not replayed,
so a flipped verdict does not reproduce. Afterwards the patches are lifted
and every certificate must replay as not reproducing, since each claim
holds on its data.
"""

import json
from pathlib import Path

import pytest

from ultratree import (
    TreeClass,
    TreeKind,
    replay_certificate,
    report_to_dict,
    verify_classification,
    verify_main_theorem,
    verify_theorem_nondegeneracy,
)
from ultratree import verify

FIXTURE = Path(__file__).with_name("forced_failures.json")


def _flip(monkeypatch, forced):
    """Flip the walk's verdict on the labeling ``forced`` (cut to the order)
    of the path's class key, the path rooted at one end, which every
    labeled path of order n shares."""
    walk = verify._labelings

    def flipped(parents, codes, witness, leaf):
        path = list(parents) == [0, *range(len(parents) - 1)]

        def spy(lab, nondeg, verdict):
            if path and tuple(lab) == forced[:len(parents)]:
                verdict = not verdict
            leaf(lab, nondeg, verdict)

        walk(parents, codes, witness, spy)

    monkeypatch.setattr(verify, "_labelings", flipped)


def _stars_as_double_stars(monkeypatch):
    real = verify.classify

    def wrong(tree):
        result = real(tree)
        if result.tag is TreeKind.STAR:
            return TreeClass(TreeKind.DOUBLE_STAR, result.centers)
        return result

    monkeypatch.setattr(verify, "classify", wrong)


# name: (patch, sweep, whether the certificates replay as reproducing under the patch)
RUNS = {
    "nondeg-flip": (
        lambda mp: _flip(mp, (0, 0, 1, 1, 1)), verify_theorem_nondegeneracy, False
    ),
    "main-flip": (lambda mp: _flip(mp, (1, 0, 1, 0, 1)), verify_main_theorem, False),
    "main-witness": (
        lambda mp: mp.setattr(verify, "_witness_index", lambda d: 0), verify_main_theorem, True
    ),
    "classify-tag": (_stars_as_double_stars, verify_classification, True),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_forced_report_matches_the_recording(monkeypatch, name):
    patch, sweep, reproduces = RUNS[name]
    patch(monkeypatch)
    report = sweep(5, (0, 1))
    assert {replay_certificate(cert) for cert in report.failures} == {reproduces}
    monkeypatch.undo()
    got = report_to_dict(report)
    del got["elapsed_ms"]
    want = json.loads(FIXTURE.read_text(encoding="utf-8"))[name]
    assert report.failures
    assert json.dumps(got) == json.dumps(want)
    assert not any(replay_certificate(cert) for cert in report.failures)
