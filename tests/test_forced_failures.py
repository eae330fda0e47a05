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
from ultratree.trees import _canonical_tree, _index_adjacency

FIXTURE = Path(__file__).with_name("forced_failures.json")


def _flip(monkeypatch, forced):
    """Flip the walk's verdict on the labeling ``forced`` (cut to the order)
    of the path read from one end, in the positions of the path's class key,
    which every labeled path of order n shares. An orbit walk visits one of
    ``forced`` and its mirror image, which stands for both, so the flip goes
    to whichever it visits; the full walk of the sweep by rank flips
    ``forced`` alone."""
    walk = verify._labelings

    def flipped(parents, codes, witness, leaf, blocks=()):
        n = len(parents)
        key, at = _canonical_tree(_index_adjacency(n, zip(range(n - 1), range(1, n))))
        mine, mirror = [0] * n, [0] * n
        for i in range(n):
            mine[at[i]] = mirror[at[n - 1 - i]] = forced[i]
        targets = {tuple(mine), tuple(mirror)} if blocks else {tuple(mine)}
        path = tuple(parents) == key

        def spy(lab, nondeg, verdict, weight):
            if path and tuple(lab) in targets:
                verdict = not verdict
            leaf(lab, nondeg, verdict, weight)

        walk(parents, codes, witness, spy, blocks)

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


STAR_5 = (0, 0, 0, 0, 0)  # the order-5 star's class key: vertex 0 is the center
STAR_LEAVES = (1, 2, 3, 4)


def _flip_orbit(monkeypatch, rep):
    """Flip the walk's verdict on every labeling of the order-5 star's key
    in the orbit of ``rep`` (same center code, same leaf codes in any order);
    returns each flipped labeling with whether its walk went by orbits."""
    walk, flipped = verify._labelings, []
    orbit = (rep[0], sorted(rep[v] for v in STAR_LEAVES))

    def spy_walk(parents, codes, witness, leaf, blocks=()):
        def spy(lab, nondeg, verdict, weight):
            if tuple(parents) == STAR_5 and (lab[0], sorted(lab[v] for v in STAR_LEAVES)) == orbit:
                verdict = not verdict
                flipped.append((tuple(lab), bool(blocks)))
            leaf(lab, nondeg, verdict, weight)

        walk(parents, codes, witness, spy, blocks)

    monkeypatch.setattr(verify, "_labelings", spy_walk)
    return flipped


@pytest.mark.parametrize("sweep", [verify_theorem_nondegeneracy, verify_main_theorem])
def test_flip_of_a_star_orbit_reports_as_under_the_full_walk(monkeypatch, sweep):
    """The flip hits the orbit's one representative in the orbit walk of the
    class pass; that is enough to send order 5 to the sweep by rank, whose
    full walk flips every labeling of the orbit. The report equals the one
    where the class pass too walks every labeling."""
    rep = (1, 0, 0, 1, 1)  # the leaves' codes rise: a representative, orbit size 4!/(2! 2!)
    flipped = _flip_orbit(monkeypatch, rep)
    orbit_report = report_to_dict(sweep(5, (0, 1)))
    assert [lab for lab, grouped in flipped if grouped] == [rep]
    assert len([lab for lab, grouped in flipped if not grouped]) == 6  # the rank pass

    monkeypatch.setattr(verify, "_sibling_blocks", lambda key: ())  # every walk full
    flipped.clear()
    full_report = report_to_dict(sweep(5, (0, 1)))
    assert not any(grouped for _, grouped in flipped) and len(flipped) == 6 + 6
    for report in (orbit_report, full_report):
        del report["elapsed_ms"]
    assert json.dumps(orbit_report) == json.dumps(full_report)
    # each of the 5 labeled stars, each labeling of the orbit
    assert len(orbit_report["failures"]) == 5 * 6
    assert {f["evidence"]["order"] for f in orbit_report["failures"]} == {5}
