"""Sweeps forced to fail through verify's patch points, against recorded
reports.

Each run below breaks one step of a sweep on purpose, so its report carries
certificates: a flipped verdict of the labeling walk on the path, a
witness found in every counterexample space, a classifier that tags stars as
double stars. ``forced_failures.json`` holds the reports of these runs
(``report_to_dict`` with ``elapsed_ms`` dropped) and pins their bytes: the
order of the failures, their trees, labelings and evidence.

A failing class is checked again on each of its labeled copies, and a copy
reads its class's failing labelings through its names (verify._copies), so
a flip on one labeling of a class key lands on each labeled tree of the
class in the place those names give it.

A replay runs the check the sweep ran, so while the patch is in place every
certificate of a run that patches such a check (the witness test, the
classifier) must replay as reproducing; the labeling walk is not replayed,
so a flipped verdict does not reproduce. Afterwards the patches are lifted
and every certificate must replay as not reproducing, since each claim
holds on its data.

Each run, and one more whose failing classes have copies that pass, gives
the same report through order 7, at one job and on a pool, as the reference
sweep of every labeled tree by Prufer rank (helpers.reference_sweep).
"""

import collections
import json
import math
import time
from fractions import Fraction
from pathlib import Path

import pytest

from ultratree import (
    TreeClass,
    TreeKind,
    certificate_to_dict,
    replay_certificate,
    report_to_dict,
    verify_classification,
    verify_main_theorem,
    verify_theorem_nondegeneracy,
)
from ultratree import verify
from ultratree.trees import _free_trees, _index_adjacency

from helpers import canonical, canonicalized, reference_sweep

FIXTURE = Path(__file__).with_name("forced_failures.json")


def _flip(monkeypatch, forced):
    """Flip the walk's verdict on the labeling ``forced`` (cut to the order,
    repeated past its length) of the path read from one end, in the
    positions of the path's class key, which every labeled path of order n
    shares. An orbit walk visits one of ``forced`` and its mirror image,
    which stands for both, so the flip goes to whichever it visits; the full
    walk of a failing class, which its copies read, flips ``forced`` alone."""
    walk = verify._labelings

    def flipped(parents, codes, witness, leaf, blocks=()):
        n = len(parents)
        key, at, _ = canonical(_index_adjacency(n, zip(range(n - 1), range(1, n))))
        mine, mirror = [0] * n, [0] * n
        for i in range(n):
            mine[at[i]] = mirror[at[n - 1 - i]] = forced[i % len(forced)]
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
        lambda mp: mp.setattr(verify, "_first_witness", lambda parents, order, lab: 0),
        verify_main_theorem,
        True,
    ),
    "classify-tag": (_stars_as_double_stars, verify_classification, True),
}


def _witness_with_the_3_on_the_root(monkeypatch):
    """Give a counterexample space a witness exactly when its 3 sits on key
    position 0 of the tree's class key, where no automorphism moves it: the
    center, or the center of the lesser half of a bicentral tree whose halves
    differ. A long class whose centers are both third on a longest path (a
    diameter of 5) fails, but only its copies whose names pick that center."""
    real = verify._judge_counterexample

    def judge(f, lab):
        key, at, _ = canonical(_index_adjacency(f.n, f.edges))
        fixed = all(s != size for s, size, _ in verify._sibling_blocks(key))
        return {"witness": f.names[0]} if fixed and at[lab.index(2)] == 0 else real(f, lab)

    monkeypatch.setattr(verify, "_judge_counterexample", judge)


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
    class pass; that is enough to expand the star into its labeled copies,
    whose one full walk of the class flips every labeling of the orbit. The
    report equals the one where the class pass too walks every labeling."""
    rep = (1, 0, 0, 1, 1)  # the leaves' codes rise: a representative, orbit size 4!/(2! 2!)
    flipped = _flip_orbit(monkeypatch, rep)
    orbit_report = report_to_dict(sweep(5, (0, 1)))
    assert [lab for lab, grouped in flipped if grouped] == [rep]
    assert len([lab for lab, grouped in flipped if not grouped]) == 6  # the copies' full walk

    full = verify._class_walk  # every walk full
    monkeypatch.setattr(verify, "_class_walk", lambda key, codes, witness, orbits=False: full(key, codes, witness))
    flipped.clear()
    full_report = report_to_dict(sweep(5, (0, 1)))
    assert not any(grouped for _, grouped in flipped) and len(flipped) == 6 + 6
    for report in (orbit_report, full_report):
        del report["elapsed_ms"]
    assert json.dumps(orbit_report) == json.dumps(full_report)
    # each of the 5 labeled stars, each labeling of the orbit
    assert len(orbit_report["failures"]) == 5 * 6
    assert {f["evidence"]["order"] for f in orbit_report["failures"]} == {5}


REFERENCE_RUNS = {**RUNS, "main-third-on-root": (_witness_with_the_3_on_the_root, verify_main_theorem, False)}


@pytest.mark.parametrize("name", sorted(REFERENCE_RUNS))
def test_forced_report_matches_the_reference_sweep_through_order_seven(monkeypatch, name):
    patch, sweep, _ = REFERENCE_RUNS[name]
    patch(monkeypatch)
    values = (Fraction(0), Fraction(1))
    reports = []
    for jobs in (1, 2):
        if jobs == 2:
            monkeypatch.setattr(verify, "_POOL_MIN_VISITS", 0)  # a real pool
        report = report_to_dict(sweep(7, values, jobs=jobs, budget=10**7))
        del report["elapsed_ms"]
        reports.append(report)
    cases, fails = 0, []
    for n in range(1, 8):
        made, found = reference_sweep(reports[0]["theorem"], n, values)
        cases, fails = cases + made, fails + found
    want = [certificate_to_dict(c) for c in sorted(fails, key=verify._report_key)]
    assert want
    for report in reports:
        assert report["cases_checked"] == cases
        assert json.dumps(report["failures"]) == json.dumps(want)
    if name == "main-third-on-root":
        # some class fails on only some of its copies
        failed = collections.Counter(
            canonical(cert.tree._indexed)[0] for cert in fails
        )
        weights = {
            key: math.factorial(len(key)) // aut
            for found in canonicalized(_free_trees(7)) for key, aut in found.items()
        }
        assert any(0 < count < weights[key] for key, count in failed.items())


def test_order_ten_star_flip_reports_its_ten_copies(monkeypatch):
    """One flipped verdict on the order-10 star's key, whose labeling with
    the center at 1 and every leaf at 0 is an orbit of its own: the star
    class fails, and its 10 labeled copies each report that labeling. A
    sweep by rank would have decoded 10^8 trees."""
    star, forced = (0,) * 10, (1,) + (0,) * 9
    walk = verify._labelings

    def flipped(parents, codes, witness, leaf, blocks=()):
        def spy(lab, nondeg, verdict, weight):
            if tuple(parents) == star and tuple(lab) == forced:
                verdict = not verdict
            leaf(lab, nondeg, verdict, weight)

        walk(parents, codes, witness, spy, blocks)

    monkeypatch.setattr(verify, "_labelings", flipped)
    started = time.perf_counter()
    report = verify_theorem_nondegeneracy(10, (0, 1), budget=10**12)
    assert time.perf_counter() - started < 2
    assert len(report.failures) == 10
    centers = set()
    for cert in report.failures:
        assert cert.evidence["order"] == 10
        (center,) = [v for v, q in cert.labeling.items() if q == 1]
        assert all(center in edge for edge in cert.tree.edges)
        centers.add(center)
    assert len(centers) == 10
