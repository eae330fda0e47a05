"""The three workloads: two in-process ``verify`` sweeps and the api-mix loop.

Each workload turns requests into timed samples and checks every answer
outside the timed region. A failed answer or an unexpected exception marks
the sample failed; failed samples stay in the latency data.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import time
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import inputs
import speed

VERIFY = {
    # workload name: (theorem, jobs)
    "verify-main": ("main", 1),
    "verify-nondeg-j2": ("nondeg", 2),
}
WORKLOADS = ("verify-main", "verify-nondeg-j2", "api-mix")
VALUES = "0,1,2"
SWEEP_CAL_UNITS = 20  # calibration units before and after each sweep


@dataclass
class Sample:
    size_class: str
    latency_s: float
    ok: bool
    cases: int = 0  # verify: cases checked, or the grid size if none printed
    factor: float = 1.0  # machine-speed scale, see speed.py; 1 where not calibrated

    @property
    def scaled_s(self) -> float:
        return self.latency_s * self.factor


def predicted_cases(theorem: str, n_max: int, value_count: int) -> int:
    """Cases a sweep checks, by the counting convention ``verify`` documents
    for ``predicted_cases``; recomputed here so the check does not trust the
    package's own count."""
    total = 0
    for n in range(1, n_max + 1):
        trees = 1 if n <= 2 else n ** (n - 2)
        stars = 1 if n <= 2 else n
        double_stars = comb(n, 2) * (2 ** (n - 2) - 2) if n >= 4 else 0
        qualifying = stars + double_stars
        if theorem == "nondeg":
            total += trees * value_count ** n
        elif theorem == "main":
            total += trees + qualifying * value_count ** n + (trees - qualifying)
        else:
            raise ValueError(f"no count for theorem {theorem!r}")
    return total


# ---------------------------------------------------------------------------
# verify workloads

class VerifyWorkload:
    """``ultratree verify`` called in process through ``cli.run``; every
    timed request is the workload's order-6 sweep."""

    def __init__(self, package, name, scale, out_dir):
        self.cli = package.cli
        self.theorem, self.jobs = VERIFY[name]
        self.report_path = os.path.join(out_dir, f"verify-report-{os.getpid()}.json")
        self.orders = {"large": scale.verify_order, "warm-up": scale.verify_warm_order}
        self.expected_cases = {
            key: predicted_cases(self.theorem, order, len(VALUES.split(",")))
            for key, order in self.orders.items()
        }

    def request(self, size_class="large", on_negative=None, during=None) -> Sample:
        """One verify call; ``on_negative`` is unused, sweeps have no
        negative answers. A ``speed.During`` calibrates while it runs, and
        the time its calibrations take is not counted."""
        argv = [
            "verify", "--theorem", self.theorem, "--max-order", str(self.orders[size_class]),
            "--values", VALUES, "--jobs", str(self.jobs), "--json", self.report_path,
        ]
        if os.path.exists(self.report_path):
            os.remove(self.report_path)  # a stale report must not pass the check
        out, err = io.StringIO(), io.StringIO()
        with during or contextlib.nullcontext():  # set up outside the timed part
            spent = during.spent_s if during else 0.0
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = self.cli.run(argv)
            except Exception:  # an escaped exception is a failed operation
                code = None
            latency = time.perf_counter() - start
            if during:
                latency -= during.spent_s - spent
        if code is None:
            return Sample(size_class, latency, False, self.expected_cases[size_class])
        expected = self.expected_cases[size_class]
        lines = [l for l in out.getvalue().splitlines() if l.startswith("cases checked: ")]
        cases = int(lines[0].split(": ")[1]) if len(lines) == 1 else None
        ok = code == 0 and cases == expected and self.report_passes(expected)
        # a failed sweep keeps its latency, counted over the grid it should cover
        return Sample(size_class, latency, ok, cases or expected)

    def report_passes(self, expected):
        """The --json report has status pass, no failures and the count."""
        try:
            with open(self.report_path, encoding="utf-8") as fh:
                report = json.load(fh)
        except (OSError, json.JSONDecodeError):
            return False
        return (
            report.get("status") == "pass"
            and report.get("failures") == []
            and report.get("cases_checked") == expected
        )

    def warm_up(self):
        """A low-order sweep, so lazy imports (the pool) happen untimed."""
        return [self.request("warm-up")]

    def measure(self, seconds):
        """Order-6 sweeps, at least one, while the time left is at least half
        a sweep, so a run ends within half a sweep of its length. Each sweep
        is scaled by the calibrations before, during and after it."""
        samples = []
        deadline = time.perf_counter() + seconds
        before = speed.unit_s(SWEEP_CAL_UNITS)
        while True:
            during = speed.During()
            sample = self.request(during=during)
            after = speed.unit_s(SWEEP_CAL_UNITS)
            sample.factor = speed.factor([before, *during.units, after])
            samples.append(sample)
            before = after
            if deadline - time.perf_counter() < sample.latency_s / 2:
                return samples

    def trace_units(self):
        """The unit of traced work: one order-6 sweep."""
        while True:
            yield ["large"]


# ---------------------------------------------------------------------------
# api-mix

class ApiWorkload:
    """A closed loop with one client over the six CLI-equivalent operations,
    each starting from JSON-shaped dicts and ending where the CLI prints."""

    def __init__(self, package, seed, scale):
        self.ut = package
        self.inputs = inputs.build_api_inputs(seed, scale)
        self.negative = (package.errors.NotUS, package.errors.NoLongPath)

    def _call(self, req):
        ut = self.ut
        if req.op == "distance":
            space = ut.labelings.build_ultrametric(ut.serialize.labeled_tree_from_dict(req.args[0]))
            return ut.serialize.space_to_dict(space)
        if req.op == "check-us":
            return {"witness": ut.spaces.us_witness(ut.serialize.space_from_dict(req.args[0]))}
        if req.op == "realize":
            lt = ut.spaces.realize_as_star(ut.serialize.space_from_dict(req.args[0]))
            return ut.serialize.labeled_tree_to_dict(lt)
        if req.op == "isometric":
            a = ut.serialize.space_from_dict(req.args[0])
            b = ut.serialize.space_from_dict(req.args[1])
            return {"isometric": ut.spaces.check_isometric(a, b)}
        if req.op == "classify":
            result = ut.trees.classify(ut.serialize.tree_from_dict(req.args[0]))
            return {"tag": result.tag.value, "centers": list(result.centers)}
        if req.op == "counterexample":
            lt = ut.labelings.counterexample_labeling(ut.serialize.tree_from_dict(req.args[0]))
            return ut.serialize.labeled_tree_to_dict(lt)
        raise ValueError(f"unknown operation {req.op!r}")

    def request(self, index, on_negative=None, during=None) -> Sample:
        """One request; a ``speed.During`` calibrates while it runs, and the
        time its calibrations take is not counted."""
        req = self.inputs.requests[index]
        negative = escaped = False
        with during or contextlib.nullcontext():  # set up outside the timed part
            spent = during.spent_s if during else 0.0
            start = time.perf_counter()
            try:
                output = self._call(req)
            except self.negative as err:
                output, negative = type(err).__name__, True
            except Exception:  # an escaped exception is a failed operation
                output, escaped = None, True
            latency = time.perf_counter() - start
            if during:
                latency -= during.spent_s - spent
        ok = not escaped and check_answer(req, output)
        if ok and negative and on_negative is not None:
            on_negative()
        return Sample(req.size_class, latency, ok)

    def warm_up(self):
        seen = {}
        for i, req in enumerate(self.inputs.requests):
            seen.setdefault((req.size_class, req.op), i)
        return [self.request(i) for i in seen.values()]

    def measure(self, seconds):
        """Requests in round order until the time is up. Each is scaled by
        the calibrations during it and by those taken between requests after
        every ``speed.EVERY_S`` of them, the one before and the one after."""
        samples, pending = [], []
        deadline = time.perf_counter() + seconds
        before = speed.unit_s()
        next_cal = time.perf_counter() + speed.EVERY_S
        for round_ids in self._rounds():
            for i in round_ids:
                during = speed.During()
                pending.append((self.request(i, during=during), during.units))
                now = time.perf_counter()
                if now < next_cal and now < deadline:
                    continue
                after = speed.unit_s()
                for sample, units in pending:
                    sample.factor = speed.factor([before, *units, after])
                    samples.append(sample)
                pending = []
                if now >= deadline:
                    return samples
                before = after
                next_cal = time.perf_counter() + speed.EVERY_S

    def _rounds(self):
        while True:
            yield from self.inputs.rounds

    def trace_units(self):
        """The unit of traced work: one round of the request schedule."""
        return self._rounds()


def check_answer(req, output) -> bool:
    """Whether ``output`` (a dict as the CLI would print, or the name of the
    negative-answer error raised) is the answer fixed at generation."""
    exp = req.expected
    if req.op == "distance":
        return output == exp
    if req.op == "check-us":
        return output == {"witness": exp}
    if req.op == "isometric":
        return output == {"isometric": exp}
    if req.op == "classify":
        return output == exp
    if req.op == "realize":
        if exp == "NotUS" or output == "NotUS":
            return output == exp
        return _realizes(req.args[0], output, exp["rows"])
    if req.op == "counterexample":
        if exp == "NoLongPath" or output == "NoLongPath":
            return output == exp
        return _is_counterexample(exp["tree"], output)
    return False


def _same_tree(a, b):
    return set(a["vertices"]) == set(b["vertices"]) and len(a["vertices"]) == len(
        b["vertices"]
    ) and {frozenset(e) for e in a["edges"]} == {frozenset(e) for e in b["edges"]}


def _labels(out):
    labels = out.get("labels")
    if not isinstance(labels, dict) or set(labels) != set(out["vertices"]):
        return None
    return {v: Fraction(s) for v, s in labels.items()}


def _realizes(space, out, rows):
    """A labeled star whose path-maximum metric is the input space."""
    if not isinstance(out, dict) or set(out.get("vertices", ())) != set(space["points"]):
        return False
    n = len(space["points"])
    adj = inputs.adjacency(out["vertices"], [tuple(e) for e in out["edges"]])
    if len(out["edges"]) != n - 1 or (n > 2 and max(len(a) for a in adj.values()) != n - 1):
        return False
    labels = _labels(out)
    if labels is None:
        return False
    got = inputs.path_max_matrix(out["vertices"], [tuple(e) for e in out["edges"]], labels)
    pos = {v: i for i, v in enumerate(out["vertices"])}
    pts = space["points"]
    return all(
        got[pos[pts[i]]][pos[pts[j]]] == rows[i][j] for i in range(n) for j in range(n)
    )


def _is_counterexample(tree, out):
    """The input tree, labeled so that its space has no witness."""
    if not isinstance(out, dict) or not _same_tree(tree, out):
        return False
    labels = _labels(out)
    if labels is None:
        return False
    edges = [tuple(e) for e in out["edges"]]
    if any(labels[a] == 0 and labels[b] == 0 for a, b in edges):
        return False
    rows = inputs.path_max_matrix(out["vertices"], edges, labels)
    return inputs.first_witness(out["vertices"], rows) is None


def child_cpu_s():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def make(package, name, seed, scale, out_dir):
    if name in VERIFY:
        return VerifyWorkload(package, name, scale, out_dir)
    if name == "api-mix":
        return ApiWorkload(package, seed, scale)
    raise ValueError(f"unknown workload {name!r}")
