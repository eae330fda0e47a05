"""Self-test of the benchmark at tiny sizes, a few seconds in all.

Each run happens in a fresh interpreter: the benchmark re-imports
``ultratree`` from ``src/`` during set-up, which must not disturb the
modules other tests have imported.
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SCRIPT = """
import sys
sys.path.insert(0, {bench!r})
import inputs, run, workloads
TINY = inputs.Scale(
    small_sizes=(4, 5, 6), large_sizes=(8, 9), small_pool=6, large_pool=6, large_isometric_pool=6,
    round_orders=2, verify_order=4, verify_warm_order=2,
)
{patch}
sys.exit(run.main(sys.argv[1:], scale=TINY))
"""

WRONG_ISOMETRY = """
real = inputs.build_api_inputs
def corrupted(seed, scale):
    built = real(seed, scale)
    req = next(r for r in built.requests if r.op == "isometric")
    req.expected = not req.expected
    return built
inputs.build_api_inputs = corrupted
"""

WRONG_CASE_COUNT = """
real = workloads.predicted_cases
workloads.predicted_cases = lambda *args: real(*args) + 1
"""

WORKLOADS = ("verify-main", "verify-nondeg-j2", "api-mix")


def _bench(workload, trace=0, patch="", seconds="0.3"):
    code = SCRIPT.format(bench=str(HERE), patch=patch)
    argv = ["--workload", workload, "--seed", "3", "--seconds", seconds, "--trace", str(trace)]
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def _declared(section):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_prints_with_its_unit(workload):
    text, result = _bench(workload)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for name, unit in _declared("end_to_end").items():
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
        assert any(line.startswith(f"{name} = ") and f" {unit}  (" in line for line in text)
    assert any(line.startswith("failed_frac = 0 fraction") for line in text)


@pytest.mark.parametrize("workload", ("verify-main", "api-mix"))
def test_traced_run_reports_every_per_layer_metric(workload):
    _, result = _bench(workload, trace=1)
    metrics = result["metrics"]
    for name, unit in _declared("per_layer").items():
        assert metrics[name]["unit"] == unit
    if workload == "verify-main":
        # main theorem, orders 1..4, three values: 4 + 10 + 84 + 1312 cases
        assert metrics["verify.cases"]["value"] == 1410
        assert metrics["cli.run.calls"]["value"] == 1
    else:
        assert metrics["spaces.check_isometric.calls"]["value"] > 0
        assert metrics["errors.negative_answers"]["value"] > 0
    assert metrics["trace.coverage"]["value"] <= 1


@pytest.mark.parametrize(
    "workload, patch",
    [("api-mix", WRONG_ISOMETRY), ("verify-main", WRONG_CASE_COUNT)],
)
def test_wrong_expected_answer_counts_as_failed(workload, patch):
    text, result = _bench(workload, patch=patch)
    assert not result["correct"] and result["failed"] > 0
    frac = next(line for line in text if line.startswith("failed_frac = "))
    assert float(frac.split()[2]) > 0


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "api-mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_calibration_during_work_is_taken_off_its_time():
    sys.path.insert(0, str(HERE))
    try:
        import speed
    finally:
        sys.path.remove(str(HERE))
    previous = signal.getsignal(signal.SIGALRM)
    start = time.perf_counter()
    with speed.During() as during:
        while time.perf_counter() - start < 0.3:
            pass
    assert signal.getsignal(signal.SIGALRM) is previous
    assert len(during.units) >= 3 and 0 < during.spent_s < 0.3
    assert speed.factor([speed.NOMINAL_S, speed.NOMINAL_S]) == 1
    assert speed.factor(during.units) > 0
