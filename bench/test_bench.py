"""Tests of the benchmark itself, on tiny versions of each workload.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def tiny_main(tmp_path, monkeypatch, capsys):
    """Run the benchmark command on a tiny workload; return its result line."""
    monkeypatch.setattr(run, "RESULTS", tmp_path / "results")
    monkeypatch.setattr(run, "SETUP_PROBES", 1)

    def call(*argv):
        assert run.main([*argv, "--seconds", "0"], tiny=True) == 0
        return json.loads(capsys.readouterr().out.strip().splitlines()[-1])

    return call


def _vcomp_bindings() -> dict:
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "vcomp" or name.startswith("vcomp.")
        for attr, value in vars(module).items()
    }


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_every_metric_is_emitted_with_its_unit(tiny_main, workload, trace):
    result = tiny_main("--workload", workload, "--trace", str(trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_traced_run_restores_every_wrapped_function(tiny_main):
    import vcomp.cli  # noqa: F401  (loads every vcomp module)

    before = _vcomp_bindings()
    result = tiny_main("--workload", "normality_cv", "--trace", "1")
    after = _vcomp_bindings()
    assert result["metrics"]["estimator.fit_mle.calls"]["value"] > 0
    assert before.keys() == after.keys()
    assert [key for key in before if before[key] is not after[key]] == []
    assert spans._active is None


def test_check_flags_failed_gates_and_cells_far_from_reference(tmp_path):
    case = workloads.build_case("fit_sweep", 7, tmp_path)
    cells = [{"cell": name, "estimate": est, "stderr": se}
             for name, (est, se) in case.reference["cells"].items()]
    report = SimpleNamespace(gates=[{"gate": "slope_window", "pass": True}], cells=cells)
    assert case.check(report) == []
    cells[0]["estimate"] += 10 * cells[0]["stderr"]
    report.gates.append({"gate": "medians_decreasing", "pass": False})
    assert len(case.check(report)) == 2


def test_traced_report_bytes_equal_untraced(tmp_path):
    case = workloads.build_case("normality_cv", 1, tmp_path / "case", tiny=True)
    case.prepare()
    untraced = case.run()
    tracer = spans.Tracer(tmp_path / "trace")
    tracer.install()
    try:
        traced = case.run()
    finally:
        tracer.uninstall()
    tracer.flush()
    assert traced.digest == untraced.digest
    assert traced.failed == untraced.failed == 0
    # the fits run in the pool workers, and their spans reach the trace
    recorded = spans.read_spans(tmp_path / "trace")
    fit_pids = {span[3] for span in recorded if span[2] == "estimator.fit_mle"}
    assert fit_pids and tracer.pid not in fit_pids


def test_exits_nonzero_without_a_result_outside_a_checkout(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "_work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fit_sweep", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
