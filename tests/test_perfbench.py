"""The benchmark's output checks run their self-tests here too, so a
change that breaks what they read fails the test suite, not only a
benchmark run."""

import os
import pathlib
import subprocess
import sys
import types

from paleykit.multiindex import Smoothness, saturate
from paleykit.orchestrator import OrchestratorConfig, run_construction
from paleykit.property_o import find_witness
from paleykit.riesz import riesz_coeffs
from paleykit.sequence import build_sequence

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_benchmark_selftests_pass():
    # no bytecode: the run leaves nothing under perfbench/
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run([sys.executable, "perfbench/run.py", "--selftest"],
                         cwd=ROOT, env=env, capture_output=True, text=True,
                         timeout=120)
    assert out.returncode == 0, out.stdout + out.stderr
    assert "0 self-test(s) broken" in out.stdout


def load_source(name):
    # perfbench/<name>.py executed from its source, so no bytecode is
    # written under perfbench/
    path = ROOT / "perfbench" / ("%s.py" % name)
    module = types.ModuleType("perfbench_" + name)
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def test_traced_riesz_stage_keeps_its_pattern_count():
    # the tracer's hook reads RieszMeasure.coeffs, which now expands the
    # product on demand, after the riesz_coeffs span has ended
    tracing = load_source("tracing")
    s = Smoothness.from_indices(saturate({(2, 0), (0, 1)}))
    plan = build_sequence(s, find_witness(s), 4, 100, 10)
    result = riesz_coeffs(plan.sequence, 4)
    assert tracing._riesz_info((plan.sequence, 4), {}, result) == {"patterns": 81}


def test_reference_construction_passes_the_benchmark_checks():
    # the construct_ref gate on a shorter probe: claims, composite error,
    # digest, and every per-m sup recomputed from its argmax sample by
    # direct summation and per-point SVDs to 1e-9
    checks = load_source("checks")
    s = Smoothness.from_indices(saturate({(2, 0), (0, 1)}))
    report = run_construction(s, OrchestratorConfig(paley_count=12))
    assert sorted(report.paley["per_dim"]) == [1, 2, 4, 8]
    assert checks.check_report(report) == []
    assert checks.check_paley(report) == []
