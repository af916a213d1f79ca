"""The benchmark's output checks run their self-tests here too, so a
change that breaks what they read fails the test suite, not only a
benchmark run."""

import os
import pathlib
import subprocess
import sys
import types

import pytest

from paleykit import orchestrator
from paleykit.crnorm import khintchine_ratio
from paleykit.multiindex import Smoothness, saturate
from paleykit.orchestrator import OrchestratorConfig, run_construction
from paleykit.property_o import find_witness
from paleykit.riesz import riesz_coeffs
from paleykit.sequence import build_sequence

from helpers import KHINTCHINE_CELLS, khintchine_cell_sample

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
    # the construct_ref gate on the default probe, where the visiting
    # order decides which samples run their grid norms: claims, composite
    # error, digest, and every per-m sup recomputed from its argmax
    # sample by direct summation and per-point SVDs to 1e-9
    checks = load_source("checks")
    s = Smoothness.from_indices(saturate({(2, 0), (0, 1)}))
    for seed in (0, 7):
        report = run_construction(s, OrchestratorConfig(seed=seed))
        assert sorted(report.paley["per_dim"]) == [1, 2, 4, 8]
        assert checks.check_report(report) == []
        assert checks.check_paley(report) == []


# exact_scan's witness sets (perfbench/workloads.py SCAN_SETS)
SCAN_WITNESS_SETS = [
    [(2, 0), (0, 1)],
    [(3, 0), (2, 1), (0, 2)],
    [(2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)],
]


@pytest.mark.parametrize("maximal", SCAN_WITNESS_SETS, ids=["S_ref", "S3021", "d4"])
def test_exact_scan_constructions_pass_the_benchmark_checks(maximal):
    # exact_scan's gate: verdict, claims, composite error and digest
    checks = load_source("checks")
    s = Smoothness.from_indices(saturate(maximal))
    report = run_construction(s, OrchestratorConfig(matrix_dims=()))
    assert checks.check_verdict("witness", report, None) == []


@pytest.mark.parametrize("seed", [0, 7])
def test_khintchine_round_passes_the_benchmark_checks(seed):
    # khintchine's gate on one round of its 32 (m, L) cells: the C+R value
    # implied by each ratio inside the bracket the checks compute, and
    # equal to the trace norm at L = 1 and to the l2 norm at m = 1
    checks = load_source("checks")
    for i in range(len(KHINTCHINE_CELLS)):
        mats = khintchine_cell_sample(seed, i)
        freqs = [3**k for k in range(len(mats))]
        ratio = khintchine_ratio(mats, freqs)
        assert checks.check_khintchine(mats, freqs, ratio) == [], (seed, i)


@pytest.mark.parametrize("corrupt", [
    lambda factor, w: (factor, 0.25),
    lambda factor, w: (1.01 * factor, w),
], ids=["riesz_coefficient_0.25", "m_factor_1.01"])
def test_lambda_only_composite_check_fails_a_corrupt_stage(monkeypatch, corrupt):
    # a Riesz coefficient of 0.25 at n_K, or M's factor there scaled
    # while rho_k is left alone, moves the composite off its closed form.
    # The error is relative to the whole closed form, where n_K carries
    # nearly all the weight: at n_1 or n_2 the same corruptions read
    # under 1e-12 and pass (ROADMAP item 5)
    checks = load_source("checks")
    original = orchestrator.build_pipeline

    def corrupted(plan):
        pipeline = original(plan)
        n = plan.sequence[-1]
        pipeline.on_lambda[n] = corrupt(*pipeline.on_lambda[n])
        return pipeline

    monkeypatch.setattr(orchestrator, "build_pipeline", corrupted)
    s = Smoothness.from_indices(saturate({(2, 0), (0, 1)}))
    report = run_construction(s, OrchestratorConfig(matrix_dims=()))
    assert report.composite_max_rel_error > 1e-12
    problems = checks.check_report(report)
    assert problems and all(p.startswith("composite_max_rel_error") for p in problems)
