"""Self-tests of the output checks: each check must pass a real result
and fail the same result corrupted.  Every benchmark run runs them
first; `python3 perfbench/run.py --selftest` runs only them.
"""

import copy
import dataclasses
import math

import numpy as np

import checks
import paleykit


def _tiny_report():
    s = paleykit.Smoothness.from_indices(paleykit.saturate({(2, 0), (0, 1)}))
    config = paleykit.OrchestratorConfig(K=1, composite_count=2, matrix_dims=(1, 2),
                                         paley_count=3, grid_n=11, seed=5)
    return paleykit.run_construction(s, config)


def _sample(m, length, seed):
    rng = np.random.default_rng(seed)
    mats = [(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / math.sqrt(2)
            for _ in range(length)]
    return mats, [3**k for k in range(length)]


def _cases():
    """(name, problems, should_fail) for every self-test."""
    report = _tiny_report()
    no_witness = paleykit.StageFailure("property_o", "no_witness")
    yield "verdict: witness as expected", checks.check_verdict("witness", report, None), False
    yield "verdict: no_witness as expected", checks.check_verdict("no_witness", None, no_witness), False
    yield "verdict flipped to no_witness", checks.check_verdict("witness", None, no_witness), True
    yield "verdict flipped to witness", checks.check_verdict("no_witness", report, None), True
    yield "verdict: other StageFailure", checks.check_verdict(
        "no_witness", None, paleykit.StageFailure("sequence", "conditions_unmet")), True
    yield "verdict: OverflowError", checks.check_verdict(
        "witness", None, OverflowError("int too large")), True

    yield "report as returned", checks.check_report(report), False
    for field, bad in (("claim_a", False), ("claim_b", False), ("rho_bounds_ok", False),
                       ("composite_max_rel_error", 1e-9), ("digest", "0" * 64)):
        yield "report: %s=%r" % (field, bad), checks.check_report(
            dataclasses.replace(report, **{field: bad})), True
    w = report.witness
    bad_w = dataclasses.replace(w, c=tuple(2 * v for v in w.c))
    yield "report: witness c doubled", checks.check_report(
        dataclasses.replace(report, witness=bad_w)), True

    yield "paley as returned", checks.check_paley(report), False
    for m in report.config.matrix_dims:
        bad = copy.deepcopy(report.paley)
        bad["per_dim"][m]["sup_ratio"] *= 1 + 1e-6
        yield "paley m=%d: sup_ratio * (1 + 1e-6)" % m, checks.check_paley(
            dataclasses.replace(report, paley=bad)), True

    for m, length in ((1, 3), (2, 1), (2, 2)):
        mats, freqs = _sample(m, length, [m, length])
        ratio = paleykit.khintchine_ratio(paleykit.MatrixSequence(mats), freqs)
        num = checks.s1_l1_lacunary(np.asarray(mats), freqs)
        lower, upper = checks.cr_bracket(np.asarray(mats))
        tag = "khintchine m=%d L=%d" % (m, length)
        yield tag + " as returned", checks.check_khintchine(mats, freqs, ratio), False
        yield tag + " C+R above bracket", checks.check_khintchine(
            mats, freqs, num / (upper * (1 + 1e-6))), True
        yield tag + " C+R below bracket", checks.check_khintchine(
            mats, freqs, num / (lower * (1 - 1e-6))), True
        yield tag + " ratio nan", checks.check_khintchine(mats, freqs, float("nan")), True
        if m == 1:
            yield tag + " C+R inside bracket but not l2", checks.check_khintchine(
                mats, freqs, num / (0.5 * (lower + upper))), True

    fp = checks.paley_fingerprint(report)
    record = checks.DeterminismRecord()
    yield "determinism: first run", record.check(1, "S_ref", fp), False
    yield "determinism: same run again", record.check(1, "S_ref", copy.deepcopy(fp)), False
    moved = copy.deepcopy(fp)
    moved["per_dim"]["1"][0] = math.nextafter(float.fromhex(moved["per_dim"]["1"][0]), 2.0).hex()
    yield "determinism: sup_ratio moved", record.check(1, "S_ref", moved), True
    yield "determinism: digest moved", record.check(2, "S_ref", dict(fp, digest="f" * 64)), True


def run_selftests():
    """Names of the self-tests whose check did not behave as required."""
    broken = []
    for name, problems, should_fail in _cases():
        if bool(problems) != should_fail:
            broken.append("%s: %s" % (name, problems or "no problem found"))
    return broken

