import ast
import dataclasses
import hashlib
import re
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from paleykit import operators, orchestrator, sequence
from paleykit.errors import StageFailure
from paleykit.multiindex import Smoothness, q_s_eval, saturate
from paleykit.orchestrator import (
    SCHEMA_VERSION,
    OrchestratorConfig,
    ReplayResult,
    replay,
    report_to_json,
    run_construction,
)

from paleykit.sequence import Q_S_LIMIT, LacunaryPlan
from paleykit.serialization import canonical_dumps

from helpers import count_sign_patterns, witness_corpus

S = Smoothness.from_indices(saturate({(2, 0), (0, 1)}))
# fails condition (iv) at the first two schedules (sum_iv 4.81, 2.04)
# from t0 = 100, q = 10, and at the first four from t0 = q = 3
S_RETRY = Smoothness.from_indices(saturate({(2, 0), (0, 3)}))
TINY = OrchestratorConfig(K=2, matrix_dims=(1,), paley_count=3,
                          composite_count=3, paley_box=3, grid_n=21)


@pytest.fixture(scope="module")
def tiny_report():
    return run_construction(S, TINY)


def test_full_run_succeeds(tiny_report):
    rep = tiny_report
    assert rep.claim_a and rep.claim_b and rep.rho_bounds_ok
    assert rep.plan.report.cond_i
    assert rep.plan.report.bound_iii_met and rep.plan.report.bound_iv_met
    assert rep.composite_max_rel_error < 1e-9
    assert rep.paley["sup_ratio"] > 0.0
    assert rep.digest == (
        "15e13866f5270df7753a8c4c52f474c51d8ce28000246466f998ad63ccd1c236")


D4 = {(2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)}


@pytest.mark.parametrize("maximal, config, pin, derived", [
    ({(2, 0), (0, 1)}, dict(K=2, composite_count=3),
     "2b9b27707a0414b5b7e432c437222e32ccab5bac374f557e4b9b3de522239c74",
     (2, [0, 110], 1j, 0.99225)),
    ({(2, 0), (0, 1)}, {},
     "3563e2ea0f57eb03370c7480bdbcf9006a6498ff496a1652e5e15749c76fdc3e",
     (4, [0, 110, 16236, 327714338], 1j, 1.0000000001274358)),
    ({(3, 0), (2, 1), (0, 2)}, {},
     "c977bf82cdec4fec6169f2ba47c8f8546428743b934f4540a5ce9d80a7e97da6",
     (4, [0, 13, 282, 103002], 1j, 1.0000010376178337)),
    (D4, {},
     "9705e53cc06b7b55018e3bee2e8f2d2da49c7c5ff37a6ddd7b6cd9d36d316ba8",
     (4, [0, 130, 32667, 1310861279], 1j, 1.0000000001274358)),
    ({(2, 0), (0, 3)}, {},
     "a36071fc2f929d9c06d0dd262e3864aa4f3b13a328013d5c095a3dc7343a55ed",
     (4, [0, 10464, 1437277, 2265902525], -1j, 0.999999999759827)),
], ids=["S_ref_K2", "S_ref", "S3021", "d4", "S_retry"])
def test_report_bytes_pinned_with_the_schema_version(maximal, config, pin, derived):
    # replay forgives 1e-12 relative, so a report field that moves in its
    # last bits needs a new SCHEMA_VERSION and a new pin here; the Paley
    # block stays out, as its eigenvalue bits depend on the BLAS.  derived
    # holds the K, radii, tau and ell_hat that schema 6 reports stored.
    s = Smoothness.from_indices(saturate(maximal))
    rep = run_construction(s, OrchestratorConfig(matrix_dims=(), **config))
    d = report_to_json(rep)
    d.pop("timings")
    digest = hashlib.sha256(canonical_dumps(d).encode()).hexdigest()
    assert (SCHEMA_VERSION, digest) == (7, pin)
    plan = rep.plan
    assert (plan.K, plan.radii, plan.tau, plan.ell_hat) == derived


@pytest.mark.parametrize("field, value", [
    ("composite_count", 0), ("seed", -1), ("seed", 2.5),
    ("seed", True), ("K", 0), ("K", 2.5), ("t0", 1), ("q", 1), ("t0", True)])
def test_config_that_empties_a_gate_is_rejected(monkeypatch, field, value):
    # zero composite samples would report an error of 0.0; seed -1
    # and 2.5 used to fail in numpy inside the composite stage, seed True
    # to run as seed 1, K 2.5 to raise TypeError in the sequence stage,
    # and t0 or q 1 to fail there after the witness search
    def no_stage(s):
        raise AssertionError("a stage ran")

    monkeypatch.setattr(orchestrator, "find_witness_or_fail", no_stage)
    with pytest.raises(ValueError, match="need"):
        run_construction(S, OrchestratorConfig(matrix_dims=(), **{field: value}))


@pytest.mark.parametrize("field, value", [
    ("matrix_dims", (2.7,)), ("matrix_dims", (True,)), ("matrix_dims", (4, 4)),
    ("matrix_dims", (0,)), ("paley_count", 0), ("paley_count", True),
    ("paley_terms", -1), ("paley_box", -1), ("paley_box", 2.0), ("grid_n", 2.5)])
def test_paley_config_is_rejected_before_any_stage(monkeypatch, field, value):
    # (2.7,) used to probe m = 2 and paley_terms -1 to fail in numpy
    def no_stage(s):
        raise AssertionError("a stage ran")

    monkeypatch.setattr(orchestrator, "find_witness_or_fail", no_stage)
    with pytest.raises(ValueError, match="need"):
        run_construction(S, OrchestratorConfig(**{field: value}))


def test_numpy_matrix_dims_are_python_ints():
    rep = run_construction(S, OrchestratorConfig(
        K=2, matrix_dims=(np.int64(3),), paley_count=2, composite_count=1, grid_n=21))
    assert [type(m) for m in rep.paley["per_dim"]] == [int]
    assert rep.paley["mdim"] == (3,)


def test_retry_squares_the_schedule():
    # the first two schedules fail the smallness conditions, the twice
    # squared one passes, so two retries and t0 = 100^4
    rep = run_construction(S_RETRY, OrchestratorConfig(matrix_dims=(),
                                                       composite_count=3))
    assert rep.retries_used == 2
    assert rep.plan.t0 == 100**4
    assert rep.plan.q == 10**4
    assert rep.plan.report.bound_iv_met


def test_retries_run_until_the_conditions_hold():
    # no retry count: four squarings from t0 = q = 3 reach the schedule
    # at which (iv) holds
    rep = run_construction(S_RETRY, OrchestratorConfig(t0=3, q=3, matrix_dims=()))
    assert rep.retries_used == 4
    assert (rep.plan.t0, rep.plan.q) == (3**16, 3**16)


def test_range_rule_ends_the_retries(monkeypatch):
    # at K = 8 the first four schedules fail the conditions, and the
    # fifth, t0 = q = 3^16, puts Q_S(n_8) past double range
    schedules = []
    original = sequence.build_sequence

    def spy(s, witness, K, t0, q):
        schedules.append(t0)
        return original(s, witness, K, t0, q)

    monkeypatch.setattr(sequence, "build_sequence", spy)
    with pytest.raises(StageFailure) as exc:
        run_construction(S_RETRY, OrchestratorConfig(K=8, t0=3, q=3, matrix_dims=()))
    assert (exc.value.stage, exc.value.reason, exc.value.details) == (
        "sequence", "q_s_overflow", {"k": 8})
    assert schedules == [3**(2**i) for i in range(5)]


def test_schedule_budget_ends_a_rational_retry_loop(monkeypatch):
    # near 1 each squaring doubles the denominators' bit length but
    # barely raises Q_S(n_K), so the range rule alone would wait for
    # 3e8-bit schedules; the budget stops at the seventh squaring
    denominators = []
    original = sequence.build_sequence

    def spy(s, witness, K, t0, q):
        denominators.append(Fraction(t0).denominator)
        return original(s, witness, K, t0, q)

    monkeypatch.setattr(sequence, "build_sequence", spy)
    near_one = Fraction(1000001, 1000000)
    with pytest.raises(StageFailure) as exc:
        run_construction(S_RETRY, OrchestratorConfig(t0=near_one, q=near_one,
                                                     matrix_dims=()))
    assert (exc.value.stage, exc.value.reason, exc.value.details) == (
        "sequence", "schedule_budget", {"retries": 7})
    assert denominators == [10**(6 * 2**i) for i in range(7)]
    assert denominators[-1].bit_length() <= sequence.SCHEDULE_BITS < (
        denominators[-1]**2).bit_length()


def test_range_rule_leaves_room_for_the_later_stages():
    # Q_S(n_2) = 0.89 Q_S_LIMIT: the composite check, the rho_k bounds and
    # the Paley probe (closed-form trace norms at m = 3 and 4 included)
    # all run in double range
    config = OrchestratorConfig(K=2, t0=11 * 2**246, q=2, matrix_dims=(1, 3, 4))
    rep = run_construction(S, config)
    assert 0.8 * Q_S_LIMIT < q_s_eval(S, rep.plan.sequence[-1]) < Q_S_LIMIT
    assert rep.rho_bounds_ok
    canonical_dumps(report_to_json(rep))
    # at 2^23.3 Q_S_LIMIT the composite check's sum of squares overflowed
    # with a raw OverflowError; the range rule now names the stage
    with pytest.raises(StageFailure) as exc:
        run_construction(S, replace(config, t0=19 * 2**251))
    assert (exc.value.reason, exc.value.details) == ("q_s_overflow", {"k": 2})


def test_witness_corpus_constructs_or_fails_by_name():
    # every set with a witness constructs or fails with q_s_overflow,
    # never with a raw exception; the hash pins each outcome and digest
    outcomes = []
    for s in witness_corpus():
        try:
            rep = run_construction(s, OrchestratorConfig(matrix_dims=()))
            outcomes.append(("retries", rep.retries_used, rep.digest))
        except StageFailure as exc:
            outcomes.append((exc.reason, exc.details["k"], None))
    assert Counter(o[:2] for o in outcomes) == {
        ("retries", 0): 11, ("retries", 1): 23, ("retries", 2): 20,
        ("retries", 3): 10, ("retries", 4): 16, ("q_s_overflow", 4): 10}
    assert hashlib.sha256(repr(outcomes).encode()).hexdigest() == (
        "4a5f1a14b376cddbece618126a54b5881a2cc278330ab489b2b820e3211fed56")


def test_order_four_member_constructs_without_retry():
    # an order-4 member: the first schedule meets condition (iv), so no
    # retry squares the schedule towards Q_S overflow
    s = Smoothness.from_indices(saturate({(4, 0), (0, 1)}))
    rep = run_construction(s, OrchestratorConfig(matrix_dims=()))
    assert rep.retries_used == 0
    assert rep.plan.report.bound_iv_met


def test_no_sign_pattern_walk_per_construction(monkeypatch):
    calls = count_sign_patterns(monkeypatch)
    rep = run_construction(S, OrchestratorConfig(K=2, matrix_dims=(),
                                                 composite_count=3))
    assert calls == []
    assert rep.claim_a and rep.claim_b


def test_composite_samples_draw_on_lambda_only(monkeypatch):
    # the composite identity reads f only on Lambda, so nothing off it is
    # drawn
    drawn = []
    original = orchestrator.random_trigpoly

    def spy(frequencies, **kwargs):
        drawn.append(frequencies)
        return original(frequencies, **kwargs)

    monkeypatch.setattr(orchestrator, "random_trigpoly", spy)
    rep = run_construction(S, OrchestratorConfig(matrix_dims=(), composite_count=3))
    assert len(drawn) == 3
    assert all(freqs == rep.plan.sequence for freqs in drawn)


def test_rho_bounds_see_an_error_in_m(monkeypatch):
    # rho_k comes from M's multiplier on Lambda, so the composite check
    # cannot see an error in that multiplier; the bounds, which recompute
    # rho_k from the symbols, do
    original = operators._m_factor
    monkeypatch.setattr(operators, "_m_factor",
                        lambda nu, plan: 1.01 * original(nu, plan))
    rep = run_construction(S, OrchestratorConfig(matrix_dims=()))
    assert rep.composite_max_rel_error == 0.0
    assert not rep.rho_bounds_ok


def test_determinism(tiny_report):
    again = run_construction(S, TINY)
    a = report_to_json(tiny_report)
    b = report_to_json(again)
    a.pop("timings"), b.pop("timings")
    assert a == b


def test_replay_accepts_immediate_rerun(tiny_report):
    r = replay(tiny_report, S, TINY)
    assert isinstance(r, ReplayResult)
    assert bool(r)
    assert r.mismatches == []


def test_replay_flags_altered_seed(tiny_report):
    other = OrchestratorConfig(K=2, matrix_dims=(1,), paley_count=3,
                               composite_count=3, paley_box=3, grid_n=21,
                               seed=42)
    r = replay(tiny_report, S, other)
    assert not bool(r)
    moved = {m.split(":")[0] for m in r.mismatches}
    # only the seed echo and the sampled Paley numbers move; the plan,
    # digest, and every boolean stay put
    assert all("paley" in m or "seed" in m for m in moved)
    assert not any("digest" in m or "claim" in m or ".plan." in m for m in moved)


def test_replay_flags_changed_k(tiny_report):
    other = OrchestratorConfig(K=3, matrix_dims=(1,), paley_count=3,
                               composite_count=3, paley_box=3, grid_n=21)
    r = replay(tiny_report, S, other)
    assert not bool(r)
    assert any("digest" in m for m in r.mismatches)


def test_replay_rejects_schema_mismatch(tiny_report):
    saved = tiny_report.schema_version
    try:
        tiny_report.schema_version = 99
        r = replay(tiny_report, S, TINY)
        assert not bool(r)
        assert "schema_version" in r.mismatches[0]
    finally:
        tiny_report.schema_version = saved


def test_stage_isolation(tiny_report):
    off = OrchestratorConfig(K=2, matrix_dims=(), paley_count=3,
                             composite_count=3, paley_box=3, grid_n=21)
    rep_off = run_construction(S, off)
    assert rep_off.paley == {}
    a = report_to_json(tiny_report)
    b = report_to_json(rep_off)
    for key in ("smoothness", "witness", "plan", "digest", "retries_used",
                "claim_a", "claim_b", "rho_bounds_ok",
                "composite_max_rel_error"):
        assert a[key] == b[key]


def test_no_witness_failures():
    for indices in [saturate({(1, 1)}), {(0, 0)}]:
        bad = Smoothness.from_indices(indices)
        with pytest.raises(StageFailure) as exc:
            run_construction(bad, TINY)
        assert exc.value.stage == "property_o"
        assert exc.value.reason == "no_witness"
        assert exc.value.details == {"smoothness": bad}


def stage_failures():
    """(stage, reason) of every StageFailure(...) in src/paleykit whose
    stage and reason are string literals."""
    found = set()
    for path in Path(orchestrator.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "StageFailure"
                    and len(node.args) >= 2
                    and all(isinstance(a, ast.Constant) and isinstance(a.value, str)
                            for a in node.args[:2])):
                found.add((node.args[0].value, node.args[1].value))
    return found


def test_every_stage_failure_is_documented():
    # every stage can stop run_construction, so its docstring names each
    # pair, and README lists each as `stage`/`reason`
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    found = stage_failures()
    assert found == {("property_o", "no_witness"), ("sequence", "q_s_overflow"),
                     ("sequence", "schedule_budget"), ("sequence", "doubling_budget"),
                     ("riesz", "not_lacunary")}
    for stage, reason in found:
        assert "`%s`/`%s`" % (stage, reason) in readme
        assert "%s, %s" % (stage, reason) in run_construction.__doc__


def test_report_stores_the_smoothness_set_the_plan_holds():
    # a raw index set is stored as the Smoothness the stages coerce it to,
    # the same form as "plan"."smoothness"
    rep = run_construction(saturate({(2, 0), (0, 1)}),
                           OrchestratorConfig(K=2, matrix_dims=(), composite_count=1))
    d = report_to_json(rep)
    assert d["smoothness"] == d["plan"]["smoothness"] == {
        "dim": 2, "indices": [[0, 0], [0, 1], [1, 0], [2, 0]]}


def test_readme_names_the_schema_version():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert re.findall(r"Reports are schema (\d+)", readme) == [str(SCHEMA_VERSION)]


def test_readme_names_the_plan_fields():
    # a field added to LacunaryPlan, such as a stored copy of a derived
    # value, must be named in README too
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (sentence,) = re.findall(r"A plan stores the fields ([^.]*)\.", readme)
    assert re.findall(r"`(\w+)`", sentence) == [
        f.name for f in dataclasses.fields(LacunaryPlan)]


def test_report_json_shape(tiny_report):
    d = report_to_json(tiny_report)
    assert d["schema_version"] == 7
    assert d["paley"]["per_dim"]["1"]["sup_ratio"] > 0.0
    assert set(d["timings"]) == {"property_o", "sequence", "riesz",
                                 "composite", "paley"}
