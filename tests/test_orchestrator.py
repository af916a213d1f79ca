import hashlib
import pickle

import numpy as np
import pytest

from paleykit import operators, orchestrator
from paleykit.errors import StageFailure
from paleykit.multiindex import Smoothness, saturate
from paleykit.orchestrator import (
    SCHEMA_VERSION,
    OrchestratorConfig,
    ReplayResult,
    replay,
    report_to_json,
    run_construction,
)

from paleykit.serialization import canonical_dumps

from helpers import count_sign_patterns

S = Smoothness.from_indices(saturate({(2, 0), (0, 1)}))
# fails condition (iv) at the first two schedules (sum_iv 4.81, 2.04)
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


@pytest.mark.parametrize("maximal, config, pin", [
    ({(2, 0), (0, 1)}, dict(K=2, composite_count=3),
     "e59c725f30bf88df97fdf0700b5b0ba97821c9d52230cf45188d8044c5dc6aa1"),
    ({(2, 0), (0, 1)}, {},
     "382a3a54bde0ca3e2beacb81dd120c3e4a94f9c68e963a522b96fadb64164ccc"),
    ({(3, 0), (2, 1), (0, 2)}, {},
     "1f07afd7f273b02ecb30538ad7e49d6fc5678cc6ba9c79159e7d6a5b2b852a09"),
    (D4, {},
     "96eaff9139fdc7d359d2c146127e8c730a972c7cae2444686172f41bdee17e98"),
    ({(2, 0), (0, 3)}, {},
     "1b14ce73999ec4d977827945c12d4c099b01b908cd151f196b25887e0a0e4e3e"),
], ids=["S_ref_K2", "S_ref", "S3021", "d4", "S_retry"])
def test_report_bytes_pinned_with_the_schema_version(maximal, config, pin):
    # replay forgives 1e-12 relative, so a report field that moves in its
    # last bits needs a new SCHEMA_VERSION and a new pin here; the Paley
    # block stays out, as its eigenvalue bits depend on the BLAS
    s = Smoothness.from_indices(saturate(maximal))
    rep = run_construction(s, OrchestratorConfig(matrix_dims=(), **config))
    d = report_to_json(rep)
    d.pop("timings")
    digest = hashlib.sha256(canonical_dumps(d).encode()).hexdigest()
    assert (SCHEMA_VERSION, digest) == (5, pin)


@pytest.mark.parametrize("field, value", [
    ("composite_count", 0), ("retries", -1), ("seed", -1), ("seed", 2.5),
    ("seed", True), ("K", 0), ("K", 2.5)])
def test_config_that_empties_a_gate_is_rejected(monkeypatch, field, value):
    # zero composite samples would report an error of 0.0, and retries
    # -1 would fail the sequence stage without building a plan; seed -1
    # and 2.5 used to fail in numpy inside the composite stage, seed True
    # to run as seed 1, and K 2.5 to raise TypeError in the sequence stage
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


def test_stage_failure_survives_pickling():
    bad = Smoothness.from_indices(saturate({(1, 1)}))
    with pytest.raises(StageFailure) as exc:
        run_construction(bad, TINY)
    for err in (exc.value, StageFailure("sequence", "q_s_overflow", {"k": 4}),
                StageFailure("riesz", "not_lacunary")):
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is StageFailure
        assert (back.stage, back.reason, back.details, str(back)) == \
            (err.stage, err.reason, err.details, str(err))
    assert exc.value.details == {"smoothness": bad}


def test_conditions_unmet_failure():
    cfg = OrchestratorConfig(K=4, retries=0, matrix_dims=())
    with pytest.raises(StageFailure) as exc:
        run_construction(S_RETRY, cfg)
    assert exc.value.stage == "sequence"
    assert exc.value.reason == "conditions_unmet"
    assert exc.value.details["last_report"]["bound_iv_met"] is False


def test_report_json_shape(tiny_report):
    d = report_to_json(tiny_report)
    assert d["schema_version"] == 5
    assert d["paley"]["per_dim"]["1"]["sup_ratio"] > 0.0
    assert set(d["timings"]) == {"property_o", "sequence", "riesz",
                                 "composite", "paley"}
