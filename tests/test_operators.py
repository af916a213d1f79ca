import math
import types

import numpy as np
import pytest

from paleykit.multiindex import Smoothness, derivative_multiplier, saturate
from paleykit.operators import (
    PaleySampler,
    ball_multiplicity,
    build_pipeline,
    composite_apply,
    composite_closed_form,
    composite_relative_error,
    convolve_riesz,
    coordinate_projection,
    estimate_paley_constant,
    operator_m,
    paley_project,
    paley_ratio,
)
from paleykit.orchestrator import OrchestratorConfig, paley_probe
from paleykit.property_o import find_witness
from paleykit.sequence import build_sequence
from paleykit.trigpoly import TrigPoly, random_trigpoly

S = Smoothness.from_indices(saturate({(2, 0), (0, 1)}))
WITNESS = find_witness(S)
PLAN = build_sequence(S, WITNESS, 4, 100, 10)
PIPE = build_pipeline(PLAN)


def test_pipeline_constants():
    assert len(PIPE.rho_k) == 4
    # |rho_k| must land in [rho_hat(1+ell)/2, (1+ell)/2]
    lo = 0.5 * PLAN.rho_hat * (1.0 + PLAN.ell_hat)
    hi = 0.5 * (1.0 + PLAN.ell_hat)
    for r in PIPE.rho_k:
        assert lo - 1e-12 <= abs(r) <= hi + 1e-12


def test_ball_multiplicity_counts_every_containment():
    fake = types.SimpleNamespace(K=2, sequence=[(10, 10), (12, 12)], radii=[5, 5])
    assert ball_multiplicity(fake, (11, 11)) == 2
    assert ball_multiplicity(fake, (10, 10)) == 2
    assert ball_multiplicity(fake, (20, 20)) == 0


def test_m_on_first_center():
    # alpha=(2,0), beta=(0,1) at n_1=(10,100): the factor collapses to
    # -100 - 100*ell_hat, and the two evaluation routes agree bitwise
    f = TrigPoly({(10, 100): 1.0})
    got = operator_m(f, PIPE).coeffs[(10, 100)]
    assert got == complex(-100.0 - 100.0 * PLAN.ell_hat)


def test_m_annihilates_negated_sigma_exactly():
    for neg in [(-10, -100), (-129, -15995), (-126, -16000)]:
        out = operator_m(TrigPoly({neg: 2.0 + 1.0j}), PIPE)
        assert len(out) == 0


def test_m_kills_constants():
    assert len(operator_m(TrigPoly({(0, 0): 3.0}), PIPE)) == 0


def test_m_off_sigma_is_derivative_action():
    got = operator_m(TrigPoly({(1, 2): 1.0}), PIPE).coeffs[(1, 2)]
    assert got == complex(-1.0 - 2.0 * PLAN.ell_hat)


def test_m_linearity():
    rng = np.random.default_rng(3)
    freqs = [(int(a), int(b)) for a, b in rng.integers(-30, 30, size=(8, 2))]
    f = random_trigpoly(freqs, seed=1)
    g = random_trigpoly(freqs, seed=2)
    lhs = operator_m(f * 2.0 + g * (0.5 - 1.5j), PIPE)
    rhs = operator_m(f, PIPE) * 2.0 + operator_m(g, PIPE) * (0.5 - 1.5j)
    diff = lhs - rhs
    for v in diff.coeffs.values():
        assert abs(v) < 1e-9


def test_m_overlapping_balls_subtract_twice():
    fake_plan = types.SimpleNamespace(
        K=2, sequence=[(10, 10), (12, 12)], radii=[5, 5],
        witness=WITNESS, tau=PLAN.tau, ell_hat=PLAN.ell_hat,
    )
    fake = types.SimpleNamespace(plan=fake_plan)
    nu = (-11, -11)
    got = operator_m(TrigPoly({nu: 1.0}), fake).coeffs[nu]
    tl = PLAN.tau * PLAN.ell_hat
    want = -(derivative_multiplier(WITNESS.alpha, nu)
             + tl * derivative_multiplier(WITNESS.beta, nu))
    assert got == want


def test_convolve_riesz_multipliers():
    for n in PLAN.sequence:
        out = convolve_riesz(TrigPoly({n: 1.0}), PIPE.riesz)
        assert out.coeffs[n] == 0.5
    out = convolve_riesz(TrigPoly({(0, 0): 2.0}), PIPE.riesz)
    assert out.coeffs[(0, 0)] == 2.0
    # n_2 - n_1 is a two-factor pattern
    out = convolve_riesz(TrigPoly({(116, 15900): 1.0}), PIPE.riesz)
    assert out.coeffs[(116, 15900)] == 0.25
    # off the Riesz spectrum everything dies
    assert len(convolve_riesz(TrigPoly({(1, 1): 5.0}), PIPE.riesz)) == 0


def test_paley_project():
    f = TrigPoly({(1, 1): 1.0, (2, 2): 2.0, (3, 3): 3.0})
    out = paley_project(f, [(2, 2), (9, 9)])
    assert out.coeffs == {(2, 2): 2.0}
    again = paley_project(out, [(2, 2), (9, 9)])
    assert again.coeffs == out.coeffs
    assert len(paley_project(f, [(7, 7)])) == 0


def test_empty_results_keep_matrix_size():
    eye = np.eye(2)
    outs = [
        operator_m(TrigPoly({(-10, -100): eye}), PIPE),
        convolve_riesz(TrigPoly({(1, 1): eye}), PIPE.riesz),
        paley_project(TrigPoly({(1, 1): eye}), PLAN.sequence),
        composite_apply(TrigPoly({(0, 0): eye}), PIPE),
        composite_closed_form(TrigPoly({(1, 1): eye}), PIPE),
    ]
    for out in outs:
        assert len(out) == 0 and out.mdim == 2
    assert composite_relative_error(TrigPoly({(1, 1): eye}), PIPE) == 0.0


def test_coordinate_projection_keeps_lambda_only():
    f = TrigPoly({PLAN.sequence[0]: 1.0, (128, 16002): 1.0, (5, 5): 1.0})
    out = coordinate_projection(f, PIPE)
    assert set(out.coeffs) == {PLAN.sequence[0]}


def test_composite_on_basis_vectors():
    for k, n in enumerate(PLAN.sequence):
        f = TrigPoly({n: 1.0})
        got = composite_apply(f, PIPE)
        assert set(got.coeffs) == {n}
        want = PIPE.rho_k[k] * PIPE.sqrt_q[k]
        assert abs(got.coeffs[n] - want) <= 1e-12 * abs(want)


def test_composite_kills_constants_and_off_lambda():
    assert len(composite_apply(TrigPoly({(0, 0): 1.0}), PIPE)) == 0
    f = TrigPoly({(127, 16000): 1.0, (136, 16100): 2.0, (1, 1): 3.0})
    assert len(composite_apply(f, PIPE)) == 0


def test_composite_matches_closed_form_on_mixed_input():
    rng = np.random.default_rng(7)
    freqs = list(PLAN.sequence)
    freqs += [(int(a), int(b)) for a, b in rng.integers(1, 50, size=(6, 2))]
    f = random_trigpoly(freqs, seed=11)
    assert composite_relative_error(f, PIPE) < 1e-12
    fm = random_trigpoly(freqs, mdim=3, seed=12)
    assert composite_relative_error(fm, PIPE) < 1e-12


def test_closed_form_skips_missing_frequencies():
    f = TrigPoly({PLAN.sequence[1]: 2.0})
    want = composite_closed_form(f, PIPE)
    assert set(want.coeffs) == {PLAN.sequence[1]}


def test_paley_ratio_rejects_zero():
    with pytest.raises(ValueError):
        paley_ratio(TrigPoly({}, dim=2), S, PLAN.sequence)


def test_estimate_paley_constant_replays():
    lam = [(4, 16), (9, 32)]
    kw = dict(support=[(1, 1), (2, 3), (3, 2), (5, 4), (2, 2)],
              always=lam, terms=3, mdim=1, seed=5)
    r5 = estimate_paley_constant(S, lam, PaleySampler(count=5, **kw))
    again = estimate_paley_constant(S, lam, PaleySampler(count=5, **kw))
    assert r5 == again
    assert r5["sup_ratio"] == pytest.approx(0.7039919358304073, rel=1e-12)
    assert r5["argmax_index"] == 4


def test_estimate_paley_constant_monotone_in_count():
    # per-sample streams depend only on (seed, mdim, index), so adding
    # samples can only raise the sup
    lam = [(4, 16), (9, 32)]
    kw = dict(support=[(1, 1), (2, 3), (3, 2), (5, 4), (2, 2)],
              always=lam, terms=3, mdim=1, seed=5)
    r1 = estimate_paley_constant(S, lam, PaleySampler(count=1, **kw))
    r5 = estimate_paley_constant(S, lam, PaleySampler(count=5, **kw))
    assert r5["sup_ratio"] >= r1["sup_ratio"]
    assert r1["sup_ratio"] == pytest.approx(0.6260983640382048, rel=1e-12)


def test_estimate_paley_constant_rejects_empty():
    with pytest.raises(ValueError):
        estimate_paley_constant(S, [(4, 16)], PaleySampler(count=0))


@pytest.mark.parametrize("mdim", [(2, 2), 0, ()])
def test_estimate_paley_constant_rejects_bad_mdim(mdim):
    with pytest.raises(ValueError, match="distinct matrix dimensions"):
        estimate_paley_constant(S, [(4, 16)], PaleySampler(
            count=1, always=[(4, 16)], mdim=mdim))


def test_reference_probe_pinned():
    # the reference plan's probe in every matrix dimension, pinned at
    # the values of the inverse-FFT evaluator with per-point SVDs: a new
    # evaluation order may move the ratios in the last bits only
    r = paley_probe(PLAN, OrchestratorConfig(
        paley_count=12, paley_box=6, paley_terms=8, matrix_dims=(1, 2, 4, 8),
        seed=0, grid_n=51))
    want = {1: (0.6622481706813905, 8), 2: (0.5416551739143323, 1),
            4: (0.3873795330465836, 10), 8: (0.2618257608076764, 7)}
    assert set(r["per_dim"]) == set(want)
    for m, (ratio, index) in want.items():
        assert r["per_dim"][m]["argmax_index"] == index
        assert r["per_dim"][m]["sup_ratio"] == pytest.approx(ratio, rel=1e-12)


def test_single_character_closed_form():
    # a sample holding only chi_{n_1} has ratio sqrt(Q_S(n_1)) over the
    # sum of the derivative multipliers, by homogeneity independent of
    # the random coefficient
    n1 = (10, 100)
    r = estimate_paley_constant(
        S, [n1], PaleySampler(count=1, support=(), always=[n1], seed=3))
    want = math.sqrt(20101.0) / 211.0
    assert r["sup_ratio"] == pytest.approx(want, rel=1e-12)
    assert r["sup_ratio"] <= 1.0


def test_ratio_zero_when_spectrum_misses_lambda():
    f = random_trigpoly([(1, 1), (2, 5)], seed=4)
    assert paley_ratio(f, S, PLAN.sequence) == 0.0


def test_per_dim_table():
    lam = [(4, 16), (9, 32)]
    kw = dict(support=[(1, 1), (2, 3), (3, 2)], always=lam, terms=2, seed=5)
    r = estimate_paley_constant(S, lam, PaleySampler(count=3, mdim=(1, 2), **kw))
    assert set(r["per_dim"]) == {1, 2}
    assert r["sup_ratio"] == max(v["sup_ratio"] for v in r["per_dim"].values())
    single = estimate_paley_constant(S, lam, PaleySampler(count=3, mdim=1, **kw))
    assert single["per_dim"][1] == r["per_dim"][1]


def test_multiplier_operators_commute():
    f = random_trigpoly(list(PLAN.sequence) + [(116, 15900), (3, 3)], seed=6)
    lam = PLAN.sequence
    a = convolve_riesz(paley_project(f, lam), PIPE.riesz)
    b = paley_project(convolve_riesz(f, PIPE.riesz), lam)
    assert a.coeffs == b.coeffs
