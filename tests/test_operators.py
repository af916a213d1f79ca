import dataclasses
import itertools
import math
import sys
import types
from fractions import Fraction

import numpy as np
import pytest

from paleykit import multiindex, operators, trigpoly
from paleykit.multiindex import PHASES, Smoothness, saturate
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
from paleykit.orchestrator import OrchestratorConfig, paley_probe, run_construction
from paleykit.property_o import find_witness
from paleykit.sequence import build_sequence
from paleykit.trigpoly import (
    CHOP,
    TrigPoly,
    largest_bin,
    paley_l2_norm,
    pinch_minorant,
    random_trigpoly,
    sobolev_norm,
)

from helpers import (
    coeff_bits,
    composite_relative_error_stagewise,
    composite_stagewise,
    paley_oracle,
)

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


def test_ball_multiplicity_matches_the_l1_count():
    rng = np.random.default_rng(5)
    for n in PLAN.sequence[1:]:
        for off in rng.integers(-200, 201, size=(200, 2)):
            m = (n[0] + int(off[0]), n[1] + int(off[1]))
            want = sum(sum(abs(a - b) for a, b in zip(m, c)) <= r
                       for c, r in zip(PLAN.sequence, PLAN.radii))
            assert ball_multiplicity(PLAN, m) == want


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


def _exact_m_factor(plan, nu):
    """i^{|alpha|} (nu^alpha + ell nu^beta) (1 - mult), rounded once from
    the exact rational: signed monomials of Python ints with 0^0 = 1, and
    mult the number of balls B_k that hold -nu, counted in l1."""
    a, b = plan.witness.alpha, plan.witness.beta
    ell = plan.ell_exact
    w = (math.prod(c**g for g, c in zip(a, nu)) * ell.denominator
         + ell.numerator * math.prod(c**g for g, c in zip(b, nu)))
    mult = sum(sum(abs(x + c) for x, c in zip(nu, center)) <= r
               for center, r in zip(plan.sequence, plan.radii))
    return PHASES[sum(a) % 4] * float(Fraction(w * (1 - mult), ell.denominator))


def test_m_overlapping_balls_subtract_twice():
    fake_plan = types.SimpleNamespace(
        K=2, sequence=[(10, 10), (12, 12)], radii=[5, 5],
        witness=WITNESS, ell_exact=PLAN.ell_exact,
    )
    fake = types.SimpleNamespace(plan=fake_plan)
    nu = (-11, -11)
    got = operator_m(TrigPoly({nu: 1.0}), fake).coeffs[nu]
    assert ball_multiplicity(fake_plan, (11, 11)) == 2
    assert got == _exact_m_factor(fake_plan, nu)
    assert got != 0


def _m_factor_points(plan, count, seed):
    """Seeded frequencies for the M factor: a box with zero and negative
    coordinates, points of -B_k for every k, and +-n_k."""
    rng = np.random.default_rng(seed)
    dim = len(plan.sequence[0])
    out = [tuple(-c for c in n) for n in plan.sequence] + list(plan.sequence)
    box = rng.integers(-300, 301, size=(count, dim))
    box[rng.random((count, dim)) < 0.2] = 0
    out += [tuple(row) for row in box.tolist()]
    for n, r in zip(plan.sequence, plan.radii):
        for _ in range(count // plan.K):
            off = rng.integers(-(r // dim), r // dim + 1, size=dim)
            out.append(tuple(-(c + int(o)) for c, o in zip(n, off)))
    return out


M_FACTOR_PLANS = {
    "S_ref": saturate({(2, 0), (0, 1)}),
    "S3021": saturate({(3, 0), (2, 1), (0, 2)}),
    "d4": saturate({(2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)}),
}


@pytest.mark.parametrize("name", sorted(M_FACTOR_PLANS))
def test_m_factor_is_the_exact_multiplier_rounded_once(name):
    s = Smoothness.from_indices(M_FACTOR_PLANS[name])
    plan = run_construction(s, OrchestratorConfig(matrix_dims=())).plan
    points = _m_factor_points(plan, 1500, seed=17)
    if name == "d4":
        # the float symbol rounded ell before it subtracted: 2e-7 off here
        points.append((-12, -144, 208, -52))
    on_balls = 0
    for nu in points:
        got = operators._m_factor(nu, plan)
        assert got == _exact_m_factor(plan, nu), nu
        on_balls += got == 0 and any(nu)
    # most points lie on some -B_k, where the factor is exactly 0
    assert on_balls >= 1000


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


def _composite_inputs():
    """Polynomials on Lambda, on -B_k (where M's correction is nonzero),
    off Lambda and on the box, scalar and matrix valued, with
    coefficients scaled from 1 down through CHOP."""
    rng = np.random.default_rng(13)
    lam = list(PLAN.sequence)
    minus_balls = []
    for n, r in zip(PLAN.sequence[1:], PLAN.radii[1:]):
        minus_balls += [(-n[0] + int(a), -n[1] + int(b))
                        for a, b in rng.integers(-r // 2, r // 2 + 1, size=(4, 2))]
    minus_balls.append((-116, -15900))  # -(n_2 - n_1), a Riesz pattern
    box = [(int(a), int(b)) for a, b in rng.integers(1, 50, size=(6, 2))]
    off = [(127, 16000), (-10, -100), (0, 0), (10, -100)]
    assert any(ball_multiplicity(PLAN, tuple(-c for c in m)) for m in minus_balls)
    out = []
    for i, freqs in enumerate([lam, minus_balls, off, box,
                               lam + minus_balls + off + box,
                               lam[::-1] + box + lam[:2]]):
        for mdim in (None, 1, 3):
            f = random_trigpoly(freqs, mdim=mdim, seed=i)
            # TrigPoly * scalar would chop, so scale the map itself
            out += [TrigPoly({n: v * 10.0 ** -e for n, v in f.coeffs.items()},
                             mdim=mdim) for e in range(0, 36, 2)]
    # on each n_k, |M factor * coefficient| around CHOP, where the
    # stages' chop rules decide what survives
    for s in (0.999999, 1.0, 1.000001, 1.5, 2.0, 2.000001, 3.0):
        out.append(TrigPoly({n: s * CHOP / abs(PIPE.on_lambda[n][0]) * (0.6 + 0.8j)
                             for n in lam}))
    return out


def test_composite_apply_is_the_stagewise_composite_bitwise():
    for f in _composite_inputs():
        got = composite_apply(f, PIPE)
        want = composite_stagewise(f, PIPE)
        assert (got.dim, got.mdim) == (want.dim, want.mdim)
        assert coeff_bits(got) == coeff_bits(want)


def test_composite_relative_error_is_the_stagewise_error_bitwise():
    for f in _composite_inputs():
        got = composite_relative_error(f, PIPE)
        assert got.hex() == composite_relative_error_stagewise(f, PIPE).hex()


@pytest.mark.parametrize("maximal, err", [
    ({(2, 0), (0, 1)}, 2.0269031235912102e-16),
    ({(3, 0), (2, 1), (0, 2)}, 0.0),
    ({(2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)},
     2.0269031235912102e-16),
])
def test_composite_max_rel_error_pinned(maximal, err):
    s = Smoothness.from_indices(saturate(maximal))
    rep = run_construction(s, OrchestratorConfig(matrix_dims=()))
    assert rep.composite_max_rel_error.hex() == err.hex()


def test_m_factor_evaluated_once_per_lambda_point(monkeypatch):
    # a work count, not a timing: K factors per pipeline, none per
    # composite sample
    calls = []
    original = operators._m_factor

    def counted(nu, plan):
        calls.append(nu)
        return original(nu, plan)

    monkeypatch.setattr(operators, "_m_factor", counted)
    rep = run_construction(S, OrchestratorConfig(matrix_dims=()))
    assert rep.config.composite_count == 25
    assert calls == list(rep.plan.sequence)


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


def test_sampler_dimensions_go_through_int_tuple():
    assert PaleySampler(mdim=np.int64(4)).mdims() == (4,)
    assert PaleySampler(mdim=[1, np.int64(3)]).mdims() == (1, 3)
    assert type(PaleySampler(mdim=np.int64(4)).mdims()[0]) is int
    for bad in (True, 2.7, (1, True), (2.0,)):
        with pytest.raises(ValueError, match="need integers"):
            PaleySampler(mdim=bad).mdims()


def test_estimate_paley_constant_rejects_negative_terms():
    with pytest.raises(ValueError, match="need terms"):
        estimate_paley_constant(S, [(4, 16)], PaleySampler(
            count=1, support=[(1, 1)], always=[(4, 16)], terms=-1))


@pytest.mark.parametrize("bad", [9.7, True, 2.0])
def test_grid_size_must_be_an_integer(bad):
    # int() used to truncate: 9.7 probed a 9-grid and True a 1-grid
    f = random_trigpoly([(1, 2), (3, 1)], seed=0)
    fm = random_trigpoly([(1, 2), (3, 1)], mdim=2, seed=0)
    calls = [lambda: trigpoly.lp_norm(f, 1, bad), lambda: f.evaluate(bad),
             lambda: trigpoly.s1_l1_norm(fm, bad), lambda: largest_bin([fm], bad),
             lambda: estimate_paley_constant(S, [(4, 16)], PaleySampler(
                 count=1, always=[(4, 16)], grid_n=bad))]
    for call in calls:
        with pytest.raises(ValueError, match="need integers"):
            call()
    assert trigpoly.s1_l1_norm(fm, np.int64(9)) == trigpoly.s1_l1_norm(fm, 9)
    assert np.array_equal(f.evaluate(np.int64(9)), f.evaluate(9))


def test_sampler_cannot_leave_its_gate():
    # estimate_paley_constant relies on the checks of __post_init__, so a
    # sampler is frozen; replace() runs the checks again
    sampler = PaleySampler(count=1, always=[(4, 16)])
    with pytest.raises(dataclasses.FrozenInstanceError):
        sampler.count = 0
    with pytest.raises(ValueError, match="need count"):
        dataclasses.replace(sampler, count=0)


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


BOX = tuple((i, j) for i in range(1, 7) for j in range(1, 7))


def reference_sampler(seed, count):
    # the sampler of paley_probe on PLAN under the default config
    return PaleySampler(count=count, support=BOX, always=(PLAN.sequence[0],),
                        terms=8, mdim=(1, 2, 4, 8), seed=seed, grid_n=51)


def mismatches(smoothness, lam, sampler):
    """(m, probe, oracle) wherever the per-m sup bits or argmax differ."""
    got = estimate_paley_constant(smoothness, lam, sampler)["per_dim"]
    out = []
    for m, (ratio, index) in paley_oracle(smoothness, lam, sampler).items():
        mine = (got[m]["sup_ratio"].hex(), got[m]["argmax_index"])
        if mine != (ratio.hex(), index):
            out.append((m, mine, (ratio.hex(), index)))
    return out


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_probe_matches_oracle_on_reference(seed):
    assert mismatches(S, PLAN.sequence, reference_sampler(seed, 16)) == []


def test_probe_matches_oracle_under_aliasing():
    # on the 7-grid n_1 = (10, 100) falls in the bin of (3, 2), and every
    # support frequency shares its bin with a shifted copy
    support = BOX[:12] + tuple((i + 7, j - 14) for i, j in BOX[:12])
    sampler = PaleySampler(count=40, support=support, always=(PLAN.sequence[0],),
                           terms=6, mdim=(1, 3), seed=4, grid_n=7)
    assert mismatches(S, PLAN.sequence, sampler) == []


def d3_without_support():
    # every sample is c e_n: the ratios agree to rounding, and the bound
    # equals the norm up to rounding, so the argmax rests on the last bits
    s3 = Smoothness.from_indices(saturate({(2, 0, 0), (0, 1, 0), (0, 0, 1)}))
    lam = [(1, 2, 3)]
    sampler = PaleySampler(count=10, always=lam, mdim=(1, 2), seed=3, grid_n=9)
    return mismatches(s3, lam, sampler)


def test_probe_matches_oracle_d3_without_support():
    assert d3_without_support() == []


def d3_odd_matrix_sizes():
    # the pinch off d = 2, with its trailing 1 x 1 block at m = 3 and 5
    s3 = Smoothness.from_indices(saturate({(2, 0, 0), (0, 1, 0), (0, 0, 1)}))
    lam = [(1, 2, 3)]
    support = tuple(itertools.product(range(1, 4), repeat=3))
    sampler = PaleySampler(count=30, support=support, always=lam, terms=4,
                           mdim=(3, 5), seed=1, grid_n=9)
    return mismatches(s3, lam, sampler)


def test_probe_matches_oracle_d3_odd_matrix_sizes():
    assert d3_odd_matrix_sizes() == []


def test_zero_margin_fails_oracle(monkeypatch):
    # without the margin, rounding in the bound skips a sample whose
    # ratio beats the best in the last bits
    monkeypatch.setattr(operators, "PALEY_MARGIN", 0.0)
    assert [m for m, *_ in d3_without_support()] == [1]


def test_probe_matches_oracle_on_default_grid():
    # grid_n=None: each derivative is bounded and normed on its own
    # default grid, 4 maxfreq + 1 of its spectrum
    lam = [(4, 16), (9, 32)]
    sampler = PaleySampler(count=15, support=BOX[:15], always=lam[:1], terms=4,
                           mdim=(1, 2), seed=6)
    assert mismatches(S, lam, sampler) == []


def test_inflated_bound_fails_oracle(monkeypatch):
    # a bound 1.5 times too high, on every derivative of the sample's one
    # bin pass, skips samples that beat the best
    def inflated(parts, n_points):
        return [(1.5 * bound, top) for bound, top in largest_bin(parts, n_points)]

    monkeypatch.setattr(operators, "largest_bin", inflated)
    assert any(mismatches(S, PLAN.sequence, reference_sampler(seed, 16))
               for seed in (0, 1, 2))


def test_inflated_pointwise_bound_fails_oracle(monkeypatch):
    # a pinch minorant 1.5 times too high stops samples that beat the
    # best, before or during their grid norms.  It is inflated on the odd
    # samples only, known by their spectra, which derivatives keep: a
    # uniform factor keeps the best-first order, so the true argmax comes
    # first and the mutant changes nothing
    odd = set()
    draw = PaleySampler.draw

    def drawn(self, m, i):
        f = draw(self, m, i)
        if i % 2:
            odd.add(f.spectrum())
        return f

    original = operators.pinch_minorant

    def inflated(f, top, n_points):
        ell = original(f, top, n_points)
        return 1.5 * ell if f.spectrum() in odd else ell

    monkeypatch.setattr(PaleySampler, "draw", drawn)
    monkeypatch.setattr(operators, "pinch_minorant", inflated)
    assert any(mismatches(S, PLAN.sequence, reference_sampler(seed, 16))
               for seed in (0, 1, 2))
    assert d3_odd_matrix_sizes()


def test_exact_tie_reports_the_first_index(monkeypatch):
    # samples 1 and 4 are c e_{n_1} and -c e_{n_1}, c of rank one: the
    # same quotient bit for bit, above every mixed sample.  A bin bound
    # halved on the derivatives of sample 4 (still a lower bound) ranks
    # it first, yet the tie goes to index 1
    n1 = PLAN.sequence[0]
    c = np.outer([1.0, 2j], [0.5, 1j])
    twins = {1: TrigPoly({n1: c}), 4: TrigPoly({n1: -c})}
    draw = PaleySampler.draw
    monkeypatch.setattr(PaleySampler, "draw",
                        lambda self, m, i: twins[i] if i in twins else draw(self, m, i))
    halved = {tuple(coeff_bits(twins[4].derivative(g))) for g in S}
    original = operators.largest_bin

    def bound(parts, n_points):
        return [(low / 2 if tuple(coeff_bits(f)) in halved else low, top)
                for f, (low, top) in zip(parts, original(parts, n_points))]

    monkeypatch.setattr(operators, "largest_bin", bound)
    sampler = PaleySampler(count=6, support=BOX, always=(n1,), terms=4, mdim=2,
                           grid_n=51)
    got = estimate_paley_constant(S, PLAN.sequence, sampler)["per_dim"][2]
    assert paley_oracle(S, PLAN.sequence, sampler)[2] == (got["sup_ratio"], 1)
    assert got["argmax_index"] == 1


def test_probe_matches_oracle_where_best_first_reorders():
    # seed 7 at m = 8: in index order the best rises at samples 0, 1, 2,
    # 4 and 7, while best-first visits the largest bounds first
    sampler = PaleySampler(count=30, support=BOX, always=(PLAN.sequence[0],),
                           terms=8, mdim=8, seed=7, grid_n=51)
    assert mismatches(S, PLAN.sequence, sampler) == []


def test_paley_ratio_is_l2_over_sobolev_bitwise():
    sampler = reference_sampler(0, 4)
    for m in (1, 4):
        for i in range(4):
            f = sampler.draw(m, i)
            want = paley_l2_norm(f, S, PLAN.sequence) / sobolev_norm(f, S, 51)
            assert paley_ratio(f, S, PLAN.sequence, 51).hex() == want.hex()


def test_paley_ratio_is_homogeneous():
    # derivatives drop only exact zeros, so no term of a tiny f is lost:
    # t e_{n_1} has the closed-form ratio at every scale, and t e_{(1, 1)},
    # off Lambda, has ratio 0
    want = math.sqrt(20101.0) / 211.0
    for t in (1e3, 1.0, 1e-16, 1e-100):
        got = paley_ratio(TrigPoly({(10, 100): t}), S, PLAN.sequence)
        assert got == pytest.approx(want, rel=1e-12)
        assert paley_ratio(TrigPoly({(1, 1): t}), S, PLAN.sequence) == 0.0
    f = random_trigpoly([(1, 2), (10, 100), (3, -4)], mdim=3, seed=1)
    tiny = TrigPoly({n: 1e-16 * v for n, v in f.coeffs.items()})
    assert sobolev_norm(tiny, S, 51) == pytest.approx(
        1e-16 * sobolev_norm(f, S, 51), rel=1e-12)


def test_exact_term_bounds_rise_to_the_norm(monkeypatch):
    f = random_trigpoly([(1, 2), (-3, 5), (6, -6), (2, 0), (25, 1)], mdim=4, seed=2)
    norm = trigpoly.s1_l1_norm(f, 51)
    [(low, top)] = largest_bin([f], 51)
    ell = pinch_minorant(f, top, 51)
    seen = []
    rule = operators._beaten

    def recorded(num, best, lows):
        seen.append(lows[0])
        return rule(num, best, lows)

    monkeypatch.setattr(operators, "_beaten", recorded)
    assert operators._exact_term(1.0, 0.0, [low], 0, f, ell, 51) == norm
    # one check before each of the 10 blocks after the first of 2601 nodes
    bounds = list(seen)
    assert len(bounds) == 10
    assert bounds[0] > low
    assert all(a <= b * (1 + 1e-12) for a, b in zip(bounds, bounds[1:]))
    assert bounds[-1] <= norm * (1 + 1e-12)
    # the first bound that meets the skip rule ends the term: with num = 1
    # the rule reads bound >= mid
    assert bounds[1] < bounds[2]
    mid = (bounds[1] + bounds[2]) / 2
    best = 1.0 / (mid * (1.0 - operators.PALEY_MARGIN))
    seen.clear()
    assert operators._exact_term(1.0, best, [low], 0, f, ell, 51) is None
    assert seen == bounds[:3]
    # m <= 2, no pinch array: one closed-form call, the rule is never asked
    g = random_trigpoly([(1, 2), (-3, 5)], mdim=2, seed=2)
    seen.clear()
    assert operators._exact_term(1.0, 0.0, [0.0], 0, g, None, 51) == \
        trigpoly.s1_l1_norm(g, 51)
    assert seen == []


def test_probe_bins_each_derivative_once(monkeypatch):
    # the first pass bins all derivatives of a sample in one pass and its
    # heap entry keeps the top bins, so no pinch bins again
    binned = []
    original = operators.largest_bin

    def counted(parts, n_points):
        binned.append(parts[0].mdim)
        assert [f.mdim for f in parts] == [parts[0].mdim] * len(S)
        return original(parts, n_points)

    monkeypatch.setattr(operators, "largest_bin", counted)
    estimate_paley_constant(S, PLAN.sequence, reference_sampler(0, 16))
    assert {m: binned.count(m) for m in set(binned)} == {
        m: 16 for m in (1, 2, 4, 8)}


def test_probe_prices_each_multiplier_once():
    # the probe differentiates each sample on its first pass and again on
    # every visit; derivative_multiplier runs once per (gamma, n)
    sampler = reference_sampler(0, 16)
    pairs = {(g, n) for m in sampler.mdims() for i in range(16)
             for n in sampler.draw(m, i).coeffs for g in S}
    multiindex._multiplier.cache_clear()
    estimate_paley_constant(S, PLAN.sequence, sampler)
    info = multiindex._multiplier.cache_info()
    assert info.misses == len(pairs) < info.maxsize
    # the first pass alone asks 16 samples x 4 sizes x |S| derivatives x
    # 9 terms, and the visits ask again
    assert info.hits + info.misses > 16 * 4 * len(S) * 9


def test_reference_probe_grid_evaluations(monkeypatch):
    # grid trace norms per m on the default reference probe: 100 samples
    # of 4 terms on the 51 x 51 grid would be 1,040,400 per m without the
    # skip rule; the bins and the pinches behind the bounds are not counted
    normed = {}
    original = operators.trace_norms

    def counted(a):
        if sys._getframe(1).f_code is operators._exact_term.__code__:
            m = a.shape[-1]
            normed[m] = normed.get(m, 0) + a.size // (m * m)
        return original(a)

    monkeypatch.setattr(operators, "trace_norms", counted)
    r = paley_probe(PLAN, OrchestratorConfig())
    assert normed == {1: 174267, 2: 75429, 4: 12964, 8: 130336}
    assert r["per_dim"][8]["argmax_index"] == 44


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
    # a repeated frequency counts once, as paley_project counts it
    again = estimate_paley_constant(
        S, [n1, n1], PaleySampler(count=3, always=[n1], mdim=2))
    assert again == estimate_paley_constant(
        S, [n1], PaleySampler(count=3, always=[n1], mdim=2))
    assert again["sup_ratio"] == pytest.approx(0.5837, abs=1e-4)


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
