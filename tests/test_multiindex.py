import math
import random
from decimal import Decimal, localcontext

import numpy as np
import pytest

from paleykit.errors import InvalidSmoothnessError
from paleykit.multiindex import (
    Smoothness,
    derivative_multiplier,
    int_tuple,
    is_smoothness,
    multi_le,
    order,
    over_root,
    q_s_eval,
    saturate,
    symbol_abs_int,
    symbol_phase,
)

from helpers import symbol_eval


def test_int_tuple_accepts_integers_only():
    assert int_tuple([3, -2]) == (3, -2)
    got = int_tuple(np.array([4, 10**3], dtype=np.int64))
    assert got == (4, 1000) and all(type(v) is int for v in got)
    assert int_tuple(()) == ()
    for bad in ([10.7, 100], [True, 3], [np.float64(2.0)], [np.True_],
                ["1"], [1, None]):
        with pytest.raises(ValueError):
            int_tuple(bad)


def test_int_tuple_checks_the_length_given():
    assert int_tuple(np.array([4, 10]), 2) == (4, 10)
    for bad in ([4], [4, 10, 1], [4.0, 10]):
        with pytest.raises(ValueError, match="need 2 integer coordinates"):
            int_tuple(bad, 2)


def test_smoothness_coerce():
    S = Smoothness.from_indices([(0, 0), (1, 0)])
    assert Smoothness.coerce(S) is S
    assert Smoothness.coerce([(1, 0), (0, 0)]) == S
    with pytest.raises(InvalidSmoothnessError):
        Smoothness.coerce([(1, 0)])


def test_saturate_two_generators():
    got = saturate({(2, 0), (0, 1)})
    assert got == {(0, 0), (1, 0), (2, 0), (0, 1)}


def test_saturate_idempotent():
    once = saturate({(1, 2), (3, 0)})
    assert saturate(once) == once
    assert is_smoothness(once)


def test_is_smoothness_rejects_gaps():
    assert not is_smoothness({(0, 0), (2, 0)})
    assert not is_smoothness({(1, 0), (0, 0), (1, 1)})


def test_is_smoothness_requires_zero():
    assert not is_smoothness({(1, 0)})


def test_validate_errors():
    with pytest.raises(InvalidSmoothnessError):
        is_smoothness(set())
    with pytest.raises(InvalidSmoothnessError):
        is_smoothness({(0, 0), (1,)})
    with pytest.raises(InvalidSmoothnessError):
        is_smoothness({(0, -1)})


def test_smoothness_class_roundtrip():
    S = Smoothness.from_indices([(0, 0), (1, 0), (0, 1)])
    assert S.dim == 2
    assert (1, 0) in S
    assert len(S) == 3
    with pytest.raises(InvalidSmoothnessError):
        Smoothness.from_indices([(0, 0), (2, 0)])


def test_maximal_members():
    S = Smoothness.from_indices(saturate({(2, 0), (1, 1), (0, 2), (0, 1)}))
    assert S.maximal() == [(2, 0), (1, 1), (0, 2)]
    assert Smoothness.from_indices(saturate({(1, 2, 0)})).maximal() == [(1, 2, 0)]
    assert Smoothness.from_indices({(0,)}).maximal() == [(0,)]


def test_order_and_le():
    assert order((2, 3)) == 5
    assert multi_le((1, 1), (2, 1))
    assert not multi_le((2, 1), (1, 1))


def test_symbol_basic_values():
    # sigma_(1,0)(3,4) = i * 3
    assert symbol_eval((1, 0), (3, 4)) == 3j
    # sigma_(2,1)(2,3) = i^3 * 4 * 3 = -12i
    assert symbol_eval((2, 1), (2, 3)) == -12j
    # sigma_0 is 1 away from the axes
    assert symbol_eval((0, 0), (7, -2)) == 1


def test_symbol_zero_convention():
    assert symbol_eval((0, 0), (0, 5)) == 0
    assert symbol_eval((1, 1), (4, 0)) == 0
    assert symbol_abs_int((0, 0), (0, 5)) == 0


def test_symbol_negative_coordinates():
    # sigma_(1,0)(-3,4) = i * (-3) = -3i
    assert symbol_eval((1, 0), (-3, 4)) == -3j
    assert symbol_phase((1, 0), (-3, 4)) == -1j
    assert symbol_abs_int((1, 0), (-3, 4)) == 3


def test_symbol_exact_large():
    n = (10**20, 3)
    assert symbol_abs_int((2, 0), n) == 10**40


def test_q_s_small():
    S = Smoothness.from_indices([(0, 0), (1, 0), (0, 1)])
    assert q_s_eval(S, (100, 100)) == 1 + 100**2 + 100**2
    assert q_s_eval(S, (101, 100)) == 1 + 101**2 + 100**2
    assert q_s_eval(S, (0, 100)) == 0


def test_q_s_positive_on_open_orthant():
    S = Smoothness.from_indices(saturate({(2, 1)}))
    assert q_s_eval(S, (1, 1)) == len(S)
    assert q_s_eval(S, (-2, 5)) > 0


def test_over_root_rounds_one_int_division_and_one_root():
    # the same bits as the signed root of x^2 / q, and within an ulp of
    # the exact x / q^{1/2}
    rng = random.Random(5)
    for _ in range(500):
        x = rng.randint(-10**30, 10**30)
        q = rng.randint(1, 10**rng.randint(1, 60))
        root = math.sqrt(x * x / q)
        got = over_root(x, q)
        assert got == (-root if x < 0 else root)
        with localcontext() as ctx:
            ctx.prec = 50
            exact = Decimal(x) / Decimal(q).sqrt()
        assert abs(Decimal(got) - exact) <= Decimal(math.ulp(got))
    assert over_root(0, 7) == 0.0


def test_over_root_takes_q_past_double_range():
    with pytest.raises(OverflowError):
        float(10**400)
    assert over_root(10**200, 10**400) == 1.0
    assert over_root(-3 * 10**200, 10**400) == -3.0
    assert over_root(7 * 10**150, 10**400) == 7e-50


def test_derivative_multiplier_conventions():
    # (i*2)^1 * (i*(-3))^1 = i^2 * -6 = 6
    assert derivative_multiplier((1, 1), (2, -3)) == 6
    # 0^0 = 1: the first factor drops out
    assert derivative_multiplier((0, 1), (0, 5)) == 5j
    # but a zero coordinate with positive exponent kills the product
    assert derivative_multiplier((1, 1), (0, 5)) == 0
    # and disagrees with the symbol there
    assert symbol_eval((0, 1), (0, 5)) == 0
    # any integer sequence; numpy integers are read as Python ints, so
    # 10**10 squared is exact, not wrapped to 64 bits, in the shared cache
    assert derivative_multiplier([2, 0], np.array([10**10, 1])) == -1e20
    assert derivative_multiplier((2, 0), (10**10, 1)) == -1e20
    with pytest.raises(ValueError):
        derivative_multiplier((1, 0), (1.5, 2))
