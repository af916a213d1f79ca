from fractions import Fraction

from paleykit.multiindex import Smoothness, saturate
from paleykit.property_o import find_witness, verify_witness


def anisotropic_example():
    return Smoothness.from_indices(saturate({(2, 0), (0, 1)}))


def test_find_witness_reference_set():
    w = find_witness(anisotropic_example())
    assert w is not None
    assert w.alpha == (2, 0)
    assert w.beta == (0, 1)
    assert w.c == (Fraction(1, 2), Fraction(1))
    assert w.t_star == Fraction(1, 2)


def test_witness_is_deterministic():
    a = find_witness(anisotropic_example())
    b = find_witness(anisotropic_example())
    assert a == b


def test_verify_witness_accepts_reference():
    S = anisotropic_example()
    assert verify_witness(S, (2, 0), (0, 1), (Fraction(1, 2), 1))


def test_verify_witness_rejects_bad_inputs():
    S = anisotropic_example()
    # same parity
    assert not verify_witness(S, (2, 0), (0, 0), (Fraction(1, 2), 1))
    # pairing off by one
    assert not verify_witness(S, (2, 0), (0, 1), (Fraction(1, 3), 1))
    # non-positive weight
    assert not verify_witness(S, (1, 0), (0, 1), (1, 0))
    # alpha outside the set
    assert not verify_witness(S, (3, 0), (0, 1), (Fraction(1, 3), 1))


def test_verify_witness_rejects_cap_violation():
    # c pairs to 1 with alpha and beta but exceeds 1 on another member
    S = Smoothness.from_indices(saturate({(1, 1)}))
    assert not verify_witness(S, (1, 0), (0, 1), (1, 1))


def test_full_box_has_no_witness():
    # every member sits under the corner, so any strictly positive c
    # pairing some gamma to 1 pushes the corner above 1
    assert find_witness(saturate({(2, 2)})) is None
    assert find_witness(saturate({(3,)})) is None


def test_isotropic_first_order_has_witness():
    # S = {0, e1, e2}: alpha = e1, beta = 0 fails (0 pairs to 0), but
    # e1/e2 have equal parity, so the only odd/even pairs involve 0;
    # <0, c> = 1 is impossible, hence no witness
    assert find_witness(saturate({(1, 0), (0, 1)})) is None


def test_three_dim_witness():
    S = saturate({(2, 0, 0), (0, 1, 0), (0, 0, 2)})
    w = find_witness(S)
    assert w is not None
    assert verify_witness(S, w.alpha, w.beta, w.c)
    assert w.t_star > 0
