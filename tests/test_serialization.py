import hashlib
from fractions import Fraction

import numpy as np
import pytest

from paleykit.crnorm import MatrixSequence
from paleykit.multiindex import Smoothness, saturate
from paleykit.property_o import find_witness
from paleykit.sequence import ConditionReport, build_sequence
from paleykit.serialization import (
    canonical_dumps,
    from_jsonable,
    matrixseq_from_json,
    matrixseq_to_json,
    plan_digest,
    plan_from_json,
    plan_to_json,
    poly_from_json,
    poly_to_json,
    smoothness_from_json,
    smoothness_to_json,
    to_jsonable,
    witness_from_json,
    witness_to_json,
)
from paleykit.trigpoly import random_trigpoly

S = Smoothness.from_indices(saturate({(2, 0), (0, 1)}))
WITNESS = find_witness(S)
PLAN = build_sequence(S, WITNESS, 4, 100, 10)


def test_canonical_float_format():
    assert canonical_dumps(0.1) == "0.10000000000000001"
    assert canonical_dumps(2.0) == "2.0"
    assert canonical_dumps(0.5) == "0.5"
    assert canonical_dumps(1e300) == "1.0000000000000001e+300"
    assert canonical_dumps(7) == "7"


def test_canonical_keys_sorted():
    assert canonical_dumps({"b": 1, "a": 2}) == '{"a":2,"b":1}'


def test_canonical_rejects_nonfinite_and_bad_keys():
    with pytest.raises(ValueError):
        canonical_dumps(float("nan"))
    with pytest.raises(ValueError):
        canonical_dumps(float("inf"))
    with pytest.raises(TypeError):
        canonical_dumps({1: "x"})


def test_to_jsonable_conversions():
    out = to_jsonable({"f": Fraction(1, 3), "c": 1 + 2j, "t": (1, 2)})
    assert out == {"f": "1/3", "c": {"re": 1.0, "im": 2.0}, "t": [1, 2]}
    assert to_jsonable(np.float64(0.5)) == 0.5
    assert to_jsonable(np.array([1, 2])) == [1, 2]


def test_smoothness_round_trip():
    d = smoothness_to_json(S)
    assert smoothness_from_json(d) == S
    assert d["dim"] == 2


def test_witness_round_trip():
    d = witness_to_json(WITNESS)
    assert d["c"] == ["1/2", "1"]
    assert witness_from_json(d) == WITNESS


def test_plan_round_trip_and_digest():
    d = plan_to_json(PLAN)
    p2 = plan_from_json(d)
    assert plan_to_json(p2) == d
    assert p2.sequence == PLAN.sequence
    assert p2.ell_exact == PLAN.ell_exact
    assert plan_digest(p2) == plan_digest(PLAN)
    assert plan_digest(PLAN) == (
        "523c639104b22f12d393ef3ff413540d4eed9e8d2325ccd1309dd4226e6a9354")


def test_plan_encoding_bytes_pinned():
    # every field of the plan, its condition report included
    text = canonical_dumps(plan_to_json(PLAN))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "67fe2ac39a83f20261ff95cbc82e5f41a715ad0fa51a4fde16a37537cb4abbe6")


def test_condition_report_round_trip():
    d = to_jsonable(PLAN.report)
    assert from_jsonable(ConditionReport, d) == PLAN.report
    assert len(d) == 7 and d["bound_iv_met"] is True


@pytest.mark.parametrize("path, value", [
    (("t0",), "1/0"),
    (("witness", "c", 0), "1/0"),
    (("ts", 1), "x"),
    (("q",), 10),
    (("K",), "4"),
    (("sequence",), 5),
    (("tau",), [0, 1]),
    # each field decodes, but the plan disagrees with itself
    (("K",), 5),
    (("K",), 3),
    (("radii", 1), 3),
    (("ts",), ["100"]),
])
def test_plan_from_json_rejects_malformed(path, value):
    d = plan_to_json(PLAN)
    node = d
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with pytest.raises((TypeError, ValueError)):
        plan_from_json(d)


def test_digest_tracks_inputs():
    other = build_sequence(S, WITNESS, 3, 100, 10)
    assert plan_digest(other) != plan_digest(PLAN)


def test_poly_round_trip():
    f = random_trigpoly([(1, 2), (3, 4), (-5, 0)], seed=1)
    f2 = poly_from_json(poly_to_json(f))
    assert f2.coeffs == f.coeffs
    fm = random_trigpoly([(1, 2), (0, 3)], mdim=2, seed=2)
    fm2 = poly_from_json(poly_to_json(fm))
    assert fm2.mdim == 2
    assert all(np.array_equal(fm2.coeffs[k], fm.coeffs[k]) for k in fm.coeffs)
    zero = poly_from_json(poly_to_json(fm - fm))
    assert len(zero) == 0 and zero.mdim == 2


def test_matrixseq_round_trip():
    ms = MatrixSequence([np.eye(2) + 1j * np.ones((2, 2)), np.zeros((2, 2))])
    ms2 = matrixseq_from_json(matrixseq_to_json(ms))
    assert np.array_equal(ms2.matrices, ms.matrices)


def test_canonical_output_is_deterministic():
    a = canonical_dumps(plan_to_json(PLAN))
    b = canonical_dumps(plan_to_json(plan_from_json(plan_to_json(PLAN))))
    assert a == b
