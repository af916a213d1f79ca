import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest

from paleykit.crnorm import MatrixSequence
from paleykit.multiindex import Smoothness, saturate
from paleykit.orchestrator import OrchestratorConfig, report_to_json, run_construction
from paleykit.property_o import PropertyOWitness, find_witness
from paleykit.sequence import ConditionReport, build_sequence
from paleykit.serialization import (
    canonical_dumps,
    from_jsonable,
    matrixseq_from_json,
    plan_digest,
    plan_from_json,
    poly_from_json,
    poly_to_json,
    to_jsonable,
)
from paleykit.trigpoly import random_trigpoly

from helpers import matrixseq_to_json

S = Smoothness.from_indices(saturate({(2, 0), (0, 1)}))
WITNESS = find_witness(S)
PLAN = build_sequence(S, WITNESS, 4, 100, 10)
PLAN_1 = build_sequence(S, WITNESS, 1, 100, 10)


def test_canonical_float_format():
    assert canonical_dumps(0.1) == "0.1"
    assert canonical_dumps(2.0) == "2.0"
    assert canonical_dumps(0.5) == "0.5"
    assert canonical_dumps(1e300) == "1e+300"
    assert canonical_dumps(7) == "7"


def test_floats_are_repr_and_read_back_bit_for_bit():
    rng = np.random.default_rng(13)
    xs = rng.integers(0, 2**64, size=10**4, dtype=np.uint64).view(np.float64)
    xs = [float(x) for x in xs if np.isfinite(x)]
    xs += [-0.0, 5e-324, 1e308, 0.1, 1e16]
    text = canonical_dumps(xs)
    assert text == "[%s]" % ",".join(map(repr, xs))
    back = np.array(json.loads(text), dtype=np.float64)
    assert np.array_equal(back.view(np.uint64),
                          np.array(xs, dtype=np.float64).view(np.uint64))


def test_canonical_keys_sorted():
    assert canonical_dumps({"b": 1, "a": 2}) == '{"a":2,"b":1}'


def test_canonical_rejects_nonfinite_and_bad_keys():
    with pytest.raises(ValueError):
        canonical_dumps(float("nan"))
    with pytest.raises(ValueError):
        canonical_dumps(float("inf"))
    with pytest.raises(TypeError):
        canonical_dumps({(1, 2): "x"})
    with pytest.raises(TypeError):
        canonical_dumps({True: "x"})


def test_int_keys_are_decimal_strings():
    assert canonical_dumps({10: "b", np.int64(2): "a"}) == '{"10":"b","2":"a"}'
    assert to_jsonable({-1: {3: 0.5}}) == {"-1": {"3": 0.5}}


@pytest.fixture(scope="module")
def tiny_report():
    return run_construction(S, OrchestratorConfig(
        K=2, matrix_dims=(1, 2), paley_count=3, grid_n=21))


def test_report_text_reads_back_as_the_report(tiny_report):
    d = report_to_json(tiny_report)
    assert set(d["paley"]["per_dim"]) == {"1", "2"}
    assert json.loads(canonical_dumps(tiny_report)) == d
    assert json.loads(canonical_dumps(d)) == d


def test_to_jsonable_conversions():
    out = to_jsonable({"f": Fraction(1, 3), "c": 1 + 2j, "t": (1, 2)})
    assert out == {"f": "1/3", "c": {"re": 1.0, "im": 2.0}, "t": [1, 2]}
    assert to_jsonable(np.float64(0.5)) == 0.5
    assert to_jsonable(np.array([1, 2])) == [1, 2]


def test_smoothness_round_trip():
    d = to_jsonable(S)
    assert from_jsonable(Smoothness, d) == S
    assert d["dim"] == 2


def test_witness_round_trip():
    d = to_jsonable(WITNESS)
    assert d["c"] == ["1/2", "1"]
    assert from_jsonable(PropertyOWitness, d) == WITNESS


def test_plan_round_trip_and_digest():
    d = to_jsonable(PLAN)
    p2 = plan_from_json(d)
    assert to_jsonable(p2) == d
    assert p2.sequence == PLAN.sequence
    assert p2.ell_exact == PLAN.ell_exact
    assert plan_digest(p2) == plan_digest(PLAN)
    assert plan_digest(PLAN) == (
        "523c639104b22f12d393ef3ff413540d4eed9e8d2325ccd1309dd4226e6a9354")


def test_plan_encoding_bytes_pinned():
    # every field of the plan, its condition report included
    text = canonical_dumps(PLAN)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "20d2914bb59ee500bb2d9297b4393f0a12d4546180c1c338f5a8e0e6134fb749")


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
    # a bool is not an int, though a 1-term plan would pass every
    # cross-field check with it read as 1
    (("K",), True),
    (("sequence", 0, 0), True),
])
def test_plan_from_json_rejects_malformed(path, value):
    d = to_jsonable(PLAN_1 if value is True else PLAN)
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
    a = canonical_dumps(PLAN)
    b = canonical_dumps(plan_from_json(to_jsonable(PLAN)))
    assert a == b
