import json
import math
import os
import pathlib
import shlex
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from paleykit.cli import _COMMANDS, _build_parser, main
from paleykit.crnorm import MatrixSequence
from paleykit.errors import StageFailure
from paleykit.multiindex import Smoothness, saturate
from paleykit.operators import PaleySampler, estimate_paley_constant
from paleykit.orchestrator import (
    OrchestratorConfig,
    report_to_json,
    run_construction,
)
from paleykit.property_o import find_witness
from paleykit.sequence import build_sequence
from paleykit.serialization import (
    canonical_dumps,
    poly_to_json,
    to_jsonable,
)
from paleykit.trigpoly import random_trigpoly

from helpers import count_sign_patterns, matrixseq_to_json, riesz_walk

REF = "0,0;1,0;0,1;2,0"
S = Smoothness.from_indices(saturate({(2, 0), (0, 1)}))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    payload = json.loads(out.out) if out.out.strip() else None
    return code, payload, out.err


@pytest.fixture(scope="module")
def plan_file(tmp_path_factory):
    plan = build_sequence(S, find_witness(S), 2, 100, 10)
    path = tmp_path_factory.mktemp("cli") / "plan.json"
    path.write_text(canonical_dumps(plan))
    return str(path)


def test_check_smoothness_ok(capsys):
    code, payload, err = run(capsys, "check-smoothness", "--indices", REF)
    assert code == 0
    assert payload["dim"] == 2 and payload["size"] == 4
    assert "smoothness" in err


def test_check_smoothness_rejects_gap(capsys):
    code, payload, _ = run(capsys, "check-smoothness", "--indices", "1,0;0,1")
    assert code == 3
    assert payload["failure"] == "not_smoothness"


def test_missing_input_is_validation_error(capsys):
    code, payload, _ = run(capsys, "check-smoothness")
    assert code == 2
    assert "error" in payload


def _assert_error_payload(out):
    assert out == canonical_dumps(json.loads(out)) + "\n"
    assert set(json.loads(out)) == {"error"}


def test_unknown_flag_exits_2(capsys):
    # argparse errors take the exit-2 JSON path of every input error
    for argv in (["check-property-o", "--bogus"],
                 ["build-sequence", "--indices", REF, "--cap", "100"],
                 ["run-all", "--indices", REF, "--cap", "100"],
                 ["build-sequence", "--indices", REF, "--t0", "x"],
                 ["run-all", "--indices", REF, "--matrix-dim", "a"],
                 ["cr-norm", "--input", "matrices.json", "--seed", "0"],
                 ["no-such-command"],
                 []):
        code = main(argv)
        assert code == 2, argv
        _assert_error_payload(capsys.readouterr().out)


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "run-all" in capsys.readouterr().out


# flags each subcommand accepted and ignored before it took only the
# flags its handler reads
BASE_ARGV = {
    "check-smoothness": ["--indices", REF],
    "check-property-o": ["--indices", REF],
    "build-sequence": ["--indices", REF],
    "riesz-spectrum": ["--plan", "plan.json"],
    "project": ["--plan", "plan.json", "--poly", "poly.json"],
    "estimate-paley": ["--plan", "plan.json"],
    "cr-norm": ["--input", "matrices.json"],
    "techprop": ["--indices", REF],
}
REMOVED_FLAGS = [
    ("check-smoothness", "--seed", "3"),
    ("check-property-o", "--seed", "3"),
    ("build-sequence", "--seed", "99"),
    ("riesz-spectrum", "--indices", "0,0"),
    ("riesz-spectrum", "--input", "set.json"),
    ("riesz-spectrum", "--seed", "3"),
    ("project", "--indices", "0,0"),
    ("project", "--input", "set.json"),
    ("project", "--seed", "3"),
    ("estimate-paley", "--indices", REF),
    ("estimate-paley", "--input", "set.json"),
    ("cr-norm", "--indices", REF),
    ("techprop", "--seed", "3"),
]


@pytest.mark.parametrize("command,flag,value", REMOVED_FLAGS,
                         ids=["%s %s" % (c, f) for c, f, _ in REMOVED_FLAGS])
def test_flag_of_no_use_to_the_command_exits_2(capsys, command, flag, value):
    code, payload, _ = run(capsys, command, *BASE_ARGV[command], flag, value)
    assert code == 2
    assert payload == {"error": "unrecognized arguments: %s %s" % (flag, value)}


@pytest.mark.parametrize("argv,message", [
    (["riesz-spectrum"], "--plan"),
    (["project", "--plan", "plan.json"], "--poly"),
    (["cr-norm"], "--input"),
    (["techprop", "--indices", REF, "--D", "-1"], "at least 0"),
], ids=["plan", "poly", "input", "D"])
def test_missing_or_bad_flag_exits_2(capsys, argv, message):
    code, payload, _ = run(capsys, *argv)
    assert code == 2
    assert message in payload["error"]


@pytest.mark.parametrize("argv", [
    ["estimate-paley", "--plan", "plan.json"],
    ["run-all", "--indices", REF],
], ids=lambda argv: argv[0])
def test_negative_seed_exits_2(capsys, argv):
    code, payload, _ = run(capsys, *argv, "--seed", "-1")
    assert code == 2
    assert payload == {"error": "argument --seed: expected an integer "
                                "at least 0, got '-1'"}


LOADERS = {
    "smoothness": lambda path, plan: ["check-smoothness", "--input", path],
    "plan": lambda path, plan: ["riesz-spectrum", "--plan", path],
    "polynomial": lambda path, plan: ["project", "--plan", plan, "--poly", path],
    "matrix sequence": lambda path, plan: ["cr-norm", "--input", path],
    "pair": lambda path, plan: ["techprop", "--indices", REF, "--pair", path],
}


@pytest.mark.parametrize("text", ["[1]", '"x"'], ids=["list", "string"])
@pytest.mark.parametrize("what", sorted(LOADERS))
def test_file_that_is_not_an_object_exits_2(capsys, plan_file, tmp_path,
                                            what, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    code, payload, _ = run(capsys, *LOADERS[what](str(path), plan_file))
    assert code == 2
    assert payload["error"].startswith("bad %s file: " % what)


def _readme_commands():
    text = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1]
    lines = block.split("```", 1)[0].replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines
            if line.startswith("paleykit ")]


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_examples_parse(argv):
    # parsing opens no file, so the example file names need not exist
    assert _build_parser().parse_args(argv).handler


def test_readme_shows_every_command():
    assert {argv[0] for argv in _readme_commands()} == {
        name for name, *_ in _COMMANDS}


def test_check_property_o_matches_module(capsys):
    code, payload, _ = run(capsys, "check-property-o", "--indices", REF)
    assert code == 0
    assert payload == json.loads(canonical_dumps(find_witness(S)))


def _no_witness_payload(members):
    return {"failure": "no_witness", "stage": "property_o",
            "details": {"smoothness": {"dim": len(next(iter(members))),
                                       "indices": sorted(map(list, members))}}}


def test_check_property_o_no_witness(capsys):
    code, payload, _ = run(capsys, "check-property-o",
                           "--indices", "0,0;1,0;0,1;1,1")
    assert code == 3
    assert payload == _no_witness_payload(saturate({(1, 1)}))


def test_no_witness_payload_is_the_same_for_every_command(capsys):
    # one find_witness_or_fail serves all three commands
    outputs = set()
    for argv in (["check-property-o"], ["build-sequence"],
                 ["run-all", "--K", "2"]):
        assert main(argv[:1] + ["--indices", "0,0;1,0;0,1;1,1"] + argv[1:]) == 3
        outputs.add(capsys.readouterr().out)
    assert len(outputs) == 1


def _indices_arg(members):
    return ";".join(",".join(map(str, g)) for g in sorted(members))


def test_check_property_o_box_is_fast(capsys):
    # 27 members and no witness; scanning every member pair took ~79 s
    box = saturate({(2, 2, 2)})
    t = time.perf_counter()
    code, payload, _ = run(capsys, "check-property-o",
                           "--indices", _indices_arg(box))
    assert time.perf_counter() - t < 1.0
    assert code == 3
    assert payload == _no_witness_payload(box)


def test_check_property_o_three_dim_matches_module(capsys):
    members = saturate({(2, 0, 0), (0, 1, 0), (0, 0, 2)})
    code, payload, _ = run(capsys, "check-property-o",
                           "--indices", _indices_arg(members))
    assert code == 0
    want = find_witness(Smoothness.from_indices(members))
    assert payload == json.loads(canonical_dumps(want))


def test_build_sequence_is_thin_wrapper(capsys):
    code, payload, _ = run(capsys, "build-sequence", "--indices", REF, "--K", "2")
    assert code == 0
    want = build_sequence(S, find_witness(S), 2, 100, 10)
    assert payload == json.loads(canonical_dumps(want))


def test_build_sequence_validates_schedule(capsys):
    code, payload, _ = run(capsys, "build-sequence", "--indices", REF,
                           "--t0", "1")
    assert code == 2


def test_build_sequence_no_witness_is_stage_failure(capsys):
    code, payload, _ = run(capsys, "build-sequence", "--indices",
                           "0,0;1,0;0,1;1,1")
    assert code == 3
    assert payload["failure"] == "no_witness"
    assert payload["stage"] == "property_o"


def test_riesz_spectrum(capsys, plan_file):
    code, payload, _ = run(capsys, "riesz-spectrum", "--plan", plan_file)
    assert code == 0
    assert payload["size"] == 9
    assert payload["claims"] == {"a": True, "b": True}
    assert [0, 0] in payload["sample_frequencies"]


def test_riesz_spectrum_sample_is_the_sorted_spectrum(capsys, tmp_path):
    # the first 9 reversed sign patterns, against the walk's sorted dict
    path = tmp_path / "plan.json"
    for K in range(1, 6):
        plan = build_sequence(S, find_witness(S), K, 100, 10)
        path.write_text(canonical_dumps(plan))
        code, payload, _ = run(capsys, "riesz-spectrum", "--plan", str(path))
        walk = riesz_walk(plan.sequence, K)
        assert code == 0 and payload["size"] == len(walk)
        assert payload["sample_frequencies"] == [list(n) for n in sorted(walk)[:9]]


def test_riesz_spectrum_walks_no_patterns(capsys, plan_file, monkeypatch):
    # the size is 3^K and the sample the first 9 reversed patterns, so
    # paleykit.riesz expands nothing
    calls = count_sign_patterns(monkeypatch)
    code, _, _ = run(capsys, "riesz-spectrum", "--plan", plan_file)
    assert code == 0
    assert calls == []


def test_riesz_spectrum_missing_file(capsys):
    code, payload, _ = run(capsys, "riesz-spectrum", "--plan", "/nonexistent")
    assert code == 2


@pytest.mark.parametrize("field", ["t0", "c"])
def test_bad_rational_in_plan_exits_2(capsys, plan_file, tmp_path, field):
    data = json.loads(open(plan_file).read())
    if field == "c":
        data["witness"]["c"][0] = "1/0"
    else:
        data[field] = "1/0"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, payload, err = run(capsys, "riesz-spectrum", "--plan", str(bad))
    assert code == 2
    assert "bad plan file" in payload["error"]


def _edited_plan(plan_file, tmp_path, **fields):
    data = json.loads(open(plan_file).read())
    data.update(fields)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("command", ["riesz-spectrum", "project", "estimate-paley"])
@pytest.mark.parametrize("first", [[True, 100]], ids=["coordinate"])
def test_bool_for_int_in_plan_exits_2(capsys, plan_file, tmp_path, command, first):
    # a 1-term plan, where a bool read as 1 passes the cross-field check
    path = _edited_plan(plan_file, tmp_path, sequence=[first], ts=["100"])
    poly = tmp_path / "poly.json"
    poly.write_text(canonical_dumps(poly_to_json(random_trigpoly([(1, 100)]))))
    extra = {"project": ["--poly", str(poly)],
             "estimate-paley": ["--count", "1", "--grid-n", "21"]}
    code, payload, _ = run(capsys, command, "--plan", path, *extra.get(command, []))
    assert code == 2
    assert "bad plan file" in payload["error"]


@pytest.mark.parametrize("command", ["riesz-spectrum", "estimate-paley"])
@pytest.mark.parametrize("sequence", [[[10, 100], [126]], [[10, 100, 5], [126, 16000, 700]]],
                         ids=["short", "long"])
def test_plan_point_without_the_set_dimension_exits_2(capsys, plan_file, tmp_path,
                                                      command, sequence):
    # riesz-spectrum used to exit 1 on the short point and print a 3-d
    # spectrum for the long ones; estimate-paley the other way round
    path = _edited_plan(plan_file, tmp_path, sequence=sequence)
    extra = ["--count", "1", "--grid-n", "21"] if command == "estimate-paley" else []
    code, payload, _ = run(capsys, command, "--plan", path, *extra)
    assert code == 2
    assert "coordinates" in payload["error"]


def test_riesz_spectrum_reports_claim_b_collision(capsys, plan_file, tmp_path):
    # 1 + 2 = 3 in the first coordinate, a collision the ratio check
    # rejects at n_2 (2 < 3 * 1)
    path = _edited_plan(plan_file, tmp_path, sequence=[[1, 1], [2, 5], [3, 9]],
                        ts=["100", "16000", "160000"])
    code, payload, _ = run(capsys, "riesz-spectrum", "--plan", path)
    assert code == 3
    assert payload == {"failure": "not_lacunary", "stage": "riesz",
                       "details": {"k": 2}}


def test_riesz_spectrum_reports_claim_a_escape(capsys, plan_file, tmp_path):
    # D_2 = 10 - 100 < 0 leaves B_2 empty, so the first pattern (-1, -1)
    # would escape; the negative coordinate of n_1 is rejected first
    path = _edited_plan(plan_file, tmp_path, sequence=[[10, -100], [126, 16000]])
    code, payload, _ = run(capsys, "riesz-spectrum", "--plan", path)
    assert code == 3
    assert payload == {"failure": "not_lacunary", "stage": "riesz",
                       "details": {"k": 1}}


def test_project(capsys, plan_file, tmp_path):
    f = random_trigpoly([(10, 100), (3, 4)], seed=1)
    poly = tmp_path / "poly.json"
    poly.write_text(canonical_dumps(poly_to_json(f)))
    code, payload, err = run(capsys, "project", "--plan", plan_file,
                             "--poly", str(poly))
    assert code == 0
    assert len(payload["coeffs"]) == 1
    assert payload["coeffs"][0]["n"] == [10, 100]
    assert "kept 1 of 2" in err


def test_project_rejects_bad_poly(capsys, plan_file, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"nope\": 1}")
    code, payload, _ = run(capsys, "project", "--plan", plan_file,
                           "--poly", str(bad))
    assert code == 2


@pytest.mark.parametrize("n", [[10.7, 100], [True, 100]], ids=["float", "bool"])
def test_project_rejects_non_integer_frequency(capsys, plan_file, tmp_path, n):
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps({"dim": 2, "mdim": None, "coeffs": [
        {"n": n, "value": {"re": 1.0, "im": 0.0}},
        {"n": [3, 4], "value": {"re": 1.0, "im": 0.0}}]}))
    code, payload, _ = run(capsys, "project", "--plan", plan_file,
                           "--poly", str(poly))
    assert code == 2
    assert payload["error"].startswith("bad polynomial file: ")


def test_estimate_paley_is_thin_wrapper(capsys, plan_file):
    code, payload, _ = run(capsys, "estimate-paley", "--plan", plan_file,
                           "--count", "2", "--matrix-dim", "1",
                           "--grid-n", "21")
    assert code == 0
    plan = build_sequence(S, find_witness(S), 2, 100, 10)
    box = [(i, j) for i in range(1, 7) for j in range(1, 7)]
    sampler = PaleySampler(count=2, support=tuple(box),
                           always=(plan.sequence[0],), terms=8, mdim=(1,),
                           seed=0, grid_n=21)
    want = estimate_paley_constant(S, plan.sequence, sampler)
    assert payload["sup_ratio"] == pytest.approx(want["sup_ratio"], rel=1e-15)
    assert payload["m"] == [1]
    assert "plan_digest" in payload


def test_piped_estimate_paley_prints_its_json_once(plan_file):
    # stdout is a buffered pipe, so the line printed before the probe is
    # still in the buffer when the probe forks: a child that flushed it on
    # exit would print it twice
    script = ("import sys; from paleykit.cli import main; print('before'); "
              "sys.exit(main(sys.argv[1:]))")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run(
        [sys.executable, "-c", script, "estimate-paley", "--plan", plan_file,
         "--count", "3", "--matrix-dim", "1", "--matrix-dim", "3",
         "--grid-n", "21"],
        capture_output=True, text=True, timeout=120, check=True, env=env)
    before, line = out.stdout.splitlines()
    assert before == "before"
    assert json.loads(line)["m"] == [1, 3]


def test_estimate_paley_rejects_repeated_matrix_dim(capsys, plan_file):
    code, payload, _ = run(capsys, "estimate-paley", "--plan", plan_file,
                           "--count", "2", "--matrix-dim", "2",
                           "--matrix-dim", "2", "--grid-n", "21")
    assert code == 2
    assert "repeats" in payload["error"]


@pytest.mark.parametrize("dims,message", [
    (("1", "1"), "repeats"),
    (("0",), "at least 1"),
], ids=["repeated", "zero"])
def test_run_all_rejects_bad_matrix_dim(capsys, dims, message):
    flags = [a for m in dims for a in ("--matrix-dim", m)]
    code, payload, _ = run(capsys, "run-all", "--indices", REF, "--K", "2",
                           "--count", "3", "--grid-n", "21", *flags)
    assert code == 2
    assert message in payload["error"]


def test_cr_norm_subcommand(capsys, tmp_path):
    ms = tmp_path / "ms.json"
    ms.write_text(canonical_dumps(matrixseq_to_json(MatrixSequence([3.0, 4.0]))))
    code, payload, _ = run(capsys, "cr-norm", "--input", str(ms))
    assert code == 0
    assert set(payload) == {"value", "lower", "gap", "converged", "iterations"}
    assert payload["value"] == pytest.approx(5.0, rel=1e-12)
    assert payload["lower"] == pytest.approx(5.0, rel=1e-12)
    assert payload["lower"] <= payload["value"]
    assert payload["gap"] <= 1e-10
    assert payload["converged"] is True


def test_cr_norm_rejects_wrong_schema(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"dim\": 2}")
    code, payload, _ = run(capsys, "cr-norm", "--input", str(bad))
    assert code == 2


def test_cr_norm_rejects_mdim_mismatch(capsys, tmp_path):
    ms = tmp_path / "ms.json"
    ms.write_text(json.dumps(dict(
        matrixseq_to_json(MatrixSequence([np.eye(2)])), mdim=3)))
    code, payload, _ = run(capsys, "cr-norm", "--input", str(ms))
    assert code == 2
    assert payload["error"].startswith("bad matrix sequence file: ")


def test_cr_norm_rejects_non_finite_entries(capsys, tmp_path):
    ms = tmp_path / "ms.json"
    ms.write_text('{"matrices": [[[{"im": 0.0, "re": 3.0}]], '
                  '[[{"im": 0.0, "re": NaN}]]], "mdim": 1}')
    code, payload, _ = run(capsys, "cr-norm", "--input", str(ms))
    assert code == 2
    assert payload["error"] == "bad matrix sequence file: entries must be finite"


def test_techprop_pair_quantities(capsys, tmp_path):
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({"m": [101, 100], "n": [100, 100]}))
    code, payload, _ = run(capsys, "techprop", "--indices", "0,0;1,0;0,1",
                           "--pair", str(pair))
    assert code == 0
    assert payload["q1"] == pytest.approx(float(Fraction(67, 6734)), rel=1e-12)


def test_techprop_pair_past_double_range(capsys, tmp_path):
    # Q_S(m) is about 1e720; the normalized symbols never float it
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({"m": [10**180, 5], "n": [10**180 + 1, 5]}))
    code, payload, _ = run(capsys, "techprop", "--indices", "2,0;1,0;0,0;0,1",
                           "--pair", str(pair))
    assert code == 0
    assert all(math.isfinite(payload[k]) for k in ("q1", "q2", "q3"))


@pytest.mark.parametrize("m", [[101.7, 100], [1, 2, 3], ["x", 100],
                               [True, 100], [0, 100]],
                         ids=["float", "long", "str", "bool", "zero"])
def test_techprop_rejects_bad_pair(capsys, tmp_path, m):
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({"m": m, "n": [100, 100]}))
    code, payload, _ = run(capsys, "techprop", "--indices", "0,0;1,0;0,1",
                           "--pair", str(pair))
    assert code == 2
    assert "bad pair file" in payload["error"]


def test_techprop_rho_search_replays(capsys):
    code1, p1, _ = run(capsys, "techprop", "--indices", "0,0;1,0;0,1",
                       "--D", "2", "--eps", "0.1")
    code2, p2, _ = run(capsys, "techprop", "--indices", "0,0;1,0;0,1",
                       "--D", "2", "--eps", "0.1")
    assert code1 == code2 == 0
    assert p1 == p2
    # certified by the closeness lemma: (32/31)^2 - 1 and 33/31 - 1
    assert p1 == {"rho": 64, "q1_bound": "63/961", "q2_bound": "2/31"}


def test_techprop_validates_eps(capsys):
    code, payload, _ = run(capsys, "techprop", "--indices", "0,0;1,0",
                           "--eps", "1.5")
    assert code == 2


def test_run_all_tiny(capsys):
    code, payload, err = run(capsys, "run-all", "--indices", REF,
                             "--K", "2", "--count", "3", "--matrix-dim", "1",
                             "--grid-n", "21")
    assert code == 0
    assert payload["claim_a"] and payload["claim_b"]
    assert payload["composite_max_rel_error"] < 1e-9
    assert payload["digest"] == (
        "15e13866f5270df7753a8c4c52f474c51d8ce28000246466f998ad63ccd1c236")
    assert "construction verified" in err


@pytest.mark.parametrize("schedule", [(), ("--t0", "10000", "--q", "100")])
def test_run_all_prints_the_run_construction_report(capsys, schedule):
    code, payload, _ = run(capsys, "run-all", "--indices", REF, "--K", "2",
                           "--count", "3", "--matrix-dim", "1",
                           "--grid-n", "21", *schedule)
    assert code == 0
    t0, q = (10000, 100) if schedule else (100, 10)
    report = run_construction(S, OrchestratorConfig(
        K=2, t0=t0, q=q, paley_count=3, matrix_dims=(1,), grid_n=21))
    want = json.loads(canonical_dumps(report_to_json(report)))
    payload.pop("timings"), want.pop("timings")
    assert payload == want


@pytest.mark.parametrize("value", ["1/0", "x"])
def test_bad_rational_flag_exits_2(capsys, value):
    code, _, _ = run(capsys, "build-sequence", "--indices", REF, "--t0", value)
    assert code == 2


NEAR_ONE = Fraction(1000001, 1000000)
# (maximal members, config fields, stage, reason, details as JSON): each
# way a run stops
STOPS = [
    ({(1, 1)}, {}, "property_o", "no_witness",
     {"smoothness": {"dim": 2, "indices": [[0, 0], [0, 1], [1, 0], [1, 1]]}}),
    # the squared schedule puts Q_S(n_4) beyond double range
    ({(4, 0), (0, 1)}, {"t0": 10000, "q": 100}, "sequence", "q_s_overflow", {"k": 4}),
    ({(2, 0), (0, 3)}, {"t0": NEAR_ONE, "q": NEAR_ONE}, "sequence", "schedule_budget",
     {"retries": 7}),
    ({(100, 0), (0, 1)}, {"K": 3}, "sequence", "doubling_budget", {"k": 3}),
]


@pytest.mark.parametrize("maximal, fields, stage, reason, details", STOPS,
                         ids=[stop[3] for stop in STOPS])
def test_run_all_stops_with_one_stage_failure(capsys, maximal, fields, stage, reason,
                                              details):
    s = Smoothness.from_indices(saturate(maximal))
    with pytest.raises(StageFailure) as exc:
        run_construction(s, OrchestratorConfig(matrix_dims=(), **fields))
    assert (exc.value.stage, exc.value.reason, to_jsonable(exc.value.details)) == (
        stage, reason, details)
    indices = ";".join(",".join(map(str, g)) for g in s.sorted_indices())
    flags = [text for name, v in fields.items() for text in ("--" + name, str(v))]
    code, payload, _ = run(capsys, "run-all", "--indices", indices, *flags)
    assert code == 3
    assert payload == {"failure": reason, "stage": stage, "details": details}


def test_stdout_is_canonical(capsys):
    code, _, _ = run(capsys, "check-property-o", "--indices", REF)
    assert code == 0
    code = main(["check-property-o", "--indices", REF])
    out = capsys.readouterr().out
    assert out == canonical_dumps(json.loads(out)) + "\n"
