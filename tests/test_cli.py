import dataclasses
import json
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest

from shiftprod import setalg
from shiftprod.cli import main
from shiftprod.ffharness import FfInput, run_field_pipeline
from shiftprod.numeric import PrimeField
from shiftprod.progressions import GapSpec, parse_ggp_spec
from shiftprod.setalg import parse_scalar_set


@pytest.fixture(autouse=True)
def clear_seed_env(monkeypatch):
    monkeypatch.delenv("SHIFTPROD_SEED", raising=False)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_main_explicit(capsys):
    code, out, err = run_cli(
        capsys,
        "verify-main", "--A", "{1, 2}", "--G", "ggp 2; gap 1;1;3", "--delta", "1/2",
    )
    assert code == 0
    assert err == ""
    rep = json.loads(out)
    assert rep["a_size"] == 2
    assert rep["c_size"] == 2
    assert rep["bound_ratio"] == "1.41421356237309504880"
    assert rep["identity_ok"] is True


def test_verify_main_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify-main", "--A", "{1, 2}", "--G", "ggp 2; gap 1;1;3",
        "--delta", "1/2", "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("a_size,aa_size,g_formal_len")
    assert lines[1].startswith("2,3,3,3,2,4,9,2,")


def test_verify_main_random_deterministic(capsys):
    argv = ["verify-main", "--random-A", "3", "--count", "2",
            "--delta", "1/3", "--seed", "7"]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert len(json.loads(out1)) == 2


def test_verify_ff_full_plane(capsys):
    code, out, _ = run_cli(capsys, "verify-ff", "--q", "5", "--full-plane")
    assert code == 0
    assert json.loads(out) == {
        "q": 5,
        "e_size": 24,
        "f_size": 24,
        "hypothesis_ok": True,
        "covered_size": 4,
        "full": True,
    }


def test_verify_ff_subgroup(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify-ff", "--q", "13", "--subgroup-t", "4",
        "--epsilon", "1/6", "--delta", "1/3",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["q"] == 13
    assert rep["a_size"] == 4
    assert rep["c_size"] == 4
    assert rep["identity_ok"] is True
    assert rep["constants"]["coverage_hypothesis"] == "fails"


def test_verify_ff_explicit_sets(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify-ff", "--q", "5", "--A", "{1, 4}", "--G", "ggp 2; gap 0;1;4",
        "--epsilon", "1/6", "--delta", "1/2",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["c_size"] == 1
    assert rep["identity_ok"] is True


def test_verify_ff_large_q_no_overflow(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify-ff", "--q", "4294967291",
        "--A", "{4294967289, 4294967287, 4294967283}",
        "--G", "ggp 4294967290; gap 0;1;3",
        "--epsilon", "1/100", "--delta", "1/10",
    )
    assert code == 0
    assert json.loads(out)["identity_ok"] is True


def test_prop_gp(capsys):
    code, out, _ = run_cli(capsys, "prop-gp", "gap 1;2,3;3,3", "ggp 2; gap 0;1,5;3,3")
    assert code == 0
    rows = json.loads(out)
    assert rows[0] == {
        "spec": "gap 1;2,3;3,3",
        "realized_size": 9,
        "formal_length": 9,
        "expanded_size": 19,
        "bound": 36,
        "pass": True,
    }
    assert rows[1]["spec"] == "ggp 2; gap 0;1,5;3,3"
    assert rows[1]["expanded_size"] == 25


def test_prop_gp_csv(capsys):
    code, out, _ = run_cli(capsys, "prop-gp", "gap 1;2,3;3,3", "--format", "csv")
    assert code == 0
    assert out == (
        "spec,realized_size,formal_length,expanded_size,bound,pass\n"
        '"gap 1;2,3;3,3",9,9,19,36,true\n'
    )


def test_conjecture_scan_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        "conjecture-scan", "--family", "geometric", "--count", "2",
        "--length", "3", "--min-factor-size", "1",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("instance_id,a_size,aa1_size")
    assert lines[1] == "geometric-000,3,5,5,1,5,1,true,true"
    assert lines[2] == "geometric-001,4,7,7,1,7,1,true,true"


def test_conjecture_scan_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "conjecture-scan", "--family", "arithmetic", "--count", "1",
        "--length", "3", "--min-factor-size", "1", "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["instance_id"] == "arithmetic-000"
    assert rows[0]["coverage_fraction"] == "1"


def test_gen_subgroup(capsys):
    code, out, _ = run_cli(capsys, "gen", "--family", "subgroup", "--q", "13", "--t", "4")
    assert code == 0
    rows = json.loads(out)
    assert rows == [
        {
            "instance_id": "subgroup-q13-t4",
            "seed": 0,
            "set": "{1, 5, 8, 12}",
            "ggp": "ggp 2 mod 13; gap 0;3;4",
        }
    ]


def test_gen_csv_lists_one_set_per_line(capsys):
    code, out, err = run_cli(capsys, "gen", "--family", "random-integer",
                             "--count", "3", "--seed", "5", "--format", "csv")
    assert code == 0
    assert err == ""
    assert out == "{17, 23, 42, 45, 48}\n{2, 16, 30, 42, 50}\n{8, 11, 24}\n"


def test_gen_random_integer_seeded(capsys):
    code, out, _ = run_cli(
        capsys, "gen", "--family", "random-integer", "--count", "2", "--seed", "5"
    )
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["set"] == "{17, 23, 42, 45, 48}"
    assert rows[1]["set"] == "{2, 16, 30, 42, 50}"


def test_seed_precedence(capsys, monkeypatch, tmp_path):
    argv = ["gen", "--family", "random-integer", "--count", "1"]
    _, out_default, _ = run_cli(capsys, *argv)
    assert json.loads(out_default)[0]["seed"] == 0

    monkeypatch.setenv("SHIFTPROD_SEED", "5")
    _, out_env, _ = run_cli(capsys, *argv)
    assert json.loads(out_env)[0]["seed"] == 5

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 9}))
    _, out_cfg, _ = run_cli(capsys, *argv, "--config", str(cfg))
    assert json.loads(out_cfg)[0]["seed"] == 9

    _, out_flag, _ = run_cli(capsys, *argv, "--config", str(cfg), "--seed", "5")
    assert json.loads(out_flag)[0]["seed"] == 5
    assert out_flag == out_env


def test_config_supplies_parameters(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"delta": "1/2"}))
    code, out, _ = run_cli(
        capsys,
        "verify-main", "--A", "{1, 2}", "--G", "ggp 2; gap 1;1;3",
        "--config", str(cfg),
    )
    assert code == 0
    assert json.loads(out)["delta"] == "1/2"


def test_out_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys,
        "verify-main", "--A", "{1, 2}", "--G", "ggp 2; gap 1;1;3",
        "--delta", "1/2", "--out", str(target),
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["c_size"] == 2


def test_usage_errors(capsys):
    cases = [
        ("verify-main", "--A", "{1, 2}"),
        ("verify-main", "--A", "{1; 2}", "--delta", "1/2"),
        ("verify-main", "--A", "{1}", "--delta", "1/2"),
        ("verify-ff", "--q", "6", "--full-plane"),
        ("verify-ff", "--q", "7"),
        ("gen", "--family", "subgroup"),
    ]
    for argv in cases:
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert err.strip() != ""


def test_verify_ff_epsilon_above_one(capsys):
    argv = ["verify-ff", "--q", "101", "--subgroup-t", "50", "--delta", "1/10"]
    code, out, err = run_cli(capsys, *argv, "--epsilon", "2")
    assert (code, out, err) == (2, "", "error: epsilon must be at most 1\n")
    code, _, err = run_cli(capsys, *argv, "--epsilon", "1")
    assert (code, err) == (0, "")


@pytest.mark.parametrize("argv", [
    ("verify-main", "--A", "{1, 2}", "--G", "ggp 2; gap 1;1;3", "--delta", "1/0"),
    ("verify-ff", "--q", "13", "--subgroup-t", "4", "--epsilon", "1/0",
     "--delta", "1/3"),
    ("conjecture-scan", "--family", "geometric", "--count", "1", "--base", "1/0"),
])
def test_zero_denominator_refused(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", "error: zero denominator in '1/0'\n")


def test_zero_denominator_from_config(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"size_match_factor": "3/0"}))
    code, out, err = run_cli(
        capsys,
        "verify-main", "--A", "{1, 2}", "--G", "ggp 2; gap 1;1;3",
        "--delta", "1/2", "--config", str(cfg),
    )
    assert (code, out, err) == (2, "", "error: zero denominator in '3/0'\n")
    # non-numeric text keeps its own message
    code, _, err = run_cli(capsys, "conjecture-scan", "--family", "geometric",
                           "--count", "1", "--base", "two")
    assert (code, err) == (2, "error: Invalid literal for Fraction: 'two'\n")


# each integer config key goes through one converter: wrong JSON types and
# non-integral numbers exit 2 with one error line, never a traceback (exit 1
# is the findings code) or a silent truncation
@pytest.mark.parametrize("argv,key", [
    (("conjecture-scan", "--family", "arithmetic", "--count", "1"), "budget"),
    (("conjecture-scan", "--family", "arithmetic", "--count", "1"), "min_factor_size"),
    (("gen", "--family", "arithmetic"), "count"),
    (("gen", "--family", "arithmetic"), "length"),
    (("gen", "--family", "random-integer"), "seed"),
    (("gen", "--family", "random-integer"), "size_max"),
    (("verify-ff", "--subgroup-t", "4", "--delta", "1/3"), "q"),
])
@pytest.mark.parametrize("value", [None, True, [1], {"n": 1}, 2.9, "2.5", "two"])
def test_config_integer_of_wrong_type_exits_2(capsys, tmp_path, argv, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
    assert (code, out, err) == (2, "", f"error: expected an integer, got {value!r}\n")


def test_config_integer_forms_accepted(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    outs = []
    for value in (2, 2.0, "2", " 2 "):
        cfg.write_text(json.dumps({"count": value}))
        code, out, _ = run_cli(capsys, "gen", "--family", "arithmetic",
                               "--config", str(cfg))
        assert code == 0
        outs.append(out)
    assert len(json.loads(outs[0])) == 2
    assert outs == outs[:1] * 4


# skew_e takes JSON true or false and the --skew-e switch, nothing else: the
# text "false" once switched the skewed lift on, a false finding with exit 1
SKEW_E_COMMANDS = [
    ("verify-main", "--A", "{1, 2}", "--G", "ggp 3; gap 1;1;3", "--delta", "1/2"),
    ("verify-ff", "--q", "101", "--A", "{2, 3, 5}", "--G", "ggp 2; gap 1;1;3",
     "--epsilon", "1/100", "--delta", "1/10"),
]


@pytest.mark.parametrize("argv", SKEW_E_COMMANDS)
@pytest.mark.parametrize("value", ["false", "true", 0, 1, None, [], [False]])
def test_config_skew_e_of_wrong_type_exits_2(capsys, tmp_path, argv, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"skew_e": value}))
    code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
    assert (code, out, err) == (2, "", f"error: expected true or false, got {value!r}\n")


@pytest.mark.parametrize("argv", SKEW_E_COMMANDS)
def test_config_skew_e_forms_accepted(capsys, tmp_path, argv):
    plain = run_cli(capsys, *argv)
    skewed = run_cli(capsys, *argv, "--skew-e")
    assert plain[0] == 0 and skewed[0] == 1
    cfg = tmp_path / "cfg.json"
    for value, expected in ((False, plain), (True, skewed)):
        cfg.write_text(json.dumps({"skew_e": value}))
        assert run_cli(capsys, *argv, "--config", str(cfg)) == expected


def test_lattice_bit_cap_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(setalg, "LATTICE_BIT_CAP", 10)
    code, out, err = run_cli(capsys, "verify-main", "--A", "{1/2, 1/3}",
                             "--G", "ggp 2; gap 1;1;3", "--delta", "1/2")
    # A*A: 2 * 2 pairs over 6 * 6, whose bit length is 6
    assert (code, out) == (2, "")
    assert err == "error: productset needs about 24 numerator bits, above the cap 10\n"


def test_unwritable_out(capsys, tmp_path):
    target = tmp_path / "missing" / "report.json"
    code, out, err = run_cli(
        capsys,
        "verify-main", "--A", "{1, 2}", "--G", "ggp 2; gap 1;1;3",
        "--delta", "1/2", "--out", str(target),
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write output: ")
    assert len(err.splitlines()) == 1
    assert not target.exists()


def test_prop_gp_refuses_before_enumerating(capsys, monkeypatch):
    def refuse(self):
        raise AssertionError("exponent vectors enumerated")

    # without the cap, 10**8 values would need tens of GB
    monkeypatch.setattr(GapSpec, "vectors", refuse)
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "prop-gp", "gap 0;1;100000000")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert err == ("error: progression has 100000000 exponent vectors, "
                   "above the cap 10000000\n")
    assert peak < 16 * 2 ** 20


def test_bad_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("SHIFTPROD_SEED", "ten")
    code, _, err = run_cli(capsys, "gen", "--family", "random-integer", "--count", "1")
    assert code == 2
    assert "SHIFTPROD_SEED" in err


def test_module_invocation_byte_identical():
    argv = [sys.executable, "-m", "shiftprod.cli", "gen",
            "--family", "random-integer", "--count", "2", "--seed", "3"]
    first = subprocess.run(argv, capture_output=True, text=True)
    second = subprocess.run(argv, capture_output=True, text=True)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.endswith("\n")


def test_verify_ff_full_plane_csv(capsys):
    code, out, _ = run_cli(capsys, "verify-ff", "--q", "5", "--full-plane",
                           "--format", "csv")
    assert code == 0
    assert out == ("q,e_size,f_size,hypothesis_ok,covered_size,full\n"
                   "5,24,24,true,4,true\n")


def test_verify_ff_full_plane_refused_before_building(capsys, monkeypatch):
    def build(*_):
        raise AssertionError("the plane was built")

    monkeypatch.setattr("shiftprod.cli._full_plane", build)
    code, out, err = run_cli(capsys, "verify-ff", "--q", "1009", "--full-plane")
    assert code == 2
    assert out == ""
    n = (1009 ** 2 - 1) ** 2
    assert err == f"error: coverage scan needs {n} pairs, above the cap 10000000\n"


FULL_ORDER_ARGS = ("--A", "{2, 3, 5}", "--G", "ggp 2; gap 0;1;3",
                   "--epsilon", "1/100", "--delta", "1/10")


@pytest.mark.parametrize("q", ["4294967291", "1000000000000000003"])
def test_verify_ff_full_order_base_large_q(capsys, q):
    # 2 has full order mod both primes, so membership is a discrete log over
    # the whole unit group (largest prime factors 22605091 and 52445056723)
    code, out, _ = run_cli(capsys, "verify-ff", "--q", q, *FULL_ORDER_ARGS)
    assert code == 0
    assert json.loads(out)["identity_ok"] is True


def test_verify_ff_log_table_refused_before_building(capsys, monkeypatch):
    def build(*_):
        raise AssertionError("a baby-step table was built")

    monkeypatch.setattr("shiftprod.progressions._baby_steps", build)
    # the safe prime q = 2p + 1 with p = 137438954063: 2 has order p or 2p
    code, out, err = run_cli(capsys, "verify-ff", "--q", "274877908127",
                             *FULL_ORDER_ARGS)
    assert code == 2
    assert out == ""
    assert err == ("error: membership in powers of 2 mod 274877908127 needs a "
                   "baby-step table of 370728 entries, above the cap 262144\n")


def test_verify_ff_finding_exit(capsys):
    # the skew lift with g1 = 2 != 1 breaks the dot identity over F_5
    code, out, err = run_cli(capsys, "verify-ff", "--q", "5", "--A", "{1, 4}",
                             "--G", "ggp 2; gap 1;1;4", "--epsilon", "1/6",
                             "--delta", "1/2", "--skew-e")
    assert code == 1
    assert json.loads(out)["identity_ok"] is False
    assert err == "finding: q=5 A={1, 4} G=ggp 2 mod 5; gap 1;1;4\n"
    F5 = PrimeField(5)
    inp = FfInput(q=5, A=parse_scalar_set("{1, 4}", F5),
                  G=parse_ggp_spec("ggp 2; gap 1;1;4", F5),
                  epsilon=Fraction(1, 6), delta=Fraction(1, 2))
    assert run_field_pipeline(dataclasses.replace(inp, skew_e=True)).finding()
    assert not run_field_pipeline(inp).finding()
