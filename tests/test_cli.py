import argparse
import dataclasses
import json
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from shiftprod import cli, ffharness, harness, progressions, setalg
from shiftprod.cli import FLAGS, MODES, _dest, build_parser, main
from shiftprod.ffharness import FfInput, run_field_pipeline
from shiftprod.numeric import PrimeField, PrimeFieldElement, multiplicative_order
from shiftprod.progressions import parse_ggp_spec
from shiftprod.setalg import parse_scalar_set


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


# |S+S| and |G*G| are read off the exponents: forming G*G took 9 * 10**6
# products of powers of 2 of up to 3000 bits, and the powers of 3/2 were
# refused on LATTICE_BIT_CAP
def test_prop_gp_reads_growth_off_exponents(capsys, monkeypatch):
    def built(*_):
        raise AssertionError("a power was built")

    monkeypatch.setattr(progressions, "ggp_powers", built)
    code, out, _ = run_cli(capsys, "prop-gp", "ggp 2; gap 0;1;3000",
                           "ggp 3/2; gap 0;1;3000", "gap 0;1,1000;1000,3")
    assert code == 0
    assert [row["expanded_size"] for row in json.loads(out)] == [5999] * 3


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


def test_seed_precedence(capsys, tmp_path):
    # the flag, else the config's seed key, else 0
    argv = ["gen", "--family", "random-integer", "--count", "1"]
    _, out_default, _ = run_cli(capsys, *argv)
    assert json.loads(out_default)[0]["seed"] == 0

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 9}))
    _, out_cfg, _ = run_cli(capsys, *argv, "--config", str(cfg))
    assert json.loads(out_cfg)[0]["seed"] == 9

    _, out_flag, _ = run_cli(capsys, *argv, "--config", str(cfg), "--seed", "5")
    assert json.loads(out_flag)[0]["seed"] == 5
    assert out_flag == run_cli(capsys, *argv, "--seed", "5")[1]


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


# a setting of 0 is given, not missing: from a flag or the config, as a
# number or as text, it meets the range check of its command
@pytest.mark.parametrize("argv,key,message", [
    (("verify-main", "--A", "{1, 2}", "--G", "ggp 2; gap 1;1;3"), "delta",
     "delta must lie strictly between 0 and 1"),
    (("verify-ff", "--q", "101", "--subgroup-t", "50", "--delta", "1/10"),
     "epsilon", "epsilon must be positive"),
    (("verify-ff", "--q", "101", "--subgroup-t", "50", "--epsilon", "1/10"),
     "delta", "delta must lie strictly between 0 and 1"),
    (("verify-ff", "--subgroup-t", "50", "--epsilon", "1/10", "--delta", "1/10"),
     "q", "0 is not prime"),
    (("gen", "--family", "subgroup", "--q", "101"), "t",
     "subgroup order must be at least 3 for a progression"),
    (("gen", "--family", "subgroup", "--t", "5"), "q", "0 is not prime"),
])
def test_zero_setting_meets_its_range_check(capsys, tmp_path, argv, key, message):
    expected = (2, "", f"error: {message}\n")
    assert run_cli(capsys, *argv, f"--{key}", "0") == expected
    cfg = tmp_path / "cfg.json"
    for value in (0, "0"):
        cfg.write_text(json.dumps({key: value}))
        assert run_cli(capsys, *argv, "--config", str(cfg)) == expected


@pytest.mark.parametrize("argv,settings,message", [
    (("gen", "--family", "random-integer"), {"size_min": 5, "size_max": 3},
     "size_min = 5 is above size_max = 3"),
    (("conjecture-scan", "--family", "random-integer"), {"size_min": 4, "size_max": 2},
     "size_min = 4 is above size_max = 2"),
    (("gen", "--family", "random-integer"), {"size_min": -2, "size_max": 3},
     "size_min must be positive, got -2"),
    (("gen", "--family", "random-integer"), {"count": -1},
     "count must not be negative, got -1"),
    (("conjecture-scan", "--family", "geometric"), {"count": -3},
     "count must not be negative, got -3"),
    (("verify-main", "--random-A", "3", "--delta", "1/2"), {"count": -1},
     "count must not be negative, got -1"),
    (("gen", "--family", "random-integer"), {"size_min": 0, "size_max": 0},
     "size_min must be positive, got 0"),
    (("conjecture-scan", "--family", "random-integer"), {"size_min": 0, "size_max": 0},
     "size_min must be positive, got 0"),
])
def test_family_setting_out_of_range_exits_2(capsys, tmp_path, argv, settings, message):
    expected = (2, "", f"error: {message}\n")
    flags = [x for k, v in settings.items() for x in (f"--{k.replace('_', '-')}", str(v))]
    assert run_cli(capsys, *argv, *flags) == expected
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(settings))
    assert run_cli(capsys, *argv, "--config", str(cfg)) == expected


@pytest.mark.parametrize("command", ["conjecture-scan", "gen"])
def test_random_integer_range_refused_on_size_max_at_every_seed(capsys, command):
    # [5, 7] holds 3 values: size_max = 5 is refused before any draw, so a
    # seed that would draw only 3 values is refused too
    family = (command, "--family", "random-integer", "--count", "1", "--lo", "5",
              "--hi", "7", "--size-min", "3")
    for seed in range(8):
        assert run_cli(capsys, *family, "--seed", str(seed)) == (
            2, "", "error: range [5, 7] is too small for 5 elements\n")
        code, out, err = run_cli(capsys, *family, "--size-max", "3", "--seed", str(seed))
        assert (code, err) == (0, "") and out


@pytest.mark.parametrize("size,message", [
    ("-1", "random_A must not be negative, got -1"),
    ("0", "need |A| >= 2"),
    ("1", "need |A| >= 2"),
])
def test_random_A_below_two_exits_2(capsys, size, message):
    # a negative size is refused before any draw, not by random.sample
    assert run_cli(capsys, "verify-main", "--random-A", size, "--delta", "1/2") == (
        2, "", f"error: {message}\n")


# each pair once let one flag silently win over or ignore the other
FF_RUN = ("--q", "13", "--epsilon", "1/10", "--delta", "1/2")
FF_SET = ("--A", "{0, 1}", "--G", "ggp 2; gap 0;1;3")


@pytest.mark.parametrize("argv,message", [
    (("verify-main", "--A", "{1, 2}", "--random-A", "5", "--delta", "1/2"),
     "--A cannot be combined with --random-A"),
    (("verify-ff", *FF_RUN, "--subgroup-t", "4", *FF_SET[:2]),
     "--subgroup-t cannot be combined with --A"),
    (("verify-ff", *FF_RUN, "--subgroup-t", "4", *FF_SET[2:]),
     "--subgroup-t cannot be combined with --G"),
    (("verify-ff", *FF_RUN, "--subgroup-t", "4", *FF_SET),
     "--subgroup-t cannot be combined with --A, --G"),
    (("verify-ff", "--q", "5", "--full-plane", "--subgroup-t", "4"),
     "--full-plane cannot be combined with --subgroup-t"),
    (("verify-ff", "--q", "5", "--full-plane", *FF_SET),
     "--full-plane cannot be combined with --A, --G"),
    (("verify-ff", "--q", "5", "--full-plane", "--epsilon", "1/10"),
     "--full-plane cannot be combined with --epsilon"),
    (("verify-ff", "--q", "5", "--full-plane", "--delta", "1/2"),
     "--full-plane cannot be combined with --delta"),
    (("verify-ff", "--q", "5", "--full-plane", "--skew-e", "--epsilon", "1/0",
      "--delta", "7"),
     "--full-plane cannot be combined with --epsilon, --delta, --skew-e"),
    (("verify-main", "--A", "{1, 2}", "--G", "ggp 2; gap 1;1;3", "--delta", "1/2",
      "--count", "5"),
     "--A cannot be combined with --count"),
    (("verify-main", "--A", "{1, 2}", "--G", "ggp 2; gap 1;1;3", "--delta", "1/2",
      "--count", "5", "--lo", "3"),
     "--A cannot be combined with --count, --lo"),
    (("verify-main", "--A", "{1, 2}", "--delta", "1/2", "--hi", "9"),
     "--A cannot be combined with --hi"),
    # flags that a family or a mode does not read, once ignored with exit 0
    (("conjecture-scan", "--family", "subgroup", "--q", "13", "--t", "4",
      "--count", "5"),
     "--family subgroup cannot be combined with --count"),
    (("conjecture-scan", "--family", "geometric", "--count", "1", "--lo", "5",
      "--q", "7"),
     "--family geometric cannot be combined with --q, --lo"),
    (("gen", "--family", "arithmetic", "--base", "3", "--size-min", "9"),
     "--family arithmetic cannot be combined with --size-min, --base"),
    (("verify-main", "--A", "{1, 2}", "--delta", "1/2", "--seed", "9"),
     "--A cannot be combined with --seed"),
    (("conjecture-scan", "--family", "arithmetic", "--count", "1", "--seed", "9"),
     "--family arithmetic cannot be combined with --seed"),
    (("conjecture-scan", "--family", "geometric", "--count", "1", "--seed", "9"),
     "--family geometric cannot be combined with --seed"),
    (("conjecture-scan", "--family", "subgroup", "--count", "1", "--seed", "9"),
     "--family subgroup cannot be combined with --count, --seed"),
])
def test_conflicting_input_flags_exit_2(capsys, monkeypatch, argv, message):
    def work(*_):
        raise AssertionError("the command ran")

    # refused before the config is read or any input is built
    for name in ("_load_config", "subgroup_ggp", "_full_plane", "_int_range",
                 "_family_instances"):
        monkeypatch.setattr(f"shiftprod.cli.{name}", work)
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


# a mode's settings are checked once, before the first set is drawn, so a
# refusal cannot hang on the count
@pytest.mark.parametrize("argv,message", [
    (("verify-main", "--random-A", "5", "--lo", "1", "--hi", "3", "--delta", "1/2"),
     "range [1, 3] is too small for 5 elements"),
    (("gen", "--family", "geometric", "--length", "0"), "length must be positive"),
    (("gen", "--family", "geometric", "--base", "1"), "base must be positive and != 1"),
    (("gen", "--family", "arithmetic", "--step", "0"), "step must be nonzero"),
    (("conjecture-scan", "--family", "arithmetic", "--length", "0"),
     "length must be positive"),
    (("conjecture-scan", "--family", "geometric", "--budget", "0"),
     "search_budget must be at least 1"),
    (("conjecture-scan", "--family", "geometric", "--min-factor-size", "0"),
     "min_factor_size must be at least 1"),
    (("verify-main", "--random-A", "1", "--delta", "1/2"), "need |A| >= 2"),
])
@pytest.mark.parametrize("count", ["0", "1"])
def test_setting_refused_at_every_count(capsys, argv, message, count):
    assert run_cli(capsys, *argv, "--count", count) == (2, "", f"error: {message}\n")


# The smallest run of each mode, as flag -> value (True for a switch).
MODE_RUNS = {
    ("verify-main", "--A"): {"--A": "{1, 2}", "--G": "ggp 2; gap 1;1;3",
                             "--delta": "1/2"},
    ("verify-main", "--random-A"): {"--random-A": "3", "--delta": "1/2"},
    ("verify-ff", "--full-plane"): {"--q": "5", "--full-plane": True},
    ("verify-ff", "--subgroup-t"): {"--q": "13", "--subgroup-t": "4",
                                    "--epsilon": "1/6", "--delta": "1/3"},
    ("verify-ff", "--A"): {"--q": "13", "--A": "{2, 3}", "--G": "ggp 2; gap 1;1;3",
                           "--epsilon": "1/6", "--delta": "1/3"},
    ("prop-gp", "spec"): {"spec": "gap 1;2,3;3,3"},
    **{(command, family): {"--family": family, "--count": "1"}
       for command in ("conjecture-scan", "gen")
       for family in ("geometric", "arithmetic")},
    # from [1, 6] the cover search finds a pair, which the search knobs change
    **{(command, "random-integer"): {"--family": "random-integer", "--count": "1",
                                     "--hi": "6"}
       for command in ("conjecture-scan", "gen")},
    **{(command, "subgroup"): {"--family": "subgroup", "--q": "13", "--t": "4"}
       for command in ("conjecture-scan", "gen")},
}

# Two legal values of each flag; None leaves the flag out.
FLAG_VALUES = {
    "spec": ("gap 1;2,3;3,3", "gap 0;1;3"),
    "--q": ("13", "17"), "--t": ("3", "4"),
    "--A": ("{1, 2}", "{1, 3}"), "--G": ("ggp 2; gap 1;1;3", "ggp 2; gap 1;1;4"),
    "--random-A": ("2", "3"), "--subgroup-t": ("3", "4"), "--full-plane": (None, True),
    "--count": ("1", "2"), "--lo": ("-5", "1"), "--hi": ("6", "50"),
    "--size-min": ("2", "3"), "--size-max": ("5", "6"),
    "--base": ("2", "1/2"), "--length": ("3", "4"), "--start": ("1", "2"),
    "--step": ("1", "2"), "--seed": ("0", "1"),
    "--epsilon": ("1/6", "1/5"), "--delta": ("1/2", "1/3"), "--skew-e": (None, True),
    "--min-factor-size": ("2", "3"), "--coverage-target": ("1/2", "1"),
    "--budget": ("1", "200000"), "--format": ("json", "csv"),
}

# Flags whose default pair prints the same bytes in a mode, each with the
# settings under which two values differ.  The size-match flags act only on
# a G whose size is off, |G| = 9 against |AA| = 3; no G of lengths at least
# 3 has a degeneracy ratio above 1, the default threshold, so a lower one
# is its witness.  With --random-A 2 from [1, 2] the drawn A is {1, 2}.
_POLICY_WITNESSES = {
    "--size-match-factor": ({"--G": "ggp 2; gap 1;1;9", "--on-size-mismatch": "warn"},
                            ("2", "4")),
    "--on-size-mismatch": ({"--G": "ggp 2; gap 1;1;9"}, ("reject", "warn")),
    "--degeneracy-threshold": ({}, ("1/2", "1")),
}
WITNESSES = {
    **{("verify-main", "--A", flag): w for flag, w in _POLICY_WITNESSES.items()},
    **{("verify-main", "--random-A", flag): (
        {"--random-A": "2", "--lo": "1", "--hi": "2", **extra}, values)
       for flag, (extra, values) in _POLICY_WITNESSES.items()},
    ("verify-main", "--random-A", "--lo"): ({}, ("-50", "1")),
    ("verify-main", "--random-A", "--seed"): ({"--hi": "6"}, ("0", "1")),
    # the automatic progression starts at g1 = 1 too
    ("verify-main", "--random-A", "--skew-e"): ({"--G": "ggp 2; gap 1;1;3"},
                                               (None, True)),
    ("verify-ff", "--full-plane", "--q"): ({}, ("5", "7")),
    ("conjecture-scan", "geometric", "--min-factor-size"): ({}, ("1", "2")),
    ("conjecture-scan", "geometric", "--budget"): ({"--base": "1/2"}, ("1", "200000")),
    ("conjecture-scan", "geometric", "--coverage-target"): ({"--base": "1/2"},
                                                            ("1/3", "1")),
    ("conjecture-scan", "subgroup", "--coverage-target"): ({"--q": "31", "--t": "5"},
                                                           ("1/2", "1")),
}

# Existing tests cover --config, --out and --format.  --family and
# --full-plane pick the mode itself.
EXEMPT = {"--config", "--out", "--format", "--family", "--full-plane"}


def _argv(command, settings):
    argv = [command]
    for flag, value in settings.items():
        if flag == "spec":
            argv.append(value)
        elif value is not None:
            argv += [flag] if value is True else [flag, value]
    return argv


def _parser_flags():
    """Each command's flags, walked from the parser itself."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {command: [a.option_strings[0] if a.option_strings else a.dest
                      for a in p._actions if a.dest != "help"]
            for command, p in sub.choices.items()}


def _refuse_work(*_):
    raise AssertionError("the command ran")


def test_every_mode_has_a_run():
    assert set(MODE_RUNS) == {(c, m) for c, modes in MODES.items() for m in modes}


# Every flag of every mode is read or refused: given outside the mode's
# row it exits 2 naming its mode's selector or its own, before any work;
# inside the row two legal values print different bytes.
@pytest.mark.parametrize("command,mode", list(MODE_RUNS))
def test_every_flag_is_read_or_refused(capsys, monkeypatch, command, mode):
    runs = MODE_RUNS[command, mode]
    for flag in _parser_flags()[command]:
        if flag in MODES[command][mode]:
            if flag in EXEMPT or (command, mode, flag) in EXEMPT:
                continue
            extra, values = (WITNESSES.get((command, mode, flag))
                             or ({}, FLAG_VALUES[flag]))
            outs = [run_cli(capsys, *_argv(command, {**runs, **extra, flag: v}))
                    for v in values]
            assert outs[0][1] != outs[1][1], (flag, outs)
            assert any(code in (0, 1) for code, _, _ in outs), (flag, outs)
            assert not any("cannot be combined" in e for _, _, e in outs), (flag, outs)
            continue
        with monkeypatch.context() as m:
            m.setattr("shiftprod.cli._load_config", _refuse_work)
            value = FLAG_VALUES[flag][-1]
            code, out, err = run_cli(capsys, *_argv(command, {**runs, flag: value}))
        match = re.fullmatch(r"error: (--\S+(?: \S+)?) cannot be combined with (.+)\n",
                             err)
        assert (code, out) == (2, "") and match, (flag, err)
        assert flag in [match[1].split()[0], *match[2].split(", ")], (flag, err)


# Every setting of a mode that reads --config is read from the config as
# from its flag, the selectors aside: the same exit code and bytes, and for
# --out the same file contents.
@pytest.mark.parametrize("command,mode", [m for m in MODE_RUNS
                                          if "--config" in MODES[m[0]][m[1]]])
def test_every_config_key_reads_as_its_flag(capsys, tmp_path, command, mode):
    for flag in MODES[command][mode]:
        if flag in (mode, "--family", "--config"):
            continue
        extra, values = (WITNESSES.get((command, mode, flag))
                         or ({}, FLAG_VALUES.get(flag)))
        settings = {**MODE_RUNS[command, mode], **extra}
        settings.pop(flag, None)
        value = str(tmp_path / "flag.out") if flag == "--out" else values[-1]
        by_flag = run_cli(capsys, *_argv(command, {**settings, flag: value}))
        if flag == "--out":
            value = str(tmp_path / "config.out")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({_dest(flag): value}))
        by_config = run_cli(capsys, *_argv(command, {**settings, "--config": str(cfg)}))
        assert by_config == by_flag and by_flag[0] in (0, 1), (flag, by_flag, by_config)
        if flag == "--out":
            assert ((tmp_path / "config.out").read_text()
                    == (tmp_path / "flag.out").read_text() != ""), flag


RATIONAL_FLAGS = {"--base", "--start", "--step", "--epsilon", "--delta",
                  "--size-match-factor", "--degeneracy-threshold", "--coverage-target"}


def _settled_type(flag):
    kwargs = FLAGS[flag]
    if flag in RATIONAL_FLAGS:
        return Fraction
    return int if kwargs.get("type") is int else bool if "const" in kwargs else str


# Every setting reaches the command typed, whatever its source: a flag and
# its --config key give the command one value of one type.
@pytest.mark.parametrize("command,mode", [m for m in MODE_RUNS
                                          if "--config" in MODES[m[0]][m[1]]])
def test_settings_arrive_typed(capsys, monkeypatch, tmp_path, command, mode):
    seen = []
    monkeypatch.setitem(cli._COMMANDS, command, ("", lambda args: seen.append(args) or 0))
    cfg = tmp_path / "cfg.json"
    for flag in MODES[command][mode]:
        if flag in (mode, "--family", "--config"):
            continue
        if flag == "--out":
            value = str(tmp_path / "out")
        else:
            value = (WITNESSES.get((command, mode, flag)) or ({}, FLAG_VALUES[flag]))[1][-1]
        settings = {k: v for k, v in MODE_RUNS[command, mode].items() if k != flag}
        cfg.write_text(json.dumps({_dest(flag): value}))
        for argv in (_argv(command, {**settings, flag: value}),
                     _argv(command, {**settings, "--config": str(cfg)})):
            assert run_cli(capsys, *argv) == (0, "", ""), (flag, argv)
        by_flag, by_config = (getattr(args, _dest(flag)) for args in seen[-2:])
        assert by_flag == by_config, (flag, by_flag, by_config)
        assert type(by_flag) is type(by_config) is _settled_type(flag), (flag, by_flag)


@pytest.mark.parametrize("argv,key,value,message", [
    (("verify-main", "--A", "{1, 2}", "--delta", "1/2"), "G", 3, "expected text, got 3"),
    (("verify-ff", "--q", "13", "--A", "{1, 2}", "--epsilon", "1/6", "--delta", "1/3"),
     "G", None, "expected text, got None"),
    (("gen", "--family", "geometric", "--count", "1"), "out", ["x"],
     "expected text, got ['x']"),
    (("gen", "--family", "geometric", "--count", "1"), "format", "xml",
     "expected json or csv, got 'xml'"),
    (("conjecture-scan", "--family", "geometric", "--count", "1"), "format", True,
     "expected json or csv, got True"),
    (("verify-main", "--A", "{1, 2}", "--G", "ggp 2; gap 1;1;3", "--delta", "1/2"),
     "on_size_mismatch", "ignore", "expected reject or warn, got 'ignore'"),
])
def test_config_text_of_wrong_form_exits_2(capsys, tmp_path, argv, key, value, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    assert run_cli(capsys, *argv, "--config", str(cfg)) == (2, "", f"error: {message}\n")


# --seed only where a command draws at random, --config only where it reads
# settings: anywhere else argparse refuses them
@pytest.mark.parametrize("argv", [
    ("prop-gp", "gap 0;1;3", "--config", "/nonexistent"),
    ("prop-gp", "gap 0;1;3", "--seed", "1"),
    ("verify-ff", "--q", "5", "--full-plane", "--seed", "1"),
])
def test_unread_flags_are_unknown(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.endswith(f"error: unrecognized arguments: {' '.join(argv[-2:])}\n")


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


# G = {2**k : k = x + 100 y, x, y < 6} has 36 items and AA+1 three, so the
# decomposition's G*(AA+1) takes 108 pairs and G*G 1296; E.F takes 18 * 18
# and BB*(AA+1) 25 * 3.  The pipeline no longer forms G*G, but refuses it as
# productset would, before the dot identity.  CI runs the full-size case,
# x, y < 60, against the real cap.
def test_refused_product_of_g_with_itself_exits_2(capsys, monkeypatch, tmp_path):
    def ran(*args):
        raise AssertionError("dot identity ran")

    monkeypatch.setattr(harness, "dot_product_set", ran)
    monkeypatch.setattr(setalg, "PAIR_CAP", 1000)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"on_size_mismatch": "warn", "size_match_factor": "10000"}))
    code, out, err = run_cli(capsys, "verify-main", "--A", "{1/2, 1/3}",
                             "--G", "ggp 2; gap 0;1,100;6,6", "--delta", "1/2",
                             "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err == "error: productset needs 1296 pair evaluations, above the cap 1000\n"


# G = {1024**-k : k < 4} against AA+1 = {2, 3, 5}: G*(AA+1) counts 4 * 3
# pairs times the 31 bits of 1024**3, and G*G 4 * 4 times the 61 of 1024**6;
# the largest earlier count, E.F's, is 4 * 4 times the 21 of 1024**2.
@pytest.mark.parametrize("cap,bits", [(340, 372), (372, 976)])
def test_refused_lattice_bits_of_g_products_exit_2(capsys, monkeypatch, cap, bits):
    monkeypatch.setattr(setalg, "LATTICE_BIT_CAP", cap)
    code, out, err = run_cli(capsys, "verify-main", "--A", "{1, 2}",
                             "--G", "ggp 1/1024; gap 0;1;4", "--delta", "1/2")
    assert (code, out) == (2, "")
    assert err == (f"error: productset needs about {bits} numerator bits, "
                   f"above the cap {cap}\n")


# r0 = 4 * 10**8: the three powers of 3/2 are refused on their numerator
# bits before g1 = (3/2)**r0 is built, which alone ran past 20 s
def test_rational_powers_above_bit_cap_exit_2(capsys, monkeypatch):
    def built(*_):
        raise AssertionError("g1 was built")

    monkeypatch.setattr(harness, "first_element", built)
    code, out, err = run_cli(capsys, "verify-main", "--A", "{1, 2}",
                             "--G", "ggp 3/2; gap 400000000;1;3", "--delta", "1/2")
    assert (code, out) == (2, "")
    assert err == ("error: powers of 3/2 need about 2400000012 numerator bits, "
                   "above the cap 1073741824\n")


def test_verify_ff_g_times_g_refused_before_powers(capsys, monkeypatch):
    def built(*_):
        raise AssertionError("the powers of G were built")

    # ord(5) = q - 1, so G has 4000 distinct powers and G*G 16 * 10**6 pairs
    monkeypatch.setattr(progressions, "ggp_powers", built)
    code, out, err = run_cli(capsys, "verify-ff", "--q", "10007", "--A", "{1, 2, 3}",
                             "--G", "ggp 5; gap 0;1;4000",
                             "--epsilon", "1/100", "--delta", "1/10")
    assert (code, out) == (2, "")
    assert err == ("error: productset needs 16000000 pair evaluations, "
                   "above the cap 10000000\n")


def test_verify_ff_g_times_g_refused_before_exponents(capsys, monkeypatch):
    def built(*_):
        raise AssertionError("the exponents of G were built")

    # one generator: |G| = min(2 * 10**6, ord(2)) = q - 1 is read in closed
    # form, so G*G is refused before any of its 2 * 10**6 exponents is built
    monkeypatch.setattr(progressions, "gap_values", built)
    code, out, err = run_cli(capsys, "verify-ff", "--q", "1000003", "--A", "{1, 2, 3}",
                             "--G", "ggp 2; gap 0;1;2000000",
                             "--epsilon", "1/100", "--delta", "1/10")
    assert (code, out) == (2, "")
    assert err == ("error: productset needs 1000004000004 pair evaluations, "
                   "above the cap 10000000\n")


@pytest.mark.parametrize("argv,key,value,exponent", [
    (("verify-ff", "--q", "101", "--subgroup-t", "50", "--delta", "1/10"),
     "epsilon", "1/10001", "3/2 + epsilon = 30005/20002 has denominator 20002"),
    (("verify-ff", "--q", "101", "--subgroup-t", "50", "--delta", "1/10"),
     "epsilon", "1/19998", "1 - epsilon = 19997/19998 has denominator 19998"),
    (("verify-ff", "--q", "101", "--subgroup-t", "50", "--delta", "1/10"),
     "epsilon", "1/10002", "1 - epsilon = 10001/10002 has denominator 10002"),
    (("verify-ff", "--q", "101", "--subgroup-t", "50", "--delta", "1/10"),
     "epsilon", "0.3333333333",
     "3/2 + epsilon = 18333333333/10000000000 has denominator 10000000000"),
    (("verify-ff", "--q", "101", "--subgroup-t", "50", "--epsilon", "1/100"),
     "delta", "1/10001", "delta = 1/10001 has denominator 10001"),
    (("verify-main", "--A", "{1, 2}", "--G", "ggp 2; gap 1;1;3"),
     "delta", "1/3334", "1 - delta/3 = 10001/10002 has denominator 10002"),
])
def test_readout_degree_above_cap_exits_2(capsys, monkeypatch, tmp_path, argv, key,
                                          value, exponent):
    def ran(*args):
        raise AssertionError("readout ran")

    monkeypatch.setattr(ffharness, "power_ratio_decimal", ran)
    monkeypatch.setattr(harness, "power_ratio_decimal", ran)
    expected = (2, "", f"error: readout exponent {exponent}, above "
                       f"READOUT_DEGREE_CAP = {harness.READOUT_DEGREE_CAP}\n")
    assert run_cli(capsys, *argv, f"--{key}", value) == expected
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    assert run_cli(capsys, *argv, "--config", str(cfg)) == expected


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
    def refuse(*_):
        raise AssertionError("exponents enumerated")

    # without the cap, 10**8 values would need tens of GB
    monkeypatch.setattr(progressions, "gap_values", refuse)
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


# 2 has order q - 1 = 1000002 mod q, so the generator 1000002 adds one
# multiple and G has 3 values; over the integers its 3 * 10**6 multiples
# took 2.35 GB before any reduction
DEGENERATE_FIELD_G = "gap 5;1000002,1;3000000,3"


@pytest.mark.parametrize("argv,expected", [
    (("verify-ff", "--q", "1000003", "--A", "{1, 2, 3}", "--G",
      f"ggp 2; {DEGENERATE_FIELD_G}", "--epsilon", "1/100", "--delta", "1/10"),
     '"identity_ok": true'),
    (("prop-gp", f"ggp 2 mod 1000003; {DEGENERATE_FIELD_G}"), '"realized_size": 3'),
])
def test_field_exponents_folded_mod_the_order(capsys, monkeypatch, argv, expected):
    fold = progressions.gap_values

    def folded(r0, generators, lengths, n=None):
        assert n is not None, "exponents folded over the integers"
        return fold(r0, generators, lengths, n)

    monkeypatch.setattr(progressions, "gap_values", folded)
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, *argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, err) == (0, "")
    assert expected in out
    assert peak < 16 * 2 ** 20


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
    assert err == (f"error: coverage scan needs {n} pair evaluations, "
                   "above the cap 10000000\n")


FULL_ORDER_ARGS = ("--A", "{2, 3, 5}", "--G", "ggp 2; gap 0;1;3",
                   "--epsilon", "1/100", "--delta", "1/10")


@pytest.mark.parametrize("q", ["4294967291", "1000000000000000003"])
def test_verify_ff_full_order_base_large_q(capsys, q):
    # 2 has full order mod both primes
    code, out, _ = run_cli(capsys, "verify-ff", "--q", q, *FULL_ORDER_ARGS)
    assert code == 0
    assert json.loads(out)["identity_ok"] is True


def test_verify_ff_safe_prime_full_order_base(capsys):
    # the safe prime q = 2p + 1 with p = 137438954063: 2 has order p or 2p,
    # so the progression's powers are looked up, never logged
    code, out, _ = run_cli(capsys, "verify-ff", "--q", "274877908127",
                           *FULL_ORDER_ARGS)
    assert code == 0
    assert json.loads(out)["identity_ok"] is True


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


# An empty exceptional set contradicts Corollary 1 over Q, so verify-main
# exits 1 on it.  Over F_q the corollary needs cond1 and cond2, which a
# small q need not meet, so verify-ff judges only the structural checks
# and the coverage bound, and exits 0 here.
def test_empty_exceptional_set_is_a_finding_only_over_q(capsys):
    code, out, err = run_cli(capsys, "verify-main", "--A", "{0, 1}", "--delta", "1/2")
    assert code == 1
    assert json.loads(out)["c_size"] == 0
    assert err == "finding: empty exceptional set for A={0, 1} G=ggp 2; gap 0;1;3\n"
    code, out, err = run_cli(capsys, "verify-ff", "--q", "7", "--A", "{1, 2}",
                             "--G", "ggp 3; gap 0;1;6", "--epsilon", "1",
                             "--delta", "1/2")
    assert code == 0
    assert err == ""
    rep = harness.Report(**json.loads(out))
    assert rep.c_size == 0 and not rep.corollary1_ok
    assert rep.structural_ok() and not rep.finding()


# An empty --G is progression text like any other, from the flag or the
# config; verify-main once ran the automatic progression on it
@pytest.mark.parametrize("source", ["flag", "config"])
def test_verify_main_empty_g_exits_2(capsys, tmp_path, source):
    ff = run_cli(capsys, "verify-ff", "--q", "5", "--A", "{1, 4}", "--G", "",
                 "--epsilon", "1/6", "--delta", "1/2")
    assert ff[:2] == (2, "") and "progression text must start with 'ggp'" in ff[2]
    argv = ["verify-main", "--A", "{1, 2}", "--delta", "1/2"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"G": ""}))
    argv += ["--G", ""] if source == "flag" else ["--config", str(cfg)]
    assert run_cli(capsys, *argv) == ff


SKEW_AT_ONE = (2, "", "error: --skew-e has no effect when g1 = 1\n")


@st.composite
def _runs_at_g1_one(draw):
    """A verify-main or verify-ff --A run whose G starts at g1 = g0**r0 = 1:
    r0 = 0 over Q, or no --G, whose automatic progression starts at 2**0;
    r0 a multiple of ord(g0) over F_q."""
    gens = draw(st.lists(st.integers(-20, 20), min_size=1, max_size=3))
    lens = [draw(st.integers(3, 6)) for _ in gens]
    gap = f"{','.join(map(str, gens))};{','.join(map(str, lens))}"
    if draw(st.booleans()):
        q = draw(st.sampled_from([5, 7, 11, 13, 101]))
        g0 = draw(st.integers(2, q - 1))
        r0 = draw(st.integers(-2, 2)) * multiplicative_order(PrimeFieldElement(g0, q))
        return ("verify-ff", "--q", str(q), "--A", "{2, 3}", "--G",
                f"ggp {g0}; gap {r0};{gap}", "--epsilon", "1/6", "--delta", "1/2")
    A = draw(st.sampled_from([("--A", "{1, 2}"), ("--A", "{1/2, 3}"),
                              ("--random-A", "3")]))
    g0 = draw(st.sampled_from(["2", "3", "1/2", "3/2", "5/7"]))
    G = draw(st.sampled_from([(), ("--G", f"ggp {g0}; gap 0;{gap}")]))
    return ("verify-main", *A, *G, "--delta", "1/2")


# --skew-e scales one coordinate of E by g1, so at g1 = 1 it would change no
# byte; it exits 2 there from the flag and from the config
@settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_runs_at_g1_one())
def test_skew_e_refused_wherever_g1_is_one(capsys, tmp_path, argv):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"skew_e": True}))
    assert run_cli(capsys, *argv, "--skew-e") == SKEW_AT_ONE
    assert run_cli(capsys, *argv, "--config", str(cfg)) == SKEW_AT_ONE
