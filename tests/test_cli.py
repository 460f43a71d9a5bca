import json
import subprocess
import sys

import pytest

from shiftprod.cli import main


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
    assert lines[1] == "geometric-000,3,5,5,1,5,1,false,true"
    assert lines[2] == "geometric-001,4,7,7,1,7,1,false,true"


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
