import json
from pathlib import Path

import numpy as np
import pytest

from causalgame import pauli_text, w_beta, write_process
from causalgame.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_builtin_process(capsys):
    code, out, _ = run(capsys, "validate", "w_beta@0.75")
    assert code == 0
    assert out.strip() == "valid"


def test_validate_round_trips_a_written_file(capsys, tmp_path):
    path = tmp_path / "family.txt"
    write_process(w_beta(0.66), path, form="pauli")
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 0
    assert out.strip() == "valid"


def test_validate_names_the_forbidden_term(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("IIII 0.25\nIZII 0.05\n")
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 1
    assert "IZII" in out


def test_round_trip_preserves_an_invalid_verdict(capsys, tmp_path):
    original = tmp_path / "bad.txt"
    original.write_text("IIII 0.25\nIZII 0.05\n")
    copy = tmp_path / "copy.json"
    code, _, _ = run(
        capsys, "decompose", "--process", str(original), "--form", "dense", "--out", str(copy)
    )
    assert code == 0
    code, out, _ = run(capsys, "validate", str(copy))
    assert code == 1
    assert "IZII" in out


def test_validate_json_payload(capsys):
    code, out, _ = run(capsys, "validate", "w_ocb", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["is_valid"] is True
    assert payload["process"] == "w_ocb"
    assert payload["trace"] == pytest.approx(4.0, abs=1e-9)


def test_empty_and_missing_files_are_usage_errors(capsys, tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    code, _, err = run(capsys, "validate", str(empty))
    assert code == 2
    assert "empty" in err
    code, _, err = run(capsys, "validate", str(tmp_path / "absent.txt"))
    assert code == 2


def test_malformed_word_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "mal.txt"
    path.write_text("IIII 0.25\nQZII 0.05\n")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert "line 2" in err


def test_bad_builtin_names_are_usage_errors(capsys):
    for name in ("w_beta@0.4", "w_beta@abc", "mix@1.2"):
        code, _, err = run(capsys, "validate", name)
        assert code == 2, name
        assert "process" in err


def test_tol_flag_relaxes_validation(capsys, tmp_path):
    # Weights slightly over unit norm: invalid by default, fine at 1e-3.
    path = tmp_path / "dented.txt"
    path.write_text("IIII 0.25\nIZZI 0.177\nZIXZ 0.177\n")
    code, _, _ = run(capsys, "validate", str(path))
    assert code == 1
    code, _, _ = run(capsys, "validate", str(path), "--tol", "1e-3")
    assert code == 0


def test_game_reports_table_and_score(capsys):
    code, out, _ = run(capsys, "game", "--process", "w_ocb")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,y,a,b,bprime,p"
    score = float(lines[-2].split()[1])
    assert score == pytest.approx(0.5 * (1 + 2**-0.5), abs=1e-9)
    bound = float(lines[-1].split()[1])
    assert bound == pytest.approx(0.75, abs=1e-12)


def test_game_ordered_process_respects_the_bound(capsys):
    code, out, _ = run(capsys, "game", "--process", "ordered_ab")
    assert code == 0
    score = float(out.splitlines()[-2].split()[1])
    assert score <= 0.75 + 1e-9


def test_game_rejects_invalid_processes(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("IIII 0.25\nIZII 0.05\n")
    code, _, err = run(capsys, "game", "--process", str(path))
    assert code == 1
    assert "INVALID" in err


def test_game_t_vector_must_be_a_unit_vector(capsys):
    code, _, err = run(capsys, "game", "--process", "w_ocb", "--t-vector", "1", "1", "0")
    assert code == 2


def test_sweep_beta_csv_contract(capsys, tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    for target in (out_a, out_b):
        code, _, _ = run(
            capsys, "sweep-beta", "--from", "0.5", "--to", "0.9", "--steps", "9",
            "--out", str(target),
        )
        assert code == 0
    raw = out_a.read_bytes()
    assert raw == out_b.read_bytes()  # identical runs, identical bytes
    assert b"\r" not in raw
    lines = raw.decode().splitlines()
    assert lines[0] == "beta,p_succ_w_beta,causal_bound,analytic_max,gap"
    rows = [[float(c) for c in line.split(",")] for line in lines[1:]]
    assert len(rows) == 9
    gaps = [row[4] for row in rows]
    assert all(g > 0 for g in gaps)
    assert all(b - a < 0 for a, b in zip(gaps, gaps[1:]))


def test_sweep_beta_range_is_checked(capsys):
    code, _, err = run(capsys, "sweep-beta", "--from", "0.9", "--to", "0.5", "--steps", "5")
    assert code == 2
    assert "steps" in err or "from" in err


def test_oracle_value(capsys):
    code, out, _ = run(capsys, "oracle", "--alpha", "0.6", "--beta", "0.7")
    assert code == 0
    assert out.strip() == "0.88"


def test_witness_value(capsys):
    code, out, _ = run(capsys, "witness", "--process", "w_beta@0.5")
    assert code == 0
    assert float(out) == pytest.approx(1 - 2**0.5, abs=1e-9)


def test_decompose_pauli_lists_terms(capsys):
    code, out, _ = run(capsys, "decompose", "--process", "w_ocb")
    assert code == 0
    assert "IZZI" in out and "ZIXZ" in out


def test_decompose_dense_writes_json(capsys, tmp_path):
    target = tmp_path / "proc.json"
    code, _, _ = run(
        capsys, "decompose", "--process", "mix@0.25", "--form", "dense", "--out", str(target)
    )
    assert code == 0
    payload = json.loads(target.read_text())
    assert payload["dimension"] == 16
    assert payload["tag"] == "mix@0.25"


def test_optimize_dbit_text_output(capsys):
    code, out, _ = run(
        capsys, "optimize", "--mode", "dbit", "--process", "w_ocb",
        "--restarts", "4", "--max-iters", "600",
    )
    assert code == 0
    value = float(out)
    assert 0.85 <= value <= 0.5 * (1 + 2**-0.5) + 1e-7


def test_optimize_ibit_json_is_seed_stable(capsys):
    argv = [
        "optimize", "--mode", "ibit", "--alpha", "0.8", "--restarts", "4",
        "--max-iters", "600", "--seed", "11", "--json",
    ]
    code, first, _ = run(capsys, *argv)
    assert code == 0
    code, second, _ = run(capsys, *argv)
    assert first == second
    payload = json.loads(first)
    assert payload["feasible"] is True
    assert len(payload["coefficients"]) == 6
    assert np.linalg.norm(payload["axis"]) == pytest.approx(1.0, abs=1e-9)
    assert payload["converged"] is True
    assert payload["iterations"] < 600


def test_optimize_dbit_json_reports_convergence(capsys):
    argv = ["optimize", "--mode", "dbit", "--process", "w_ocb", "--restarts", "4", "--max-iters", "600"]
    code, text, _ = run(capsys, *argv)
    assert code == 0
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    payload = json.loads(out)
    assert text == f"{payload['value']:.9g}\n"
    assert isinstance(payload["iterations"], int) and 0 < payload["iterations"] <= 600
    assert payload["converged"] is (payload["iterations"] < 600)
    assert payload["gap"] == max(payload["upper_bound"] - payload["value"], 0.0)
    assert 0.0 <= payload["gap"] <= 1e-12


def test_readme_ibit_json_reaches_the_family_ceiling(capsys):
    code, out, _ = run(capsys, "optimize", "--mode", "ibit", "--alpha", "0.8", "--json")
    assert code == 0
    payload = json.loads(out)
    ceiling = 0.25 * (2.0 + np.sqrt(2.0))
    assert abs(payload["value"] - ceiling) <= 1e-12
    assert payload["upper_bound"] == pytest.approx(ceiling, abs=1e-15)
    assert 0.0 <= payload["gap"] <= 1e-12
    assert payload["iterations"] == 3
    assert payload["converged"] is True


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2


GOLDEN = Path(__file__).resolve().parent / "golden"

# The README's command-line examples with plain output, each pinned to its
# exact bytes: stdout, or the written file for the --out examples.
README_EXAMPLES = [
    ("validate_w_beta.txt", ["validate", "w_beta@0.75"], None),
    ("game_w_ocb.txt", ["game", "--process", "w_ocb", "--alpha", "0.5", "--beta", "0.5"], None),
    ("game_ordered_ab.txt", ["game", "--process", "ordered_ab"], None),
    ("game_w_ocb_z.txt", ["game", "--process", "w_ocb", "--t-vector", "0", "0", "1"], None),
    ("sweep_beta.csv", ["sweep-beta", "--from", "0.5", "--to", "0.99", "--steps", "50"], "sweep.csv"),
    ("oracle.txt", ["oracle", "--alpha", "0.6", "--beta", "0.7"], None),
    ("witness.txt", ["witness", "--process", "w_beta@0.5"], None),
    ("decompose_w_ocb.txt", ["decompose", "--process", "w_ocb"], None),
    ("decompose_mix.json", ["decompose", "--process", "mix@0.3", "--form", "dense"], "mix.json"),
    ("optimize_dbit.txt", ["optimize", "--mode", "dbit", "--process", "w_beta@0.75", "--beta", "0.75"], None),
    ("threshold.txt", ["threshold"], None),
]


@pytest.mark.parametrize("golden, argv, out", README_EXAMPLES, ids=[c[0] for c in README_EXAMPLES])
def test_readme_examples_print_golden_bytes(capsys, tmp_path, golden, argv, out):
    if out:
        argv = [*argv, "--out", str(tmp_path / out)]
    code, stdout, _ = run(capsys, *argv)
    assert code == 0
    if out:
        assert stdout == ""
        produced = (tmp_path / out).read_bytes()
    else:
        produced = stdout.encode()
    assert produced == (GOLDEN / golden).read_bytes()


def test_non_finite_t_vector_is_a_usage_error(capsys):
    code, out, err = run(capsys, "game", "--process", "w_ocb", "--t-vector", "nan", "0", "0")
    assert code == 2
    assert out == ""
    assert "unit vector" in err


@pytest.mark.parametrize("tol", ["nan", "inf", "-0.001"])
def test_non_finite_or_negative_tol_is_a_usage_error(capsys, tmp_path, tol):
    # Trace 4.8 and eigenvalue -0.6: invalid at any meaningful tolerance.
    path = tmp_path / "bad.txt"
    path.write_text("IIII 0.3\nIZZI 0.9\n")
    with pytest.raises(SystemExit) as excinfo:
        main(["validate", str(path), "--tol", tol])
    assert excinfo.value.code == 2
    assert "valid" not in capsys.readouterr().out


def test_json_output_refuses_non_finite_numbers(capsys, monkeypatch):
    from causalgame import cli

    monkeypatch.setattr(cli, "oracle_bound", lambda spec: float("nan"))
    code, out, err = run(capsys, "oracle", "--alpha", "0.6", "--beta", "0.7", "--json")
    assert code == 2
    assert out == ""
    assert "JSON" in err
