import json
import re
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from causalgame import ProcessMatrix, dense_text, pauli_text, read_process, w_beta, w_ocb
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
    path.write_text(pauli_text(w_beta(0.66)), encoding="utf-8", newline="\n")
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


def test_a_large_hermitian_file_is_invalid_and_decomposes(capsys, tmp_path):
    # Exactly Hermitian, with entries near 1e6 whose Pauli coefficient sums
    # round to imaginary parts near 1e-10: a verdict (exit 1), not a usage error.
    rng = np.random.default_rng(1)
    a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    matrix = (a + a.conj().T) / 2 * 1e6
    path, written = tmp_path / "large.json", tmp_path / "large.txt"
    path.write_text(dense_text(ProcessMatrix(matrix)))
    code, out, err = run(capsys, "validate", str(path))
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert lines[0] == "INVALID"
    assert lines[1].startswith("  not positive semidefinite: minimum eigenvalue ")
    assert lines[2].startswith("  trace ")
    code, _, err = run(capsys, "decompose", "--process", str(path), "--form", "pauli", "--out", str(written))
    assert (code, err) == (0, "")
    npt.assert_allclose(read_process(written).matrix, matrix, rtol=0, atol=1e-6)


def test_decompose_refuses_a_file_whose_pauli_coefficients_overflow(capsys, tmp_path):
    matrix = np.eye(16, dtype=complex) / 4
    matrix[0, 1] = matrix[1, 0] = 1.5e308
    path, written = tmp_path / "huge.json", tmp_path / "huge.txt"
    path.write_text(dense_text(ProcessMatrix(matrix)))
    code, out, err = run(capsys, "decompose", "--process", str(path), "--form", "pauli", "--out", str(written))
    assert (code, out) == (2, "")
    assert err == "error: Pauli coefficients overflow: matrix entries are too large\n"
    assert not written.exists()


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


def test_malformed_dense_documents_are_usage_errors(capsys, tmp_path):
    path = tmp_path / "bad.json"
    for document in (
        {"dimension": 16, "layout": 5, "entries": []},
        {"dimension": 16.0, "layout": ["A_I", "A_O", "B_I", "B_O"], "entries": [[0.0, 0.0]] * 256},
        {"dimension": 16, "layout": ["A_I", "A_O", "B_I", "B_O"], "entries": [[[0.0, 0.0]]] * 256},
    ):
        path.write_text(json.dumps(document))
        code, out, err = run(capsys, "validate", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"error: malformed process file {str(path)!r}: ")
        assert "Traceback" not in err


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


def test_witness_refuses_an_invalid_process(capsys, tmp_path):
    # Eigenvalue -1 and trace 4: validate calls it INVALID, so no witness value.
    path = tmp_path / "bad.txt"
    path.write_text("IIII 0.25\nZZZZ 0.5\n")
    code, out, err = run(capsys, "witness", "--process", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("INVALID process: not positive semidefinite")


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep-beta", "--from", "0.5", "--to", "0.9", "--steps", "5"],
        ["decompose", "--process", "w_ocb"],
    ],
    ids=["sweep-beta", "decompose"],
)
def test_unwritable_out_is_a_usage_error(capsys, tmp_path, argv):
    target = tmp_path / "missing" / "out.txt"
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {str(target)!r}: ")
    assert err.count("\n") == 1


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
        "--restarts", "4",
    )
    assert code == 0
    value = float(out)
    assert 0.85 <= value <= 0.5 * (1 + 2**-0.5) + 1e-7


def test_optimize_ibit_json_is_seed_stable(capsys):
    argv = [
        "optimize", "--mode", "ibit", "--alpha", "0.8", "--restarts", "4",
        "--seed", "11", "--json",
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
    argv = ["optimize", "--mode", "dbit", "--process", "w_ocb", "--restarts", "4"]
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
    ("optimize_ibit.json", ["optimize", "--mode", "ibit", "--alpha", "0.8", "--json"], None),
    (
        "optimize_dbit.json",
        ["optimize", "--mode", "dbit", "--process", "w_beta@0.75", "--beta", "0.75", "--json"],
        None,
    ),
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


# Both --out examples print to stdout exactly the bytes they write.
OUT_EXAMPLES = [case for case in README_EXAMPLES if case[2]]


@pytest.mark.parametrize("golden, argv, out", OUT_EXAMPLES, ids=[c[0] for c in OUT_EXAMPLES])
def test_without_out_stdout_holds_the_written_bytes(capsys, golden, argv, out):
    code, stdout, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert stdout.encode() == (GOLDEN / golden).read_bytes()


@pytest.fixture
def forbidden(tmp_path, monkeypatch):
    """A process file with one forbidden term, named relative to the working directory."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "forbidden.txt").write_text("IIII 0.25\nIZII 0.05\n")
    return "forbidden.txt"


# JSON payloads and the validate verdict on a forbidden term, each pinned
# to its exact stdout bytes and exit code.
PINNED_EXAMPLES = [
    ("validate_w_ocb.json", ["validate", "w_ocb", "--json"], 0),
    ("validate_forbidden.txt", ["validate", "forbidden.txt"], 1),
    ("validate_forbidden.json", ["validate", "forbidden.txt", "--json"], 1),
    ("oracle.json", ["oracle", "--alpha", "0.6", "--beta", "0.7", "--json"], 0),
    ("witness.json", ["witness", "--process", "w_beta@0.5", "--json"], 0),
    ("threshold.json", ["threshold", "--json"], 0),
]


@pytest.mark.parametrize("golden, argv, exit_code", PINNED_EXAMPLES, ids=[c[0] for c in PINNED_EXAMPLES])
def test_outputs_print_golden_bytes(capsys, forbidden, golden, argv, exit_code):
    code, stdout, err = run(capsys, *argv)
    assert (code, err) == (exit_code, "")
    assert stdout.encode() == (GOLDEN / golden).read_bytes()


@pytest.mark.parametrize(
    "argv",
    [["game"], ["optimize", "--mode", "dbit"], ["witness"]],
    ids=["game", "optimize", "witness"],
)
def test_json_refusal_prints_nothing_on_stdout(capsys, forbidden, argv):
    code, out, err = run(capsys, *argv, "--process", forbidden, "--json")
    assert (code, out) == (1, "")
    assert err == "INVALID process: forbidden terms present: IZII=0.05\n"


# ``game --json`` prints every table entry at full float precision, so these
# pin the Born table to the last bit where the plain goldens show 9 digits.
GAME_JSON_EXAMPLES = [
    ("game_w_ocb.json", ["game", "--process", "w_ocb", "--json"]),
    (
        "game_w_beta_t.json",
        ["game", "--process", "w_beta@0.75", "--alpha", "0.7", "--t-vector", "0.6", "0", "0.8", "--json"],
    ),
]


@pytest.mark.parametrize("golden, argv", GAME_JSON_EXAMPLES, ids=[c[0] for c in GAME_JSON_EXAMPLES])
def test_game_json_prints_golden_bytes(capsys, golden, argv):
    code, stdout, _ = run(capsys, *argv)
    assert code == 0
    assert stdout.encode() == (GOLDEN / golden).read_bytes()


def test_non_finite_t_vector_is_a_usage_error(capsys):
    code, out, err = run(capsys, "game", "--process", "w_ocb", "--t-vector", "nan", "0", "0")
    assert code == 2
    assert out == ""
    assert "unit vector" in err


@pytest.mark.parametrize("tol", ["nan", "inf", "-0.001", "abc"])
def test_non_finite_or_negative_tol_is_a_usage_error(capsys, tmp_path, tol):
    # Trace 4.8 and eigenvalue -0.6: invalid at any meaningful tolerance.
    path = tmp_path / "bad.txt"
    path.write_text("IIII 0.3\nIZZI 0.9\n")
    with pytest.raises(SystemExit) as excinfo:
        main(["validate", str(path), "--tol", tol])
    assert excinfo.value.code == 2
    assert "valid" not in capsys.readouterr().out


def test_json_output_refuses_non_finite_numbers(capsys, monkeypatch):
    from causalgame import oracle

    monkeypatch.setattr(oracle, "oracle_bound", lambda spec: float("nan"))
    code, out, err = run(capsys, "oracle", "--alpha", "0.6", "--beta", "0.7", "--json")
    assert code == 2
    assert out == ""
    assert "JSON" in err


@pytest.mark.parametrize("zero_atol", ["nan", "inf", "-1e-12"])
def test_non_finite_or_negative_zero_atol_is_a_usage_error(capsys, zero_atol):
    # A nan threshold used to drop every term and write an unreadable file.
    with pytest.raises(SystemExit) as excinfo:
        main(["decompose", "--process", "w_ocb", "--zero-atol", zero_atol])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--zero-atol" in captured.err


def test_huge_t_vector_is_named_in_the_error(capsys):
    code, out, err = run(capsys, "game", "--process", "w_ocb", "--t-vector", "1e200", "1e200", "0")
    assert code == 2
    assert out == ""
    assert "t must be a unit vector" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep-beta", "--from", "0.5", "--to", "0.9", "--steps", "5", "--json"],
        ["oracle", "--alpha", "0.6", "--beta", "0.7", "--tol", "1"],
        ["witness", "--process", "w_ocb", "--seed", "1"],
        # The dbit search validates at the default tolerances, so optimize
        # takes no --tol in either mode.
        ["optimize", "--mode", "dbit", "--tol", "5"],
        ["optimize", "--mode", "ibit", "--tol", "5"],
        # The sweep cap is a constant, not an option.
        ["optimize", "--mode", "dbit", "--max-iters", "5"],
    ],
)
def test_subcommands_refuse_flags_they_do_not_read(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "mode, flag",
    [
        ("ibit", ["--process", "/nonexistent.txt"]),
        ("ibit", ["--beta", "0.99"]),
        ("dbit", ["--alpha", "0.9"]),
    ],
)
def test_optimize_refuses_flags_its_mode_does_not_read(capsys, mode, flag):
    code, out, err = run(capsys, "optimize", "--mode", mode, *flag)
    assert code == 2
    assert out == ""
    assert f"{flag[0]} is not read by --mode {mode}" in err


def test_optimize_defaults_stand_in_for_omitted_mode_flags(capsys):
    _, omitted, _ = run(capsys, "optimize", "--mode", "dbit", "--restarts", "2", "--json")
    _, given, _ = run(
        capsys, "optimize", "--mode", "dbit", "--restarts", "2", "--json",
        "--process", "w_ocb", "--beta", "0.5",
    )
    assert omitted == given
    assert json.loads(omitted)["beta"] == 0.5
    _, omitted, _ = run(capsys, "optimize", "--mode", "ibit", "--restarts", "2", "--json")
    _, given, _ = run(capsys, "optimize", "--mode", "ibit", "--restarts", "2", "--json", "--alpha", "0.5")
    assert omitted == given
    assert json.loads(omitted)["alpha"] == 0.5


def test_numpy_overflow_is_a_single_error_line(capsys, tmp_path):
    # The trace of this matrix overflows inside numpy; its RuntimeWarning
    # must not leak to stderr ahead of the error.
    path = tmp_path / "huge.txt"
    path.write_text("IIII 1e308\nIIZI 1e308\n")
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "overflow" in err
    assert err.count("\n") == 1


def test_numpy_overflow_names_the_process_file(capsys, tmp_path):
    path = tmp_path / "huge.txt"
    path.write_text("IIII 1e308\nIIZI 1e308\n")
    code, _, err = run(capsys, "game", "--process", str(path))
    assert code == 2
    assert err.startswith(f"error: malformed process file {str(path)!r}: ") and "overflow" in err


def test_readme_python_tour_runs():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    assert blocks, "README has no Python example"
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


@pytest.mark.parametrize("key", ["tag", "entries"])
def test_validate_refuses_a_two_line_tag_or_a_boolean_entry(capsys, tmp_path, key):
    payload = json.loads(dense_text(w_ocb()))
    if key == "tag":
        payload["tag"], message = "lab run 7\nZIII 0.05", "tag must be one line"
    else:
        payload["entries"][0], message = [True, False], "entry 0 is not a [real, imag] pair"
    path = tmp_path / "w.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out) == (2, "")
    assert message in err
    if key == "entries":  # named as the JSON the user wrote, not as a Python repr
        assert err.endswith("pair: [true, false]\n")


@pytest.mark.parametrize("command", [["optimize", "--mode", "ibit"], ["threshold"]])
def test_a_negative_seed_is_a_usage_error(capsys, command):
    code, out, err = run(capsys, *command, "--seed", "-1")
    assert (code, out) == (2, "")
    assert err == "error: seed must be a non-negative integer, got -1\n"
