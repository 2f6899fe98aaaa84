"""What ``import causalgame`` and each CLI subcommand load, and the package namespace.

Each import case runs in a fresh interpreter, so modules earlier tests
loaded do not count.
"""

import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import causalgame

SRC = str(Path(causalgame.__file__).resolve().parents[1])

BASE = {"causalgame", "causalgame.cli", "causalgame.processes", "causalgame.tensor"}
FILES = BASE | {"causalgame.formats"}
SCORE = BASE | {"causalgame.game", "causalgame.instruments"}
ORACLE = BASE | {"causalgame.game", "causalgame.oracle", "causalgame.simplex"}

LOADED = "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'causalgame')))"

NAMES = [
    "CausalDecision", "DeterministicStrategy", "GameSpec", "JointDistribution", "LABELS",
    "NumericalIntegrityError", "ObservableSpec", "OptimizationResult", "OptimizerConfig", "PAULI",
    "PAULI_LABELS", "ProcessMatrix", "ValidityReport", "alice_general", "alice_z",
    "analytic_max_dbit", "bob_branch", "bob_general", "causal_bound", "causal_mixture",
    "dense_text", "enumerate_strategies", "is_causal", "joint_distribution", "maximize_ansatz",
    "maximize_instruments", "oracle_bound", "ordered_identity_channel_process", "parse_process",
    "pauli_compose", "pauli_decompose", "pauli_text", "read_process", "success_components",
    "success_probability", "term_label", "threshold_alpha", "validate", "w_ansatz", "w_beta",
    "w_beta_weights", "w_ocb", "witness_s", "witness_value",
]  # fmt: skip


def _fresh(code: str, cwd=None) -> str:
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run(
        [sys.executable, "-c", f"import json, sys\n{code}"],
        capture_output=True, text=True, check=True, env=env, cwd=cwd,
    )  # fmt: skip
    return done.stdout.splitlines()[-1]


def test_importing_the_package_loads_none_of_its_modules():
    assert json.loads(_fresh(f"import causalgame\n{LOADED}")) == ["causalgame"]


COMMANDS = [
    pytest.param(["validate", "w_ocb"], BASE, id="validate"),
    pytest.param(["validate", "w.json"], FILES, id="validate-file"),
    pytest.param(["witness", "--process", "w_ocb"], BASE, id="witness"),
    pytest.param(["decompose", "--process", "w_ocb", "--form", "dense", "--out", "out.json"], FILES, id="decompose"),
    pytest.param(["game", "--process", "w_beta@0.7", "--t-vector", "0.6", "0.8", "0"], SCORE, id="game"),
    pytest.param(["sweep-beta", "--from", "0.5", "--to", "0.9", "--steps", "3"], SCORE, id="sweep-beta"),
    pytest.param(["oracle", "--alpha", "0.6", "--beta", "0.7"], ORACLE, id="oracle"),
]


@pytest.mark.parametrize("argv, expected", COMMANDS)
def test_each_subcommand_loads_only_the_modules_it_runs(tmp_path, argv, expected):
    # formats loads only where a file is read or written.
    (tmp_path / "w.json").write_text(causalgame.dense_text(causalgame.w_ocb()), encoding="utf-8")
    run = (
        "import contextlib, io\nfrom causalgame import cli\n"
        f"with contextlib.redirect_stdout(io.StringIO()):\n    assert cli.main({argv!r}) == 0\n"
    )
    loaded = set(json.loads(_fresh(run + LOADED, cwd=tmp_path)))
    assert "causalgame.optimizer" not in loaded
    assert loaded == expected


def test_the_first_public_read_binds_every_name():
    code = "import causalgame as cg\ncg.w_ocb\nprint(all(n in vars(cg) for n in cg.__all__))"
    assert _fresh(code) == "True"


@pytest.mark.parametrize("name", NAMES)
def test_every_public_name_is_its_home_modules_object(name):
    value = getattr(causalgame, name)
    # The three constants, LABELS, PAULI and PAULI_LABELS, live in tensor.
    home = value.__module__ if inspect.isfunction(value) or inspect.isclass(value) else "causalgame.tensor"
    assert getattr(importlib.import_module(home), name) is value


def test_the_public_names_are_unchanged():
    assert sorted(causalgame.__all__) == NAMES  # 44 names, none twice


def test_dir_lists_every_public_name_before_any_is_bound():
    assert _fresh("import causalgame as cg\nprint(set(cg.__all__) <= set(dir(cg)))") == "True"


def test_star_import_binds_every_public_name():
    code = "from causalgame import *\nimport causalgame as cg\n"
    code += "print(all(globals()[n] is getattr(cg, n) for n in cg.__all__))"
    assert _fresh(code) == "True"


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'causalgame' has no attribute 'no_such_name'"):
        causalgame.no_such_name  # noqa: B018
