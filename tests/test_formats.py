import json

import numpy as np
import numpy.testing as npt
import pytest

from causalgame import (
    ProcessMatrix,
    causal_mixture,
    dense_text,
    ordered_identity_channel_process,
    parse_process,
    pauli_decompose,
    pauli_text,
    read_process,
    validate,
    w_beta,
    w_ocb,
)


def test_dense_round_trip_is_exact():
    w = w_beta(0.62)
    clone = parse_process(dense_text(w))
    npt.assert_array_equal(clone.matrix, w.matrix)
    assert clone.tag == w.tag


def test_dense_text_is_json():
    payload = json.loads(dense_text(w_ocb()))
    assert payload["dimension"] == 16
    assert payload["layout"] == ["A_I", "A_O", "B_I", "B_O"]
    assert len(payload["entries"]) == 256


def test_pauli_round_trip_is_exact_at_working_precision():
    w = w_beta(0.62)
    clone = parse_process(pauli_text(w))
    npt.assert_allclose(clone.matrix, w.matrix, atol=1e-14)
    assert clone.tag == w.tag
    assert validate(clone).is_valid


def test_pauli_text_lists_the_sparse_terms():
    lines = pauli_text(w_ocb(), zero_atol=1e-12).splitlines()
    assert lines[0] == "# tag: w_ocb"
    words = {line.split()[0] for line in lines[1:]}
    assert words == {"IIII", "IZZI", "ZIXZ"}


def test_pauli_zero_atol_prunes_float_dust():
    w = causal_mixture(
        ordered_identity_channel_process("b_to_a"),
        ordered_identity_channel_process("a_to_b"),
        0.5,
    )
    pruned = pauli_text(w, zero_atol=1e-12)
    assert len(pruned.splitlines()) == 8  # tag and the seven true terms


@pytest.mark.parametrize("zero_atol", [float("nan"), float("inf"), -1.0])
def test_non_finite_or_negative_zero_atol_is_refused(zero_atol):
    # A nan threshold used to drop every term, leaving text no parser reads.
    with pytest.raises(ValueError, match="zero_atol"):
        pauli_decompose(w_ocb().matrix, zero_atol=zero_atol)
    with pytest.raises(ValueError, match="zero_atol"):
        pauli_text(w_ocb(), zero_atol=zero_atol)


@pytest.mark.parametrize("zero_atol", [True, np.True_, False])
def test_bool_zero_atol_is_refused(zero_atol):
    # True read as 1.0 wrote only the tag line, a file parse_process refuses.
    with pytest.raises(ValueError, match="zero_atol must be a number, got the bool"):
        pauli_text(w_beta(0.7), zero_atol=zero_atol)


def test_format_detection_by_leading_brace():
    w = w_ocb()
    assert parse_process(dense_text(w)).tag == "w_ocb"
    assert parse_process(pauli_text(w)).tag == "w_ocb"


def test_file_round_trip_both_forms(tmp_path):
    w = w_beta(0.8)
    for form, write in (("dense", dense_text), ("pauli", pauli_text)):
        path = tmp_path / f"process.{form}"
        path.write_text(write(w), encoding="utf-8", newline="\n")
        raw = path.read_bytes()
        assert b"\r" not in raw
        clone = read_process(path)
        npt.assert_allclose(clone.matrix, w.matrix, atol=1e-14)
        assert clone.tag == w.tag


def test_empty_input_is_rejected():
    with pytest.raises(ValueError, match="empty"):
        parse_process("")
    with pytest.raises(ValueError, match="no Pauli terms"):
        parse_process("# tag: nothing\n# just comments\n")


def test_dense_parser_refuses_a_document_that_is_not_an_object(tmp_path):
    # Only text starting with '{' goes to the dense reader, which JSON reads as an
    # object or refuses; any other JSON document falls to the Pauli reader and fails there.
    with pytest.raises(ValueError, match="^malformed dense process file: "):
        parse_process('{"dimension": 16] ')
    for text, message in [
        ("[1, 2]", "^line 1: Pauli word must be 4 characters over IXYZ, got '\\[1,'$"),
        ("5", "^line 1: expected 'WORD coefficient', got '5'$"),
        ("null", "^line 1: expected 'WORD coefficient', got 'null'$"),
        ('"x"', "^line 1: expected 'WORD coefficient', got '\"x\"'$"),
    ]:
        with pytest.raises(ValueError, match=message):
            parse_process(text)
        path = tmp_path / "process.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=message):
            read_process(path)


def test_pauli_parse_skips_blank_lines_and_still_counts_them():
    spaced = parse_process("\nIIII 0.25\n\n   \nIZZI 0.1\n\n")
    assert spaced.matrix.tobytes() == parse_process("IIII 0.25\nIZZI 0.1\n").matrix.tobytes()
    with pytest.raises(ValueError, match="^line 3: "):
        parse_process("IIII 0.25\n\nIZZI\n")


def test_pauli_parse_errors_carry_line_numbers():
    with pytest.raises(ValueError, match="line 2"):
        parse_process("IIII 0.25\nIZZI\n")
    with pytest.raises(ValueError, match="IXYZ"):
        parse_process("QIII 0.25\n")
    with pytest.raises(ValueError, match="duplicate"):
        parse_process("IIII 0.25\nIIII 0.25\n")
    with pytest.raises(ValueError, match="coefficient"):
        parse_process("IIII quarter\n")


def test_dense_parse_errors():
    good = json.loads(dense_text(w_ocb()))

    bad = dict(good)
    bad["dimension"] = 8
    with pytest.raises(ValueError, match="dimension"):
        parse_process(json.dumps(bad))

    bad = dict(good)
    bad["layout"] = ["A", "B", "C", "D"]
    with pytest.raises(ValueError, match="layout"):
        parse_process(json.dumps(bad))

    bad = dict(good)
    bad["entries"] = good["entries"][:-1]
    with pytest.raises(ValueError, match="entries"):
        parse_process(json.dumps(bad))

    bad = dict(good)
    del bad["entries"]
    with pytest.raises(ValueError):
        parse_process(json.dumps(bad))

    with pytest.raises(ValueError):
        parse_process("{not json")


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("dimension", 16.0, "dimension must be 16, got 16.0"),
        ("layout", 5, "unsupported layout 5"),
        ("entries", 5, "entries must be a list, got 5"),
        ("entries", [[[0.25, 0.0]]] * 256, r"entry 0 is not a \[real, imag\] pair"),
        ("entries", [[[0.25], [0.0]]] * 256, r"entry 0 is not a \[real, imag\] pair"),
        ("tag", 5, "tag must be a string, got 5"),
    ],
)
def test_dense_parse_refuses_malformed_documents(key, value, message):
    payload = json.loads(dense_text(w_ocb()))
    payload[key] = value
    with pytest.raises(ValueError, match=message):
        parse_process(json.dumps(payload))


@pytest.mark.parametrize(
    "position, entry",
    [
        (0, [1.0]),
        (5, [1, 2, 3]),
        (17, "x"),
        (255, [[0.25, 0.0], [0.0, 0.0]]),
        (9, [None, 0.0]),
        (3, ["x", 0]),
        (7, [10**400, 0]),
        (0, [True, 0.0]),
    ],
)
def test_dense_parse_names_the_entry_that_is_not_a_pair(position, entry):
    payload = json.loads(dense_text(w_ocb()))
    payload["entries"][position] = entry
    with pytest.raises(ValueError, match=rf"^entry {position} is not a \[real, imag\] pair") as info:
        parse_process(json.dumps(payload))
    # named as the JSON the user wrote: [null, 0.0], not the Python repr [None, 0.0]
    assert str(info.value).endswith(f"pair: {json.dumps(entry)}")


@pytest.mark.parametrize(
    "position, entries",
    [
        (12, ["12"]),  # two characters, each a digit
        (30, [{"1": 0, "2": 0}]),  # two keys, each numeric
        (40, [[1, 2, 3], [4]]),  # the count of numbers still comes out at 512
    ],
)
def test_dense_parse_refuses_entries_that_flatten_to_the_right_count(position, entries):
    payload = json.loads(dense_text(w_ocb()))
    payload["entries"][position : position + len(entries)] = entries
    with pytest.raises(ValueError, match=rf"^entry {position} is not a \[real, imag\] pair") as info:
        parse_process(json.dumps(payload))
    assert str(info.value).endswith(f"pair: {json.dumps(entries[0])}")


def test_dense_parse_accepts_numeric_strings_and_ints():
    w = w_ocb()
    payload = json.loads(dense_text(w))
    payload["entries"] = [
        [repr(re), int(im)] if im == 0 else [repr(re), im] for re, im in payload["entries"]
    ]
    npt.assert_array_equal(parse_process(json.dumps(payload)).matrix, w.matrix)


def test_dense_parse_keeps_the_sign_of_zero():
    payload = json.loads(dense_text(w_ocb()))
    payload["entries"][1] = [-0.0, -0.0]
    payload["entries"][2] = [-0.0, 0.5]
    payload["entries"][3] = [0.5, -0.0]
    flat = parse_process(json.dumps(payload)).matrix.ravel()
    assert [np.signbit(flat[k].real) for k in (1, 2, 3)] == [True, True, False]
    assert [np.signbit(flat[k].imag) for k in (1, 2, 3)] == [True, False, True]


def test_dense_parse_refuses_false_for_every_zero():
    # float() reads false as 0.0: read as a number, this document is w_ocb.
    payload = json.loads(dense_text(w_ocb()))
    zero = [0.0, 0.0]
    first = payload["entries"].index(zero)
    payload["entries"] = [[False, False] if pair == zero else pair for pair in payload["entries"]]
    with pytest.raises(ValueError, match=rf"^entry {first} is not a \[real, imag\] pair"):
        parse_process(json.dumps(payload))


def test_dense_parse_reads_a_tag_that_spells_a_boolean():
    w = ProcessMatrix(w_ocb().matrix, tag="true, not false")
    clone = parse_process(dense_text(w))
    assert clone.tag == w.tag
    npt.assert_array_equal(clone.matrix, w.matrix)


def test_first_tag_comment_wins():
    text = "# tag: first\n# tag: second\nIIII 0.25\n"
    assert parse_process(text).tag == "first"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_pauli_text_rejects_non_finite_coefficients(value):
    with pytest.raises(ValueError, match="finite"):
        parse_process(f"IIII 0.25\nIZZI {value}\n")


def test_dense_text_rejects_non_finite_entries():
    payload = json.loads(dense_text(w_ocb()))
    payload["entries"][17] = [float("nan"), 0.0]
    with pytest.raises(ValueError, match="finite"):
        parse_process(json.dumps(payload))
