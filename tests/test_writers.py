"""The two JSON writers of the command line against the stdlib encoder.

``cli.dump_report`` and ``cli.dump_document`` must write what
``json.dumps(obj, sort_keys=True, separators=(",", ":"))`` writes, byte for
byte, on real reports and documents and on made-up ones; the report is
the stdlib's own text, and the document writer reaches every fallback.
"""
import enum
import json
from pathlib import Path

import numpy as np
import pytest

from qybe import RATIONAL, DeformationParameter, assemble_R
from qybe import cli


def _compact_reference(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _written_report(tmp_path, *argv) -> str:
    """The text of the report that ``qybe verify ... --json`` writes; the
    command must pass."""
    path = tmp_path / "report.json"
    assert cli.main(["verify", *argv, "--json", str(path)]) == 0
    return path.read_text(encoding="utf-8")


@pytest.mark.parametrize("samples", [1, 5, 17])
def test_the_report_of_verify_all_is_the_stdlib_text(samples, tmp_path):
    for seed in range(12):
        text = _written_report(tmp_path, "all", "--samples", str(samples), "--seed", str(seed))
        assert text == _compact_reference(json.loads(text))


@pytest.mark.parametrize("order", [3, 7, 19])
def test_the_report_of_verify_cyclic_is_the_stdlib_text(order, tmp_path):
    text = _written_report(tmp_path, "cyclic", "--N", str(order), "--seed", "7")
    assert text == _compact_reference(json.loads(text))


class _Level(enum.IntEnum):
    LOW = 1


class _Float(float):
    def __repr__(self):
        return "not json"


class _Key(str):
    pass


SHARED = {"q": [0.25, -0.0], "u": [1e-300, 1.5e300], "on_circle": False}

MADE_UP = [
    {"reports": [{"identity_id": "x", "max_residual": value, "samples": [SHARED]}]}
    for value in (float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324, 1e16)
] + [
    {"reports": [{"samples": [SHARED], "seed": None, "ok": True},
                 {"samples": [SHARED, SHARED], "seed": 3, "ok": False}]},
    {"empty_list": [], "empty_dict": {}, "nested": [[], [{}], [[1, 2.5]]], "null": None},
    {"text": "é☃ \"quoted\"\n\ttab\\", "big": 10**30, "neg": -7},
    # non-string keys, tuples, subclasses, numpy scalars
    {"keys": {1: "int key", 2.5: "float key"}, "none": {None: 0}, "bool": {False: 1}},
    {"subclass key": {_Key("k"): 1.5}},
    {"tuple": (1.0, [2.0, (3,)]), "level": _Level.LOW, "sub": _Float(0.5)},
    {"np": [np.float64(0.1), np.float64(-0.0)], "nan_list": [float("nan"), float("inf")]},
    [SHARED, [SHARED], {"again": SHARED}],
    "a bare string", 3.25, None,
]


@pytest.mark.parametrize("payload", MADE_UP)
def test_a_made_up_report_is_the_stdlib_text(payload):
    assert cli.dump_report(payload) == _compact_reference(payload)


def test_a_payload_that_json_rejects_is_rejected():
    with pytest.raises(TypeError, match="not JSON serializable"):
        cli.dump_report({"reports": [{"samples": [{1, 2}]}]})


SPINS = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)


@pytest.mark.parametrize("ell1", SPINS)
def test_the_documents_of_rmatrix_are_the_stdlib_text(ell1):
    q = DeformationParameter.generic(0.3 + 0.4j)
    for ell2 in SPINS:
        for point, basis in ((q, "orthonormal"), (q, "monomial"), (RATIONAL, "monomial")):
            rm = assemble_R(ell1, ell2, 0.3 + 0.2j, point, basis=basis)
            doc = cli.matrix_document(rm.matrix, {"spins": [ell1, ell2], "mode": rm.mode,
                                                  "basis_tag": rm.basis_tag})
            assert cli._entries_text(doc["entries"]) is not None
            assert cli.dump_document(doc) == _compact_reference(doc)


@pytest.mark.parametrize("argv", [
    ["--ell", "0", "--q", "0.3+0.4i"],
    ["--ell", "3/2", "--q", "0.3+0.4i", "--basis", "orthonormal"],
    ["--ell", "6", "--q", "0.3+0.4i"],
    ["--cyclic", "--N", "5", "--alpha", "0.2+0.1i", "--beta", "-0.4", "--lam", "0.3i"],
    ["--cyclic", "--N", "19"],
])
def test_the_documents_of_rep_are_the_stdlib_text(argv, tmp_path):
    assert cli.main(["rep", *argv, "--out", str(tmp_path)]) == 0
    for path in sorted(Path(tmp_path).glob("*.json")):
        text = path.read_text(encoding="utf-8")
        assert _compact_reference(json.loads(text)) == text


def _doc(entries, dims=(1, 1)):
    return {"dims": list(dims), "entries": entries, "metadata": {"k": [1, 2.5]}}


@pytest.mark.parametrize("entries", [
    [[float("nan"), 0.0]], [[0.0, float("inf")]], [[float("-inf"), 1.5]],
    [[0, 0]], [[0.0, 0]], [[1, 2.5]], [[False, 0.0]], [[True, 1.0]], [["0.0", 0.0]],
    [[None, 0.0]], [[0.0]], [[]], [[0.0, 0.0, 0.0]], [(0.0, 0.0)], [[0.0, [0.0]]],
    [{0.5: "a", 1.5: "b"}], [], [0.0],
])
def test_entries_that_are_no_finite_float_pairs_go_through_json(entries):
    assert cli._entries_text(entries) is None
    doc = _doc(entries)
    assert cli.dump_document(doc) == _compact_reference(doc)


@pytest.mark.parametrize("entries,zeros", [
    ([[-0.0, 0.0]], 0), ([[0.0, -0.0]], 0), ([[-0.0, -0.0]], 0), ([[1.5, -0.0]], 0),
    ([[0.0, 0.0], [-0.0, 2.0], [0.0, 0.0]], 2),
    # float subclasses are written by float.__repr__, as json writes them
    ([[np.float64(-0.0), 0.0], [np.float64(0.1), 2.5]], 0),
    ([[_Float(1.5), _Float(0.0)]], 0),
])
def test_only_a_pair_of_positive_zero_floats_is_the_constant(entries, zeros):
    """A -0.0, or a float subclass, is written by float.__repr__, as json
    writes it; only a pair of +0.0 floats is the constant entry."""
    assert cli._entries_text(entries).count(cli._ZERO_ENTRY) == zeros
    doc = _doc(entries)
    assert cli.dump_document(doc) == _compact_reference(doc)


@pytest.mark.parametrize("doc", [
    {"entries": [[0.0, 0.0]], _Key("dims"): [1, 1]},
    {"entries": [[0.0, 0.0]]},
    {"a": {"entries": []}, "entries": [[0.5, 0.0]], "z": [-0.0, float("nan")]},
    {"dims": [1, 1], "entries": "not a list"},
    {"dims": [1, 1]},
    [["not", "a", "dict"]],
])
def test_an_unusual_document_is_the_stdlib_text(doc):
    assert cli.dump_document(doc) == _compact_reference(doc)
