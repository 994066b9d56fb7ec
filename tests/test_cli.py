"""File format round-trips, golden fixtures, and command exit codes."""

import io
import json
import math
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mbflow.cli import (
    CategoryFile,
    _canonical_bytes,
    _decode,
    fixture_bytes,
    fixture_names,
    load_category_file,
    main,
    parse_bimodule,
    parse_category,
    serialize_bimodule,
    serialize_category,
)
from mbflow.errors import (
    MBFlowError,
    ParseError,
    SchemaError,
    ShapeMismatch,
    UnsupportedRing,
    ValidationError,
)
from mbflow.examples import (
    continuation_s2,
    fixture_registry,
    free_circle_borel,
    sphere_z2,
)
from mbflow import inequalities
from mbflow.flowcat import (
    BimoduleData,
    BorelMetadata,
    FlowCategoryData,
    category_homology,
    realize,
    validate_category,
)
from mbflow.homalg import ZZ, IntegerMatrix, PreceqVerdict
from mbflow.twisted import quotient_sequence


def fixture_path(name):
    import mbflow

    return f"{list(mbflow.__path__)[0]}/fixtures/{name}.json"


# ---------------------------------------------------------------------------
# round trips and golden files


def test_fixture_list_contains_registry():
    names = fixture_names()
    for name in fixture_registry():
        assert name in names
    assert "continuation_s2" in names


def test_shipped_fixtures_match_builders():
    # regenerating each category from its builder reproduces the
    # shipped bytes, oracle annotation included
    for name, build in fixture_registry().items():
        shipped = fixture_bytes(name)
        oracle = load_category_file(shipped).oracle
        assert serialize_category(build(), oracle) == shipped, name


def test_shipped_continuation_matches_builder():
    assert serialize_bimodule(continuation_s2()) == \
        fixture_bytes("continuation_s2")


def test_parse_serialize_round_trip():
    for name, build in fixture_registry().items():
        data = serialize_category(build())
        f = parse_category(data, validate=False)
        assert f == build(), name
        assert serialize_category(f) == data, name


def test_oracle_annotations_match_computed_homology():
    for name in fixture_registry():
        cf = load_category_file(fixture_bytes(name))
        expected = (cf.oracle or {}).get("expected_homology")
        if expected is None:
            assert name == "broken_mc"
            continue
        h = category_homology(cf.category)
        assert {str(n): r for n, r in sorted(h.free.items())} == \
            expected["free"], name
        assert {str(n): list(t) for n, t in
                sorted(h.torsion_factors.items())} == \
            expected["torsion"], name


def test_borel_metadata_round_trips():
    cf = load_category_file(fixture_bytes("borel_s2_rotation_3"))
    assert cf.category.borel == BorelMetadata(3, ("n", "s"))


def test_empty_category_file():
    data = serialize_category(FlowCategoryData(ZZ))
    f = parse_category(data)
    assert not f.objects
    assert category_homology(f).is_trivial()


def test_bimodule_round_trip():
    b = continuation_s2()
    data = serialize_bimodule(b)
    again = parse_bimodule(data, b.source, b.target)
    assert again == b


# JSON values as json.loads returns them, and tuples, which json.dumps
# writes as arrays; integers stay within the 4,300 digits that
# json.dumps prints
_json_docs = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text()
    | st.integers() | st.integers(10 ** 4299, 10 ** 4300 - 1)
    | st.integers(-10 ** 4300 + 1, -10 ** 4299),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20)


@given(_json_docs)
@settings(max_examples=300, deadline=None)
def test_canonical_bytes_lay_out_json_as_json_dumps(doc):
    assert _canonical_bytes(doc) == \
        (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("utf-8")


def test_integers_past_the_digit_limit_round_trip():
    # json.dumps refuses these unless the interpreter's limit is lifted;
    # the writer prints every digit and the reader takes them back
    big = 10 ** 4300
    doc = {"entries": [big, -big - 7, [3 * big + 1, {"k": -(big ** 2)}]],
           "small": [0, -1, True, None, 2.5], "z": {}}
    data = _canonical_bytes(doc)
    assert _decode(data) == doc
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        want = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    finally:
        sys.set_int_max_str_digits(limit)
    assert data == want.encode("utf-8")


def test_deeply_nested_oracle_serializes():
    # one frame per nesting level: 950 levels of arrays inside the
    # oracle are written and read back
    nested = []
    for _ in range(949):
        nested = [nested]
    data = serialize_category(sphere_z2(), {"deep": nested})
    cf = load_category_file(data)
    assert cf.oracle == {"deep": nested}
    assert cf.category == sphere_z2()


@pytest.mark.parametrize("depth", [1000, 1400, 5000])
def test_nesting_the_reader_takes_is_written_back(depth):
    # an empty category whose oracle holds depth - 2 nested arrays. How
    # deep the reader goes depends on the Python version: 3.12 and later
    # read past the recursion limit. Whatever it takes, the writer
    # writes back in canonical form, with no RecursionError
    arrays = depth - 2
    data = ('{"format_version": "1", "ring": "Z", "objects": [], '
            '"oracle": {"deep": ' + "[" * arrays + "]" * arrays + "}}")
    try:
        cf = load_category_file(data.encode())
    except ParseError as e:
        assert str(e) == "JSON nested too deeply"
        return
    pad = [" " * (4 + 2 * k) for k in range(arrays)]
    deep = ("".join(f"[\n{p}  " for p in pad[:-1]) + "[]"
            + "".join(f"\n{p}]" for p in reversed(pad[:-1])))
    want = ('{\n  "correspondences": [],\n  "format_version": "1",\n'
            '  "objects": [],\n  "oracle": {\n    "deep": ' + deep
            + '\n  },\n  "ring": "Z"\n}\n').encode()
    assert cf.category == FlowCategoryData(ZZ)
    assert serialize_category(cf.category, cf.oracle) == want
    again = load_category_file(want)
    assert serialize_category(again.category, again.oracle) == want


# ---------------------------------------------------------------------------
# parse and schema errors


def test_not_json():
    with pytest.raises(ParseError) as exc:
        parse_category(b"{broken")
    assert "line 1" in str(exc.value)


def test_not_utf8():
    with pytest.raises(ParseError):
        parse_category(b"\xff\xfe{}")


def test_wrong_format_version():
    doc = json.loads(fixture_bytes("s2_two_point"))
    doc["format_version"] = "99"
    with pytest.raises(SchemaError) as exc:
        parse_category(json.dumps(doc).encode())
    assert "format_version" in str(exc.value)


def test_block_shape_mismatch_reports_path():
    doc = json.loads(fixture_bytes("sphere_z2"))
    doc["correspondences"][0]["blocks"][0]["shape"] = [2, 3]
    doc["correspondences"][0]["blocks"][0]["data"] = [1, 0, 0, 0, 1, 0]
    with pytest.raises(SchemaError) as exc:
        parse_category(json.dumps(doc).encode())
    assert "correspondences[0].blocks[0]" in str(exc.value)
    assert "demand" in str(exc.value)


def test_matrix_data_length_checked():
    doc = json.loads(fixture_bytes("sphere_z2"))
    doc["correspondences"][0]["blocks"][0]["data"] = [1, 1]
    with pytest.raises(SchemaError) as exc:
        parse_category(json.dumps(doc).encode())
    assert ".data" in str(exc.value)


def test_non_integer_entry_rejected():
    doc = json.loads(fixture_bytes("s2_two_point"))
    doc["objects"][0]["chain"]["ranks"] = [1.5]
    with pytest.raises(SchemaError):
        parse_category(json.dumps(doc).encode())


def test_unknown_correspondence_endpoint():
    doc = json.loads(fixture_bytes("sphere_z2"))
    doc["correspondences"][0]["from"] = "ghost"
    with pytest.raises(SchemaError) as exc:
        parse_category(json.dumps(doc).encode())
    assert "ghost" in str(exc.value)


def test_duplicate_object_name_is_schema_error():
    doc = json.loads(fixture_bytes("s2_two_point"))
    doc["objects"][1]["name"] = doc["objects"][0]["name"]
    with pytest.raises(SchemaError):
        parse_category(json.dumps(doc).encode())


def test_broken_fixture_loads_without_validation():
    f = parse_category(fixture_bytes("broken_mc"), validate=False)
    assert len(f.correspondences) == 2
    with pytest.raises(ValidationError):
        parse_category(fixture_bytes("broken_mc"))


def test_broken_fixture_squares_its_failing_pair_once(monkeypatch):
    # the Maurer-Cartan verdict and the failing generator come from the
    # same product D_1 D_2
    f = parse_category(fixture_bytes("broken_mc"), validate=False)
    calls = []
    product = IntegerMatrix.__matmul__

    def counted(a, b):
        calls.append((a, b))
        return product(a, b)
    monkeypatch.setattr(IntegerMatrix, "__matmul__", counted)
    diag = validate_category(f)
    assert len(calls) == 1
    assert diag.issues == ("D.D is nonzero on cell 0 of object 'e2' in total "
                           "degree 2",)


def test_bimodule_unknown_object():
    b = continuation_s2()
    doc = json.loads(serialize_bimodule(b))
    doc["blocks"][0]["from"] = "ghost"
    with pytest.raises(SchemaError):
        parse_bimodule(json.dumps(doc).encode(), b.source, b.target)


# Every error the reader raises, as a mutation of a shipped file: the
# file, the path of the value to replace (DROP deletes it; the empty path
# replaces the whole document), the new value, and the exact class and
# message. "@BIG" stands for an integer of 4,301 digits, which json.dumps
# refuses to print. "bimodule" is continuation_s2's file, read between
# s2_two_point (a, b) and sphere_z2 (eq, n, s). _O, _D, _C and _B are the
# paths of the first object, its first differential, the first
# correspondence and the first bimodule entry.
DROP = object()
_O = ("objects", 0)
_D = ("objects", 0, "chain", "differentials", 0)
_C = ("correspondences", 0)
_B = ("blocks", 0)
_DEG0 = {"degree": 0, "shape": [1, 1], "data": [1]}
_DEG1 = {"degree": 1, "shape": [1, 1], "data": [0]}
_READER_ERRORS = [
    ("sphere_z2", (), [], SchemaError, "file: expected a JSON object"),
    ("sphere_z2", ("format_version",), DROP, SchemaError,
     "file.format_version: missing"),
    ("sphere_z2", ("format_version",), 1, SchemaError,
     "file.format_version: expected a string"),
    ("sphere_z2", ("format_version",), "99", SchemaError,
     "file.format_version: unsupported version '99'"),
    ("sphere_z2", ("ring",), DROP, SchemaError, "file.ring: missing"),
    ("sphere_z2", ("ring",), 2, SchemaError, "file.ring: expected a string"),
    ("sphere_z2", ("ring",), "Q", UnsupportedRing, "bad ring spec 'Q'"),
    ("sphere_z2", ("objects",), DROP, SchemaError, "file.objects: missing"),
    ("sphere_z2", ("objects",), {}, SchemaError,
     "file.objects: expected an array"),
    ("sphere_z2", _O, 7, SchemaError, "objects[0]: expected an object"),
    ("sphere_z2", (*_O, "name"), DROP, SchemaError,
     "objects[0].name: missing"),
    ("sphere_z2", (*_O, "name"), None, SchemaError,
     "objects[0].name: expected a string"),
    ("sphere_z2", ("objects", 2, "name"), "n", SchemaError,
     "objects[2].name: duplicate object name 'n'"),
    ("sphere_z2", (*_O, "chain"), DROP, SchemaError,
     "objects[0].chain: missing"),
    ("sphere_z2", (*_O, "chain"), [], SchemaError,
     "objects[0].chain: expected an object"),
    ("sphere_z2", (*_O, "chain", "ranks"), DROP, SchemaError,
     "objects[0].chain.ranks: missing"),
    ("sphere_z2", (*_O, "chain", "ranks"), "11", SchemaError,
     "objects[0].chain.ranks: expected an array"),
    ("sphere_z2", (*_O, "chain", "ranks", 1), 1.5, SchemaError,
     "objects[0].chain.ranks[1]: expected an integer"),
    ("sphere_z2", (*_O, "chain", "ranks", 1), True, SchemaError,
     "objects[0].chain.ranks[1]: expected an integer"),
    ("sphere_z2", (*_O, "chain", "ranks", 1), -1, SchemaError,
     "objects[0].chain.ranks[1]: negative rank"),
    ("sphere_z2", (*_O, "chain", "ranks", 1), "@BIG", SchemaError,
     "objects[0].chain.ranks[1]: more than 4300 digits"),
    ("sphere_z2", (*_O, "chain", "differentials"), "d", SchemaError,
     "objects[0].chain.differentials: expected an array"),
    ("sphere_z2", _D, 5, SchemaError,
     "objects[0].chain.differentials[0]: expected an object"),
    ("sphere_z2", (*_D, "degree"), DROP, SchemaError,
     "objects[0].chain.differentials[0].degree: missing"),
    ("sphere_z2", (*_D, "degree"), "1", SchemaError,
     "objects[0].chain.differentials[0].degree: expected an integer"),
    ("sphere_z2", (*_D, "degree"), "@BIG", SchemaError,
     "objects[0].chain.differentials[0].degree: more than 4300 digits"),
    ("sphere_z2", (*_O, "chain", "differentials"), [_DEG1, _DEG1],
     SchemaError,
     "objects[0].chain.differentials[1].degree: duplicate degree 1"),
    ("sphere_z2", (*_D, "shape"), DROP, SchemaError,
     "objects[0].chain.differentials[0].shape: missing"),
    ("sphere_z2", (*_D, "shape"), {}, SchemaError,
     "objects[0].chain.differentials[0].shape: expected an array"),
    ("sphere_z2", (*_D, "shape"), [1], SchemaError,
     "objects[0].chain.differentials[0].shape: expected [rows, cols]"),
    ("sphere_z2", (*_D, "shape"), [1, -1], SchemaError,
     "objects[0].chain.differentials[0].shape: expected [rows, cols]"),
    ("sphere_z2", (*_D, "shape"), [1, True], SchemaError,
     "objects[0].chain.differentials[0].shape: expected [rows, cols]"),
    ("sphere_z2", (*_D, "shape"), [1, "@BIG"], SchemaError,
     "objects[0].chain.differentials[0].shape: expected [rows, cols]"),
    ("sphere_z2", (*_D, "shape"), [2, 1], SchemaError,
     "objects[0].chain.differentials[0].shape: is 2x1, declared ranks "
     "demand 1x1"),
    ("sphere_z2", (*_D, "degree"), 2, SchemaError,
     "objects[0].chain.differentials[0].shape: is 1x1, declared ranks "
     "demand 1x0"),
    ("sphere_z2", (*_D, "data"), DROP, SchemaError,
     "objects[0].chain.differentials[0].data: missing"),
    ("sphere_z2", (*_D, "data"), 0, SchemaError,
     "objects[0].chain.differentials[0].data: expected an array"),
    ("sphere_z2", (*_D, "data"), [0, 0], SchemaError,
     "objects[0].chain.differentials[0].data: 2 entries for a 1x1 matrix"),
    ("sphere_z2", (*_D, "data", 0), "0", SchemaError,
     "objects[0].chain.differentials[0].data[0]: expected an integer"),
    ("sphere_z2", (*_D, "data", 0), False, SchemaError,
     "objects[0].chain.differentials[0].data[0]: expected an integer"),
    ("sphere_z2", (*_O, "index"), DROP, SchemaError,
     "objects[0].index: missing"),
    ("sphere_z2", (*_O, "index"), 1.0, SchemaError,
     "objects[0].index: expected an integer"),
    ("sphere_z2", (*_O, "index"), "@BIG", SchemaError,
     "objects[0].index: more than 4300 digits"),
    ("sphere_z2", (*_O, "framing_rank"), DROP, SchemaError,
     "objects[0].framing_rank: missing"),
    ("sphere_z2", (*_O, "framing_rank"), "0", SchemaError,
     "objects[0].framing_rank: expected an integer"),
    ("sphere_z2", (*_O, "orientable"), "yes", SchemaError,
     "objects[0].orientable: expected a boolean"),
    ("sphere_z2", ("correspondences",), {}, SchemaError,
     "file.correspondences: expected an array"),
    ("sphere_z2", _C, [], SchemaError,
     "correspondences[0]: expected an object"),
    ("sphere_z2", (*_C, "from"), DROP, SchemaError,
     "correspondences[0].from: missing"),
    ("sphere_z2", (*_C, "from"), 1, SchemaError,
     "correspondences[0].from: expected a string"),
    ("sphere_z2", (*_C, "to"), DROP, SchemaError,
     "correspondences[0].to: missing"),
    ("sphere_z2", (*_C, "from"), "ghost", SchemaError,
     "correspondences[0].from: unknown object 'ghost'"),
    ("sphere_z2", (*_C, "to"), "ghost", SchemaError,
     "correspondences[0].to: unknown object 'ghost'"),
    ("sphere_z2", (*_C, "blocks"), DROP, SchemaError,
     "correspondences[0].blocks: missing"),
    ("sphere_z2", (*_C, "blocks"), {}, SchemaError,
     "correspondences[0].blocks: expected an array"),
    ("sphere_z2", (*_C, "blocks", 0), None, SchemaError,
     "correspondences[0].blocks[0]: expected an object"),
    ("sphere_z2", (*_C, "blocks", 0, "shape"), [1, 2], SchemaError,
     "correspondences[0].blocks[0].shape: is 1x2, declared ranks "
     "demand 1x1"),
    # n (framing 2) in degree 1 -> eq (framing 0) in degree 1 + 2 - 0 - 1
    ("sphere_z2", (*_C, "blocks", 0, "degree"), 1, SchemaError,
     "correspondences[0].blocks[0].shape: is 1x1, declared ranks "
     "demand 0x0"),
    ("sphere_z2", (*_C, "blocks"), [_DEG0, _DEG0], SchemaError,
     "correspondences[0].blocks[1].degree: duplicate degree 0"),
    ("borel_s2_rotation_3", ("borel",), [], SchemaError,
     "borel: expected an object"),
    ("borel_s2_rotation_3", ("borel", "fiber_names"), DROP, SchemaError,
     "borel.fiber_names: missing"),
    ("borel_s2_rotation_3", ("borel", "fiber_names"), "n", SchemaError,
     "borel.fiber_names: expected an array"),
    ("borel_s2_rotation_3", ("borel", "fiber_names", 1), 1, SchemaError,
     "borel.fiber_names[1]: expected a string"),
    ("borel_s2_rotation_3", ("borel", "levels"), DROP, SchemaError,
     "borel.levels: missing"),
    ("borel_s2_rotation_3", ("borel", "levels"), 2.5, SchemaError,
     "borel.levels: expected an integer"),
    ("sphere_z2", ("oracle",), "S^2", SchemaError,
     "oracle: expected an object"),
    ("bimodule", (), 1, SchemaError, "file: expected a JSON object"),
    ("bimodule", ("format_version",), DROP, SchemaError,
     "file.format_version: missing"),
    ("bimodule", ("format_version",), "2", SchemaError,
     "file.format_version: unsupported version '2'"),
    ("bimodule", ("blocks",), DROP, SchemaError, "file.blocks: missing"),
    ("bimodule", ("blocks",), {}, SchemaError,
     "file.blocks: expected an array"),
    ("bimodule", _B, "a", SchemaError, "blocks[0]: expected an object"),
    ("bimodule", (*_B, "from"), DROP, SchemaError, "blocks[0].from: missing"),
    ("bimodule", (*_B, "to"), 3, SchemaError,
     "blocks[0].to: expected a string"),
    ("bimodule", (*_B, "from"), "eq", SchemaError,
     "blocks[0]: unknown object 'eq'"),
    ("bimodule", (*_B, "to"), "a", SchemaError,
     "blocks[0]: unknown object 'a'"),
    ("bimodule", ("blocks", 2, "to"), "n", SchemaError,
     "blocks[2]: duplicate pair 'b' -> 'n'"),
    ("bimodule", (*_B, "blocks"), DROP, SchemaError,
     "blocks[0].blocks: missing"),
    ("bimodule", (*_B, "blocks", 0, "shape"), [2, 1], SchemaError,
     "blocks[0].blocks[0].shape: is 2x1, declared ranks demand 1x1"),
    # a (framing 0) in degree 1 -> eq (framing 0) in degree 1
    ("bimodule", (*_B, "blocks", 0, "degree"), 1, SchemaError,
     "blocks[0].blocks[0].shape: is 1x1, declared ranks demand 1x0"),
    ("bimodule", (*_B, "blocks"), [_DEG0, _DEG0], SchemaError,
     "blocks[0].blocks[1].degree: duplicate degree 0"),
    ("bimodule", (*_B, "blocks", 0, "data"), [1.0], SchemaError,
     "blocks[0].blocks[0].data[0]: expected an integer"),
    ("bimodule", _B, {"from": "a", "to": "n", "blocks": []}, ShapeMismatch,
     "bimodule block 'a' -> 'n' is not monotone (0 < 2)"),
]


def _mutated(name, path, value) -> bytes:
    if name == "bimodule":
        doc = json.loads(serialize_bimodule(continuation_s2()))
    else:
        doc = json.loads(fixture_bytes(name))
    if not path:
        doc = value
    else:
        *head, last = path
        node = doc
        for key in head:
            node = node[key]
        if value is DROP:
            del node[last]
        else:
            node[last] = value
    return json.dumps(doc).replace('"@BIG"', "1" * 4301).encode()


def _read_file(name, data):
    if name != "bimodule":
        return load_category_file(data)
    b = continuation_s2()
    return parse_bimodule(data, b.source, b.target)


@pytest.mark.parametrize("name, path, value, cls, message", _READER_ERRORS)
def test_reader_error_is_exact(name, path, value, cls, message):
    with pytest.raises(MBFlowError) as exc:
        _read_file(name, _mutated(name, path, value))
    assert (type(exc.value), str(exc.value)) == (cls, message)


@pytest.mark.parametrize("data, message", [
    (b"{broken", "line 1 column 2: Expecting property name enclosed in "
                 "double quotes"),
    (b"", "line 1 column 1: Expecting value"),
    (b'{"a": 1}\n[', "line 2 column 1: Extra data"),
    (b"\xff{}", "not UTF-8: 'utf-8' codec can't decode byte 0xff in "
                "position 0: invalid start byte"),
])
def test_undecodable_file_error_is_exact(data, message):
    for name in ("sphere_z2", "bimodule"):
        with pytest.raises(ParseError) as exc:
            _read_file(name, data)
        assert str(exc.value) == message


@pytest.mark.parametrize("argv, data, message", [
    (["homology"], b"\xff{}", "not UTF-8: 'utf-8' codec can't decode byte "
                              "0xff in position 0: invalid start byte"),
    (["homology"], _mutated("sphere_z2", (*_C, "from"), "ghost"),
     "correspondences[0].from: unknown object 'ghost'"),
    (["cone", "@s2_two_point", "@sphere_z2"],
     _mutated("bimodule", ("blocks", 2, "to"), "n"),
     "blocks[2]: duplicate pair 'b' -> 'n'"),
])
def test_reader_error_exits_2_with_its_message(tmp_path, argv, data,
                                               message):
    path = tmp_path / "file.json"
    path.write_bytes(data)
    argv = [fixture_path(a[1:]) if a.startswith("@") else a for a in argv]
    proc = _child([*argv, str(path)])
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        (2, "", f"error: {message}\n")


# ---------------------------------------------------------------------------
# command dispatch and exit codes


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_ok(capsys):
    code, out, err = run_cli(["validate", fixture_path("sphere_z2")], capsys)
    assert code == 0
    assert "valid" in out
    assert not err


def test_validate_broken_exits_1(capsys):
    code, out, err = run_cli(["validate", fixture_path("broken_mc")], capsys)
    assert code == 1
    assert "D.D" in err


def test_homology_table(capsys):
    code, out, _ = run_cli(["homology", fixture_path("rp2")], capsys)
    assert code == 0
    assert "ring: Z" in out
    assert "1     0  2" in out


def test_homology_ring_override(capsys):
    code, out, _ = run_cli(
        ["homology", fixture_path("rp2"), "--ring", "Fp:2"], capsys)
    assert code == 0
    assert "ring: Fp:2" in out


def test_missing_file_exits_2(capsys):
    code, _, err = run_cli(["homology", "/nonexistent.json"], capsys)
    assert code == 2
    assert "cannot read" in err


def test_bad_ring_exits_3(capsys):
    code, _, err = run_cli(
        ["homology", fixture_path("rp2"), "--ring", "Fp:6"], capsys)
    assert code == 3


@pytest.mark.parametrize("spec", ["Fp:+7", "Fp: 7", "Fp:\u096d", "Fp:7 ",
                                  "Fp:", "Fp:" + "1" * 5000])
def test_ring_spec_takes_ascii_digits_only(tmp_path, capsys, spec):
    # int() reads the first four as 7; the wire form is "Fp:" and ASCII
    # digits, as many as int() converts, in a file as on the command line
    code, out, err = run_cli(
        ["homology", fixture_path("rp2"), "--ring", spec], capsys)
    assert (code, out) == (3, "")
    assert err == f"error: bad ring spec {spec!r}\n"
    doc = json.loads(fixture_bytes("rp2"))
    doc["ring"] = spec
    path = tmp_path / "rp2.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(["homology", str(path)], capsys)
    assert (code, out) == (3, "")
    assert err == f"error: bad ring spec {spec!r}\n"
    # leading zeros are still digits
    code, out, _ = run_cli(
        ["homology", fixture_path("rp2"), "--ring", "Fp:07"], capsys)
    assert code == 0 and out.startswith("ring: Fp:7\n")


def _one_circle_file(tmp_path, ring: str, entry: int):
    doc = {"format_version": "1", "ring": ring, "correspondences": [],
           "objects": [{"name": "x", "index": 0, "framing_rank": 0,
                        "chain": {"ranks": [1, 1], "differentials": [
                            {"degree": 1, "shape": [1, 1],
                             "data": [entry]}]}}]}
    path = tmp_path / "circle.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_huge_entry_over_fp_reduces_before_numpy(tmp_path, capsys):
    # 3**50 does not fit in an int64 but is 0 mod 3: a circle over F_3
    path = _one_circle_file(tmp_path, "Fp:3", 3 ** 50)
    code, out, err = run_cli(["homology", path], capsys)
    assert code == 0, err
    assert out == ("ring: Fp:3\ndegree  free  torsion\n"
                   "     0     1  -\n     1     1  -\n")


def test_prime_too_large_for_int64_elimination_exits_3(tmp_path, capsys):
    # 1099511627791 is prime, but p*p overflows int64 elimination
    path = _one_circle_file(tmp_path, "Z", 0)
    code, _, err = run_cli(
        ["homology", path, "--ring", "Fp:1099511627791"], capsys)
    assert code == 3
    assert "p <= 3037000499" in err
    code, _, err = run_cli(["ss", path, "--field", "3037000507"], capsys)
    assert code == 3
    # the largest accepted prime still works
    code, out, _ = run_cli(["homology", path, "--ring", "Fp:3037000493"],
                           capsys)
    assert code == 0
    assert "     1     1  -" in out


@pytest.mark.parametrize("bad", [True, 1.5])
def test_non_integer_matrix_entry_exits_2_with_its_path(tmp_path, capsys,
                                                         bad):
    # JSON true is a bool, not an integer, and is refused like 1.5
    doc = {"format_version": "1", "ring": "Z", "correspondences": [],
           "objects": [{"name": "x", "index": 0, "framing_rank": 0,
                        "chain": {"ranks": [1, 2], "differentials": [
                            {"degree": 1, "shape": [1, 2],
                             "data": [1, bad]}]}}]}
    path = tmp_path / "bad_entry.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(["homology", str(path)], capsys)
    assert code == 2
    assert "objects[0].chain.differentials[0].data[1]: expected an integer" \
        in err


def _d1_file(tmp_path, d1, ranks=None):
    """A file of one object with d_1 given by rows of digit strings, and
    the ranks of degrees 0 and 1 too if given: json cannot write an int
    past 4,300 digits, but may read one."""
    rows, cols = len(d1), len(d1[0])
    doc = {"format_version": "1", "ring": "Z", "correspondences": [],
           "objects": [{"name": "x", "index": 0, "framing_rank": 0,
                        "chain": {"ranks": ["@R0", "@R1"],
                                  "differentials": [{
                                      "degree": 1, "shape": [rows, cols],
                                      "data": ["@D"]}]}}]}
    text = json.dumps(doc)
    for key, v in zip(("R0", "R1", "D"), (*(ranks or (rows, cols)),
                                          ", ".join(sum(d1, [])))):
        text = text.replace(f'"@{key}"', str(v))
    path = tmp_path / "big.json"
    path.write_text(text)
    return path


def _timed_homology(path, capsys):
    start = time.perf_counter()
    code, out, err = run_cli(["homology", str(path)], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 0, err
    return out


def test_entry_past_the_digit_limit_is_read_exactly(tmp_path, capsys):
    # Python's int() takes at most 4,300 digits from a string; a 5,001
    # digit entry of d_1 is read exactly, and is the torsion of H_0
    big = "7" * 5001
    path = _d1_file(tmp_path, [[big]])
    assert path.stat().st_size < 6000
    assert _timed_homology(path, capsys) == \
        f"ring: Z\ndegree  free  torsion\n     0     0  {big}\n"
    # and written back exactly
    f = parse_category(path.read_bytes())
    data = serialize_category(f)
    assert f'"data": [\n              {big}\n            ]' in data.decode()
    assert parse_category(data) == f
    # a file cut short after such an entry is refused cleanly
    path.write_text(path.read_text()[:-10])
    code, _, err = run_cli(["homology", str(path)], capsys)
    assert code == 2 and err.startswith("error: line 1 column ")
    # a rank that long is refused cleanly
    path = _d1_file(tmp_path, [["2"]], ranks=(1, "9" * 4301))
    code, _, err = run_cli(["homology", str(path)], capsys)
    assert code == 2
    assert err == "error: objects[0].chain.ranks[1]: more than 4300 digits\n"


def _rank_and_det(rows, q=None):
    """Rank of rows over Q (q None) or F_q by Gaussian elimination, and
    over Q the absolute value of the product of the pivots: |det| when
    rows is square of full rank."""
    cut = (lambda x: x) if q is None else (lambda x: x % q)
    a = [[Fraction(v) if q is None else v % q for v in row] for row in rows]
    rank, det = 0, 1
    for j in range(len(a[0])):
        pick = next((i for i in range(rank, len(a)) if a[i][j]), None)
        if pick is None:
            continue
        a[rank], a[pick] = a[pick], a[rank]
        p = a[rank][j]
        det *= p
        inv = 1 / p if q is None else pow(p, -1, q)
        for i in range(rank + 1, len(a)):
            f = a[i][j] * inv
            a[i] = [cut(x - f * y) for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank, abs(det)


@pytest.mark.parametrize("seed", range(6))
def test_dense_d1_with_no_unit_answers_at_once(tmp_path, seed):
    # a 15 x 15 d_1 with entries in {-3, -2, 0, 2, 3}: unit_sweep hands it
    # over whole to the Smith form, whose entries must not blow up; the
    # child is killed, and the test fails, if it does not answer in time
    rng = random.Random(seed)
    d1 = [[rng.choice((-3, -2, 0, 2, 3)) for _ in range(15)]
          for _ in range(15)]
    path = _d1_file(tmp_path, [[str(v) for v in row] for row in d1])
    import mbflow

    src = str(Path(list(mbflow.__path__)[0]).parent)
    proc = subprocess.run(
        [sys.executable, "-m", "mbflow", "homology", str(path)],
        capture_output=True, text=True, timeout=10,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    # "degree free torsion" lines: degree 1 is free of rank 15 - rk d_1,
    # degree 0 carries the factors > 1 of d_1
    lines = {int(n): (int(free), [] if tor == "-" else
                      [int(x) for x in tor.split(",")])
             for n, free, tor in (x.split() for x in
                                  proc.stdout.splitlines()[2:])}
    rank = 15 - lines.get(1, (0, []))[0]
    torsion = lines.get(0, (0, []))[1]
    factors = [1] * (rank - len(torsion)) + torsion
    want_rank, det = _rank_and_det(d1)
    assert rank == want_rank
    if rank == 15:
        assert math.prod(factors) == det
    for q in (2, 3, 5, 7):
        assert sum(f % q == 0 for f in factors) == \
            rank - _rank_and_det(d1, q)[0]


def test_torsion_factor_past_the_digit_limit_prints_exactly(tmp_path,
                                                          capsys):
    # d_1 = [[10^4000, 1], [0, 10^4000]]: H_0 = Z/10^8000, 8,001 digits
    e = "1" + "0" * 4000
    path = _d1_file(tmp_path, [[e, "1"], ["0", e]])
    assert _timed_homology(path, capsys) == \
        f"ring: Z\ndegree  free  torsion\n     0     0  1{'0' * 8000}\n"


def _assert_wide_homology_stays_small(tmp_path, capsys, cells: int):
    import tracemalloc

    doc = {"format_version": "1", "ring": "Z", "correspondences": [],
           "objects": [{"name": "x", "index": 0, "framing_rank": 0,
                        "chain": {"ranks": [cells], "differentials": []}}]}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    tracemalloc.start()
    try:
        code, out, err = run_cli(["homology", str(path)], capsys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0, err
    assert out == f"ring: Z\ndegree  free  torsion\n     0  {cells:4d}  -\n"
    assert peak < 32 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"


def test_wide_object_without_differentials_stays_small(tmp_path, capsys):
    # 2000 cells in one degree and no differential: no Smith form may
    # allocate 2000 x 2000 transforms
    _assert_wide_homology_stays_small(tmp_path, capsys, 2000)


def test_million_cells_without_differentials_keep_no_cell_index(tmp_path,
                                                                capsys):
    # homology keeps nothing per cell for a degree with no differential
    _assert_wide_homology_stays_small(tmp_path, capsys, 10 ** 6)


@pytest.mark.parametrize("cells, cap_mib", [(10 ** 9, 2048), (10 ** 7, 256)])
def test_ss_on_cells_without_differentials_keeps_no_cell_index(
        tmp_path, cells, cap_mib):
    # one object of that many cells and no differential: the spectral
    # sequence reads piece ranks and pairs, so a child whose address
    # space is capped answers at once instead of listing every cell
    import resource

    doc = {"format_version": "1", "ring": "Z", "correspondences": [],
           "objects": [{"name": "x", "index": 0, "framing_rank": 0,
                        "chain": {"ranks": [cells], "differentials": []}}]}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    cap = cap_mib * 2 ** 20

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    import mbflow

    src = str(Path(list(mbflow.__path__)[0]).parent)
    proc = subprocess.run(
        [sys.executable, "-m", "mbflow", "ss", str(path), "--field", "2"],
        capture_output=True, text=True, timeout=10, preexec_fn=limit,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (f"page 1\n  E[0,0] dim {cells}\n"
                           f"collapsed at page 1\nlimit\n"
                           f"  degree 0: dim {cells}\n")


def test_degrees_past_the_digit_limit_print_exactly(tmp_path, capsys):
    # framing rank 10^4300 - 1 puts the object's two cells in degrees of
    # 4,300 and 4,301 digits; str(int) refuses the second, and every
    # command that prints a degree prints it whole
    doc = {"format_version": "1", "ring": "Z", "correspondences": [],
           "objects": [{"name": "x", "index": 0, "framing_rank": "@F",
                        "chain": {"ranks": [1, 1], "differentials": [
                            {"degree": 1, "shape": [1, 1], "data": [0]}]}}]}
    lo, hi = "9" * 4300, "1" + "0" * 4300
    path = tmp_path / "far.json"
    path.write_text(json.dumps(doc).replace('"@F"', lo))
    poly = f"t^{lo} + t^{hi}"
    want = {
        "homology": f"ring: Z\ndegree  free  torsion\n{lo}     1  -\n"
                    f"{hi}     1  -\n",
        "poincare": f"dim_t H(Tot) = {poly}\n",
        "ss": f"page 1\n  E[0,{lo}] dim 1\n  E[0,{hi}] dim 1\n"
              f"collapsed at page 1\nlimit\n  degree {lo}: dim 1\n"
              f"  degree {hi}: dim 1\n",
        "dual": f"ring: Z\ndegree  free  torsion\n-{hi}     1  -\n"
                f"-{lo}     1  -\n",
        "check-ineq": f"mode: partial_order\nlhs:  {poly}\nrhs:  {poly}\n"
                      f"holds: yes\nwitness: 0\nequality\n",
    }
    for command, out in want.items():
        extra = ["--field", "2"] if command == "ss" else []
        assert run_cli([command, str(path)] + extra, capsys) == \
            (0, out, ""), command
    # a Maurer-Cartan failure in such a degree is reported whole: the
    # three objects of broken_mc, framed 10^4300 - 3 higher, with their
    # maps moved to degree 1
    doc = json.loads(fixture_bytes("broken_mc"))
    for o in doc["objects"]:
        o["framing_rank"] = f"@F{o['framing_rank']}"
        o["chain"] = {"ranks": [1, 1], "differentials": []}
    for c in doc["correspondences"]:
        c["blocks"] = [{"degree": 1, "shape": [1, 1], "data": [1]}]
    text = json.dumps(doc)
    for k in range(3):
        text = text.replace(f'"@F{k}"', "9" * 4299 + str(7 + k))
    path.write_text(text)
    issue = f"D.D is nonzero on cell 0 of object 'e2' in total degree {hi}\n"
    assert run_cli(["validate", str(path)], capsys) == (1, "", issue)
    assert run_cli(["homology", str(path)], capsys) == \
        (1, "", "error: " + issue)


def _child(argv, timeout=10):
    """mbflow argv in a child process, killed (and the test failed) if
    it does not answer within timeout seconds."""
    import mbflow

    src = str(Path(list(mbflow.__path__)[0]).parent)
    return subprocess.run(
        [sys.executable, "-m", "mbflow", *argv], capture_output=True,
        text=True, timeout=timeout, env={**os.environ, "PYTHONPATH": src})


def _far_apart_doc(index):
    # two point objects framed 0 and 10^12: cells in total degrees 0 and
    # 10^12 and none between
    point = {"ranks": [1], "differentials": []}
    return {"format_version": "1", "ring": "Z", "correspondences": [],
            "objects": [{"name": "a", "index": 0, "framing_rank": 0,
                         "chain": point},
                        {"name": "b", "index": index,
                         "framing_rank": 10 ** 12, "chain": point}]}


@pytest.mark.parametrize("index", [0, 1])
def test_far_apart_degrees_answer_at_once(tmp_path, index):
    # graded values are walked by the degrees they store: with a shared
    # index validate walked one piece's range, and with index 1 every
    # other command walked Tot's
    path = tmp_path / "far.json"
    path.write_text(json.dumps(_far_apart_doc(index)))
    far = "1000000000000"
    table = f"degree  free  torsion\n     0     1  -\n{far}     1  -\n"
    poly = f"1 + t^{far}"
    if index == 0:
        ss = (f"page 1\n  E[0,0] dim 1\n  E[0,{far}] dim 1\n"
              f"collapsed at page 1\n")
    else:
        spots = f"  E[0,0] dim 1\n  E[1,{10 ** 12 - 1}] dim 1\n"
        ss = f"page 1\n{spots}page 2\n{spots}collapsed at page 1\n"
    want = {
        ("validate",): "valid: 2 objects, 0 correspondences\n",
        ("homology",): "ring: Z\n" + table,
        ("homology", "--ring", "Fp:2"): "ring: Fp:2\n" + table,
        ("poincare",): f"dim_t H(Tot) = {poly}\n",
        ("check-ineq",): f"mode: partial_order\nlhs:  {poly}\nrhs:  {poly}\n"
                         f"holds: yes\nwitness: 0\nequality\n",
        ("ss", "--field", "2"): ss + f"limit\n  degree 0: dim 1\n"
                                     f"  degree {far}: dim 1\n",
        ("dual",): f"ring: Z\ndegree  free  torsion\n-{far}     1  -\n"
                   f"     0     1  -\n",
    }
    for (command, *extra), out in want.items():
        proc = _child([command, str(path), *extra])
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, out, ""), \
            command


def test_quotient_sequence_across_far_apart_degrees():
    # Tot has cells in degrees 0 and 10^12 only; the cut at 0 splits
    # them, and no connecting map can join degrees that far apart
    f = parse_category(json.dumps(_far_apart_doc(1)).encode())
    audit = quotient_sequence(realize(f), 0).audit
    assert audit.exact
    assert dict(audit.connecting_rank) == {}
    assert audit.positions_checked == 6


def test_equivariant_bound_at_ten_thousand_levels(tmp_path):
    # the free circle's Borel model truncated at N = 10,000 levels, at
    # the top of its stability range: both sides are read from the
    # degrees they store, not from a degree x level x fiber grid
    path = tmp_path / "borel.json"
    path.write_bytes(serialize_category(free_circle_borel(10_000)))
    proc = _child(["check-ineq", str(path), "--equivariant",
                   "--cutoff", "19999"])
    slack = "t + " + " + ".join(f"t^{d}" for d in range(2, 20_000))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (f"mode: equivariant\nlhs:  1\nrhs:  1 + {slack}\n"
                           f"holds: yes\nwitness: {slack}\n")


@pytest.mark.parametrize("unit", ["[", '{"a":'])
def test_deeply_nested_json_is_a_parse_error(tmp_path, unit):
    # 200 KB of openings overflow the decoder's recursion limit, in a
    # category file and in a bimodule file alike
    path = tmp_path / "deep.json"
    path.write_text(unit * (200_000 // len(unit)))
    for argv in (["homology", str(path)],
                 ["cone", fixture_path("s2_two_point"),
                  fixture_path("sphere_z2"), str(path)]):
        proc = _child(argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == \
            (2, "", "error: JSON nested too deeply\n"), argv[0]
        assert "Traceback" not in proc.stderr


def test_torsion_in_two_thousand_blocks_answers_at_once(tmp_path):
    # 2,000 copies of RP^2's cell chain (d_2 = 2) at one index: the
    # leftover of unit_sweep is a 2,000 x 2,000 diagonal, whose Smith
    # form runs per block of columns that share no row
    rp2 = {"ranks": [1, 1, 1],
           "differentials": [{"degree": 2, "shape": [1, 1], "data": [2]}]}
    doc = {"format_version": "1", "ring": "Z", "correspondences": [],
           "objects": [{"name": f"x{i}", "index": 0, "framing_rank": 0,
                        "chain": rp2} for i in range(2000)]}
    path = tmp_path / "rp2s.json"
    path.write_text(json.dumps(doc))
    proc = _child(["homology", str(path)])
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == ("ring: Z\ndegree  free  torsion\n"
                           f"     0  2000  -\n     1     0  "
                           f"{','.join(['2'] * 2000)}\n")


def test_torsion_factors_in_order_from_their_coprime_base(tmp_path):
    # 16,000 copies of RP^2's cell chain at one index: the 16,000
    # factors 2 are ordered per element of their coprime base {2}, not
    # by a gcd of every pair of them
    rp2 = {"ranks": [1, 1, 1],
           "differentials": [{"degree": 2, "shape": [1, 1], "data": [2]}]}
    doc = {"format_version": "1", "ring": "Z", "correspondences": [],
           "objects": [{"name": f"x{i}", "index": 0, "framing_rank": 0,
                        "chain": rp2} for i in range(16_000)]}
    path = tmp_path / "rp2s.json"
    path.write_text(json.dumps(doc))
    proc = _child(["homology", str(path)])
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == ("ring: Z\ndegree  free  torsion\n"
                           f"     0  16000  -\n     1     0  "
                           f"{','.join(['2'] * 16_000)}\n")


def test_closed_stdout_exits_141_without_a_traceback(tmp_path):
    # 8,000 point objects at index i and framing 2i print 128 KB, more
    # than a pipe holds; the reader takes the first 20 bytes and closes
    import mbflow

    point = {"ranks": [1], "differentials": []}
    doc = {"format_version": "1", "ring": "Z", "correspondences": [],
           "objects": [{"name": f"p{i}", "index": i, "framing_rank": 2 * i,
                        "chain": point} for i in range(8000)]}
    path = tmp_path / "points.json"
    path.write_text(json.dumps(doc))
    src = str(Path(list(mbflow.__path__)[0]).parent)
    with open(tmp_path / "stderr", "w+b") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "mbflow", "homology", str(path)],
            stdout=subprocess.PIPE, stderr=err, bufsize=0,
            env={**os.environ, "PYTHONPATH": src})
        head = b""
        while len(head) < 20:
            head += proc.stdout.read(20 - len(head)) or b"EOF"
        proc.stdout.close()
        code = proc.wait(timeout=60)
        err.seek(0)
        stderr = err.read().decode()
    assert head == b"ring: Z\ndegree  free"
    assert "Traceback" not in stderr
    assert "Exception ignored" not in stderr
    assert (code, stderr) == (141, "")


def test_ss_bad_field_exits_3(capsys):
    code, _, _ = run_cli(
        ["ss", fixture_path("rp2"), "--field", "4"], capsys)
    assert code == 3


def test_poincare(capsys):
    code, out, _ = run_cli(["poincare", fixture_path("torus_flat")], capsys)
    assert code == 0
    assert "1 + 2*t + t^2" in out


def test_check_ineq_holds(capsys):
    code, out, _ = run_cli(["check-ineq", fixture_path("sphere_z2")], capsys)
    assert code == 0
    assert "witness: t" in out


def test_check_ineq_equivariant(capsys):
    code, out, _ = run_cli(
        ["check-ineq", fixture_path("borel_s2_rotation_3"),
         "--equivariant", "--cutoff", "4"], capsys)
    assert code == 0
    assert "equality" in out


def test_check_ineq_failure_exits_4(tmp_path, capsys):
    # lie about the fiber so the bound must fail
    cf = load_category_file(fixture_bytes("borel_s2_rotation_3"))
    doctored = FlowCategoryData(
        cf.category.ring, cf.category.objects, cf.category.correspondences,
        BorelMetadata(3, ("n",)))
    path = tmp_path / "doctored.json"
    path.write_bytes(serialize_category(doctored))
    code, out, _ = run_cli(
        ["check-ineq", str(path), "--equivariant", "--cutoff", "4"], capsys)
    assert code == 4
    assert "first failure degree: 2" in out


def test_equivariant_requires_cutoff(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check-ineq", fixture_path("borel_s2_rotation_3"),
              "--equivariant"])
    assert exc.value.code == 2


def test_cutoff_requires_equivariant(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check-ineq", fixture_path("sphere_z2"), "--cutoff", "3"])
    assert exc.value.code == 2
    assert "--cutoff requires --equivariant" in capsys.readouterr().err


def _borel_circle(tmp_path, levels, fiber_names):
    """borel_free_circle_3 (objects orbit@0 .. orbit@3) with its Borel
    metadata replaced."""
    doc = json.loads(fixture_bytes("borel_free_circle_3"))
    doc["borel"] = {"levels": levels, "fiber_names": fiber_names}
    path = tmp_path / "borel.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _check_equivariant(path, cutoff, capsys):
    return run_cli(
        ["check-ineq", path, "--equivariant", "--cutoff", str(cutoff)], capsys)


def test_borel_fiber_name_without_objects_exits_1(tmp_path, capsys):
    code, out, err = _check_equivariant(
        _borel_circle(tmp_path, 3, ["zz"]), 1, capsys)
    assert (code, out) == (1, "")
    assert err == ("error: borel fiber 'zz' has no object 'zz@0', although "
                   "levels is 3\n")


def test_borel_levels_past_the_objects_exits_1(tmp_path, capsys):
    # the true levels, 3, refuse cutoff 7; an inflated one must not allow it
    code, out, err = _check_equivariant(
        _borel_circle(tmp_path, 1000000, ["orbit"]), 7, capsys)
    assert (code, out) == (1, "")
    assert err == ("error: borel fiber 'orbit' has no object 'orbit@4', "
                   "although levels is 1000000\n")


def test_borel_negative_levels_exits_1(tmp_path, capsys):
    code, out, err = _check_equivariant(
        _borel_circle(tmp_path, -1, ["orbit"]), 1, capsys)
    assert (code, out) == (1, "")
    assert err == "error: borel levels must be nonnegative, got -1\n"


def test_borel_repeated_fiber_name_exits_1(tmp_path, capsys):
    # counted twice, each fiber would double the right-hand side
    code, out, err = _check_equivariant(
        _borel_circle(tmp_path, 3, ["orbit", "orbit"]), 1, capsys)
    assert (code, out) == (1, "")
    assert err == "error: borel fiber name 'orbit' is repeated\n"
    code, out, _ = _check_equivariant(
        _borel_circle(tmp_path, 3, ["orbit"]), 1, capsys)
    assert code == 0 and "holds: yes" in out


def test_ss_output(capsys):
    code, out, _ = run_cli(
        ["ss", fixture_path("torus_flat"), "--field", "2",
         "--max-page", "3"], capsys)
    assert code == 0
    assert "page 1" in out
    assert "collapsed at page 1" in out
    assert "degree 1: dim 2" in out


def test_cone_command(capsys):
    code, out, _ = run_cli(
        ["cone", fixture_path("s2_two_point"), fixture_path("sphere_z2"),
         fixture_path("continuation_s2")], capsys)
    assert code == 0
    assert "quasi-isomorphism: yes" in out


def test_cone_of_a_partial_map_is_not_a_quasi_isomorphism(tmp_path, capsys):
    # only the block a -> eq of the continuation map: the cone keeps the
    # maximum b and the poles
    b = continuation_s2()
    half = tmp_path / "half.json"
    half.write_bytes(serialize_bimodule(BimoduleData(
        b.source, b.target, {("a", "eq"): b.blocks[("a", "eq")]})))
    code, out, _ = run_cli(
        ["cone", fixture_path("s2_two_point"), fixture_path("sphere_z2"),
         str(half)], capsys)
    assert code == 0
    assert out == ("cone homology:\nring: Z\ndegree  free  torsion\n"
                   "     2     1  -\n     3     1  -\n"
                   "quasi-isomorphism: no\n")


class _Terminal(io.StringIO):
    def isatty(self):
        return True


STYLED = [
    (["homology", "@rp2"],
     "ring: Z\n\x1b[1mdegree  free  torsion\x1b[0m\n     0     1  -\n"
     "     1     0  2\n"),
    (["check-ineq", "@sphere_z2"],
     "mode: partial_order\nlhs:  1 + t^2\nrhs:  1 + t + 2*t^2\n"
     "holds: \x1b[32myes\x1b[0m\nwitness: t\n"),
    (["cone", "@s2_two_point", "@sphere_z2", "@continuation_s2"],
     "cone homology:\nring: Z\nH = 0\n"
     "quasi-isomorphism: \x1b[32myes\x1b[0m\n"),
]


@pytest.mark.parametrize("argv, styled", STYLED,
                         ids=[argv[0] for argv, _ in STYLED])
def test_styled_output_on_a_terminal(monkeypatch, argv, styled):
    # ANSI codes only when stdout is a terminal, and none with
    # MBFLOW_COLOR=0
    argv = [fixture_path(a[1:]) if a.startswith("@") else a for a in argv]
    for color, want in ((None, styled),
                        ("0", re.sub("\x1b\\[[0-9]+m", "", styled))):
        if color is None:
            monkeypatch.delenv("MBFLOW_COLOR", raising=False)
        else:
            monkeypatch.setenv("MBFLOW_COLOR", color)
        out = _Terminal()
        monkeypatch.setattr(sys, "stdout", out)
        assert main(argv) == 0
        assert out.getvalue() == want


def test_ss_on_a_category_with_no_objects(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text('{"format_version": "1", "ring": "Z", "objects": [], '
                    '"correspondences": []}')
    code, out, err = run_cli(["ss", str(path), "--field", "2"], capsys)
    assert (code, out, err) == (0, "collapsed at page 1\nlimit\n", "")


def test_ss_max_page_below_one_exits_1(capsys):
    code, out, err = run_cli(
        ["ss", fixture_path("sphere_z2"), "--field", "2", "--max-page", "0"],
        capsys)
    assert (code, out, err) == (1, "", "error: max_page must be at least 1\n")


def test_check_ineq_plain_bound_failure_is_a_fault(monkeypatch, capsys):
    # the plain bound is a theorem: a failing verdict exits 1, not 4
    monkeypatch.setattr(inequalities, "preceq",
                        lambda p, q: PreceqVerdict(False, None, 3))
    code, out, err = run_cli(["check-ineq", fixture_path("sphere_z2")],
                             capsys)
    assert (code, out) == (1, "")
    assert err == ("error: Morse-Bott bound fails in degree 3, which the "
                   "spectral sequence rules out\n")


def test_python_m_mbflow_lists_the_fixtures():
    proc = _child(["fixtures", "list"])
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "".join(f"{name}\n" for name in fixture_names())


def test_dual_command(capsys):
    code, out, _ = run_cli(
        ["dual", fixture_path("s2_two_point"), "--ambient-dim", "2"], capsys)
    assert code == 0
    assert "display only" in out
    assert "-2" in out


def test_fixtures_emit_unknown_exits_2(capsys):
    code, _, err = run_cli(["fixtures", "emit", "nope"], capsys)
    assert code == 2


def test_fixtures_emit_round_trips(capsys):
    code, out, _ = run_cli(["fixtures", "emit", "rp2"], capsys)
    assert code == 0
    assert out.encode() == fixture_bytes("rp2")


def test_output_deterministic(capsys):
    a = run_cli(["homology", fixture_path("borel_free_circle_3")], capsys)
    b = run_cli(["homology", fixture_path("borel_free_circle_3")], capsys)
    assert a == b


def test_subprocess_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "mbflow", "fixtures", "list"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert "sphere_z2" in proc.stdout


def test_cli_import_leaves_numpy_out():
    # numpy serves only the dense references of _fplinalg, imported when
    # one of them runs
    import mbflow

    src = str(Path(list(mbflow.__path__)[0]).parent)
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); "
         "import mbflow.cli; print('numpy' in sys.modules)", src],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_every_subcommand_runs_without_numpy(capsys):
    # numpy made unimportable: one command of each subcommand prints the
    # same bytes and exit code as in this process
    import mbflow

    src = str(Path(list(mbflow.__path__)[0]).parent)
    commands = [
        ["validate", fixture_path("sphere_z2")],
        ["homology", fixture_path("rp2")],
        ["homology", fixture_path("rp2"), "--ring", "Fp:2"],
        ["poincare", fixture_path("torus_flat")],
        ["check-ineq", fixture_path("sphere_z2")],
        ["check-ineq", fixture_path("borel_free_circle_3"),
         "--equivariant", "--cutoff", "5"],
        ["ss", fixture_path("borel_free_circle_3"), "--field", "2"],
        ["cone"] + [fixture_path(name) for name in
                    ("s2_two_point", "sphere_z2", "continuation_s2")],
        ["dual", fixture_path("torus_flat")],
        ["fixtures", "list"],
        ["fixtures", "emit", "rp2"],
    ]
    script = (
        "import contextlib, io, json, sys\n"
        "sys.modules['numpy'] = None\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from mbflow.cli import main\n"
        "got = []\n"
        "for argv in json.loads(sys.argv[2]):\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        code = main(argv)\n"
        "    got.append([code, out.getvalue()])\n"
        "print(json.dumps(got))\n")
    proc = subprocess.run(
        [sys.executable, "-c", script, src, json.dumps(commands)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    want = [list(run_cli(argv, capsys)[:2]) for argv in commands]
    assert json.loads(proc.stdout) == want
    assert all(code == 0 for code, _ in want)
