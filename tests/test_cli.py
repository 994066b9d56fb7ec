"""File format round-trips, golden fixtures, and command exit codes."""

import json
import subprocess
import sys

import pytest

from mbflow.cli import (
    CategoryFile,
    fixture_bytes,
    fixture_names,
    load_category_file,
    main,
    parse_bimodule,
    parse_category,
    serialize_bimodule,
    serialize_category,
)
from mbflow.errors import ParseError, SchemaError, ValidationError
from mbflow.examples import continuation_s2, fixture_registry
from mbflow.flowcat import BorelMetadata, FlowCategoryData, category_homology
from mbflow.homalg import ZZ


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


def test_bimodule_unknown_object():
    b = continuation_s2()
    doc = json.loads(serialize_bimodule(b))
    doc["blocks"][0]["from"] = "ghost"
    with pytest.raises(SchemaError):
        parse_bimodule(json.dumps(doc).encode(), b.source, b.target)


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
