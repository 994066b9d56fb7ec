"""Category file format and the mbflow command line tool.

Categories travel as UTF-8 JSON with a pinned canonical serialization
(sorted keys, two-space indent, trailing newline) so that golden tests
and diffs are stable. Matrices are stored dense row-major with explicit
shapes regardless of in-memory sparsity; that keeps fixture files
readable and diffable.

Exit codes: 0 success, 1 validation failure, 2 parse or schema error
(also argparse usage errors), 3 unsupported ring, 4 inequality failed,
141 stdout closed before the output ended (as a shell reports a process
that SIGPIPE ended).
MBFLOW_COLOR=0 disables ANSI styling; styling is also off when stdout
is not a terminal, so piped output is byte-stable.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass
from decimal import Decimal
from importlib import resources
from typing import Any, Callable, Iterator, Mapping

from .errors import (
    MBFlowError,
    ParseError,
    SchemaError,
    UnsupportedRing,
    ValidationError,
)
from .flowcat import (
    BimoduleData,
    BorelMetadata,
    CorrespondenceMap,
    FlowCategoryData,
    FlowObject,
    bimodule_to_map,
    category_with_ring,
    dualize,
    realize,
    validate_category,
)
from .homalg import (
    CoefficientRing,
    GradedChainComplex,
    HomologySummary,
    IntegerMatrix,
    block_shape,
    complex_from_ranks,
    digits,
    dim_t,
    homology,
)
from .inequalities import equivariant_inequality, mb_inequality
from .twisted import cone, spectral_sequence, totalize

FORMAT_VERSION = "1"


# ---------------------------------------------------------------------------
# serialization


def _matrix_to_json(m: IntegerMatrix) -> dict[str, Any]:
    flat = [v for row in m.to_rows() for v in row]
    return {"shape": [m.rows, m.cols], "data": flat}


def _blocks_to_json(blocks: Mapping[int, IntegerMatrix]) -> list[dict]:
    return [{"degree": d, **_matrix_to_json(blocks[d])}
            for d in sorted(blocks)]


def _chain_to_json(c: GradedChainComplex) -> dict[str, Any]:
    top = max((n for n, r in c.rank.items() if r), default=-1)
    ranks = [c.dim(n) for n in range(top + 1)]
    diffs = [{"degree": n, **_matrix_to_json(c.d(n))}
             for n in range(1, top + 1) if c.dim(n) and c.dim(n - 1)]
    return {"ranks": ranks, "differentials": diffs}


def category_to_json(f: FlowCategoryData,
                     oracle: Mapping[str, Any] | None = None,
                     ) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "format_version": FORMAT_VERSION,
        "ring": str(f.ring),
        "objects": [
            {
                "name": o.name,
                "index": o.index,
                "framing_rank": o.framing_rank,
                "orientable": o.orientable_flag,
                "chain": _chain_to_json(o.chain),
            }
            for o in f.objects
        ],
        "correspondences": [
            {"from": c.source, "to": c.target,
             "blocks": _blocks_to_json(c.blocks)}
            for c in f.correspondences
        ],
    }
    if f.borel is not None:
        doc["borel"] = {"levels": f.borel.levels,
                        "fiber_names": list(f.borel.fiber_names)}
    if oracle is not None:
        doc["oracle"] = dict(oracle)
    return doc


def _canonical_bytes(doc: Mapping[str, Any]) -> bytes:
    """doc as json.dumps(doc, sort_keys=True, indent=2) lays it out, and
    a newline, walked with a stack of open containers rather than one
    Python frame per level, so any depth the reader returns is written.
    Keys are strings. homalg.digits prints integers, which json.dumps
    refuses past 4,300 digits."""
    out: list[str] = []
    # each open container's closer, padding and members left
    stack: list[tuple[str, str, Iterator]] = []
    v, pad = doc, ""
    while True:
        if isinstance(v, dict) and v:
            out.append("{")
            stack.append(("}", pad, iter([(json.dumps(k) + ": ", v[k])
                                          for k in sorted(v)])))
        elif isinstance(v, (list, tuple)) and v:
            out.append("[")
            stack.append(("]", pad, zip([""] * len(v), v)))
        else:
            out.append(digits(v) if type(v) is int else json.dumps(v))
            out.append(",")
        # a comma follows every value; a container with no member left
        # puts its closer in place of its last member's comma
        while stack:
            ends, pad, members = stack[-1]
            member = next(members, None)
            if member is not None:
                key, v = member
                out.append(f"\n{pad}  {key}")
                pad += "  "
                break
            stack.pop()
            out[-1] = f"\n{pad}{ends}"
            out.append(",")
        else:
            break
    out.pop()  # the comma after the document
    return ("".join(out) + "\n").encode("utf-8")


def serialize_category(f: FlowCategoryData,
                       oracle: Mapping[str, Any] | None = None) -> bytes:
    """Canonical bytes for a category, stable across processes."""
    return _canonical_bytes(category_to_json(f, oracle))


def serialize_bimodule(b: BimoduleData) -> bytes:
    """Canonical bytes for bimodule blocks; the two categories travel
    in their own files."""
    entries = [
        {"from": x, "to": y, "blocks": _blocks_to_json(fam)}
        for (x, y), fam in sorted(b.blocks.items())
    ]
    return _canonical_bytes({"format_version": FORMAT_VERSION,
                             "blocks": entries})


# ---------------------------------------------------------------------------
# parsing


def _decode(data: bytes) -> Any:
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"not UTF-8: {e}") from None
    try:
        try:
            return json.loads(text)
        except json.JSONDecodeError:
            raise
        except ValueError:
            # an integer past Python's limit on decimal digits for
            # int(str); Decimal reads it exactly, and only the files that
            # need it pay for the slower parse
            return json.loads(text, parse_int=lambda v: int(Decimal(v)))
    except json.JSONDecodeError as e:
        raise ParseError(
            f"line {e.lineno} column {e.colno}: {e.msg}") from None
    except RecursionError:
        raise ParseError("JSON nested too deeply") from None


def _want(doc: Any, path: str, type_: type, what: str) -> Any:
    if not isinstance(doc, type_) or isinstance(doc, bool) and type_ is int:
        raise SchemaError(f"{path}: expected {what}")
    return doc


def _field(doc: Mapping, key: str, path: str, type_: type, what: str,
           default: Any = ...) -> Any:
    if key not in doc:
        if default is not ...:
            return default
        raise SchemaError(f"{path}.{key}: missing")
    return _want(doc[key], f"{path}.{key}", type_, what)


# a matrix entry may have any size, but a rank, degree, index or shape
# is printed with str(), which Python refuses past 4,300 digits
_DIGITS_BOUND = 10 ** 4300


def _parse_int(v: Any, path: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise SchemaError(f"{path}: expected an integer")
    if not -_DIGITS_BOUND < v < _DIGITS_BOUND:
        raise SchemaError(f"{path}: more than 4300 digits")
    return v


def _int_field(doc: Mapping, key: str, path: str) -> int:
    return _parse_int(_field(doc, key, path, object, "an integer"),
                      f"{path}.{key}")


def _header(data: bytes) -> dict:
    """The decoded file: a JSON object in the supported format."""
    doc = _want(_decode(data), "file", dict, "a JSON object")
    version = _field(doc, "format_version", "file", str, "a string")
    if version != FORMAT_VERSION:
        raise SchemaError(
            f"file.format_version: unsupported version {version!r}")
    return doc


def _parse_matrix(obj: Mapping, path: str, rows: int, cols: int,
                  ) -> IntegerMatrix:
    shape = _field(obj, "shape", path, list, "an array")
    if len(shape) != 2 or any(not isinstance(s, int) or isinstance(s, bool)
                              or not 0 <= s < _DIGITS_BOUND for s in shape):
        raise SchemaError(f"{path}.shape: expected [rows, cols]")
    if shape != [rows, cols]:
        raise SchemaError(
            f"{path}.shape: is {shape[0]}x{shape[1]}, declared ranks "
            f"demand {rows}x{cols}")
    data = _field(obj, "data", path, list, "an array")
    if len(data) != rows * cols:
        raise SchemaError(
            f"{path}.data: {len(data)} entries for a {rows}x{cols} matrix")
    entries = {}
    for i, v in enumerate(data):
        if type(v) is not int:  # also bool; the path is built only here
            _parse_int(v, f"{path}.data[{i}]")
        if v:
            entries[(i // cols, i % cols)] = v
    return IntegerMatrix(rows, cols, entries)


def _parse_blocks(doc: Mapping, key: str, path: str,
                  shape: Callable[[int], tuple[int, int]],
                  default: Any = ...) -> dict[int, IntegerMatrix]:
    """The blocks listed under doc[key], by degree; the block at degree
    m has shape(m) = (rows, cols)."""
    out: dict[int, IntegerMatrix] = {}
    arr = _field(doc, key, path, list, "an array", default)
    for i, item in enumerate(arr):
        here = f"{path}.{key}[{i}]"
        _want(item, here, dict, "an object")
        m = _int_field(item, "degree", here)
        if m in out:
            raise SchemaError(f"{here}.degree: duplicate degree {m}")
        out[m] = _parse_matrix(item, here, *shape(m))
    return out


def _parse_chain(obj: Mapping, path: str, ring: CoefficientRing,
                 ) -> GradedChainComplex:
    ranks = {}
    for i, r in enumerate(_field(obj, "ranks", path, list, "an array")):
        if _parse_int(r, f"{path}.ranks[{i}]") < 0:
            raise SchemaError(f"{path}.ranks[{i}]: negative rank")
        if r:
            ranks[i] = r
    diffs = _parse_blocks(
        obj, "differentials", path,
        lambda n: (ranks.get(n - 1, 0), ranks.get(n, 0)), default=[])
    return complex_from_ranks(ring, ranks, diffs)


@dataclass(frozen=True)
class CategoryFile:
    """A parsed category file: the data plus its oracle annotation."""

    category: FlowCategoryData
    oracle: Mapping[str, Any] | None = None


def load_category_file(data: bytes) -> CategoryFile:
    """Parse bytes into a CategoryFile without semantic validation.

    Shapes are cross-checked against declared ranks; D.D = 0 is not
    checked here, so deliberately broken fixtures load fine.
    """
    doc = _header(data)
    ring = CoefficientRing.parse(_field(doc, "ring", "file", str, "a string"))
    by_name: dict[str, FlowObject] = {}
    for i, item in enumerate(_field(doc, "objects", "file", list,
                                    "an array")):
        here = f"objects[{i}]"
        _want(item, here, dict, "an object")
        name = _field(item, "name", here, str, "a string")
        if name in by_name:
            raise SchemaError(f"{here}.name: duplicate object name {name!r}")
        chain = _parse_chain(_field(item, "chain", here, dict, "an object"),
                             f"{here}.chain", ring)
        by_name[name] = FlowObject(
            name, _int_field(item, "index", here),
            _int_field(item, "framing_rank", here), chain,
            _field(item, "orientable", here, bool, "a boolean", default=True))
    summands = {n: (o.chain, o.framing_rank) for n, o in by_name.items()}
    corrs = []
    for i, item in enumerate(_field(doc, "correspondences", "file", list,
                                    "an array", default=[])):
        here = f"correspondences[{i}]"
        _want(item, here, dict, "an object")
        src = _field(item, "from", here, str, "a string")
        dst = _field(item, "to", here, str, "a string")
        if src not in by_name:
            raise SchemaError(f"{here}.from: unknown object {src!r}")
        if dst not in by_name:
            raise SchemaError(f"{here}.to: unknown object {dst!r}")
        shape = functools.partial(block_shape, summands[src], summands[dst],
                                  -1)
        corrs.append(CorrespondenceMap(
            src, dst, _parse_blocks(item, "blocks", here, shape)))
    borel = None
    if "borel" in doc:
        item = _want(doc["borel"], "borel", dict, "an object")
        names = _field(item, "fiber_names", "borel", list, "an array")
        for i, nm in enumerate(names):
            _want(nm, f"borel.fiber_names[{i}]", str, "a string")
        borel = BorelMetadata(_int_field(item, "levels", "borel"),
                              tuple(names))
    oracle = None
    if "oracle" in doc:
        oracle = _want(doc["oracle"], "oracle", dict, "an object")
    category = FlowCategoryData(ring, tuple(by_name.values()), tuple(corrs),
                                borel)
    return CategoryFile(category, oracle=oracle)


def parse_category(data: bytes, validate: bool = True) -> FlowCategoryData:
    """Parse and, by default, semantically validate a category file."""
    f = load_category_file(data).category
    if validate:
        diag = validate_category(f)
        if not diag.valid:
            raise ValidationError(diag.issues[0])
    return f


def parse_bimodule(data: bytes, source: FlowCategoryData,
                   target: FlowCategoryData) -> BimoduleData:
    """Parse bimodule blocks between two already-loaded categories."""
    doc = _header(data)
    blocks = {}
    for i, item in enumerate(_field(doc, "blocks", "file", list,
                                    "an array")):
        here = f"blocks[{i}]"
        _want(item, here, dict, "an object")
        x = _field(item, "from", here, str, "a string")
        y = _field(item, "to", here, str, "a string")
        try:
            shape = functools.partial(block_shape, source._summands[x],
                                      target._summands[y], 0)
        except KeyError as e:
            raise SchemaError(f"{here}: unknown object {e.args[0]!r}") \
                from None
        if (x, y) in blocks:
            raise SchemaError(f"{here}: duplicate pair {x!r} -> {y!r}")
        blocks[(x, y)] = _parse_blocks(item, "blocks", here, shape)
    return BimoduleData(source, target, blocks)


# ---------------------------------------------------------------------------
# output helpers


def _styled(stream) -> bool:
    if os.environ.get("MBFLOW_COLOR", "") == "0":
        return False
    return hasattr(stream, "isatty") and stream.isatty()


def _paint(text: str, code: str, on: bool) -> str:
    return f"\x1b[{code}m{text}\x1b[0m" if on else text


def _print_homology(h: HomologySummary, out) -> None:
    on = _styled(out)
    degrees = sorted(set(h.free) | set(h.torsion_factors))
    print(f"ring: {h.ring}", file=out)
    if not degrees:
        print("H = 0", file=out)
        return
    print(_paint("degree  free  torsion", "1", on), file=out)
    for n in degrees:
        tor = ",".join(digits(v) for v in h.torsion(n)) or "-"
        print(f"{digits(n):>6}  {digits(h.free_rank(n)):>4}  {tor}",
              file=out)


def _print_report(rep, out) -> None:
    on = _styled(out)
    print(f"mode: {rep.mode}", file=out)
    print(f"lhs:  {rep.lhs}", file=out)
    print(f"rhs:  {rep.rhs}", file=out)
    verdict = _paint("yes", "32", on) if rep.holds else _paint("no", "31", on)
    print(f"holds: {verdict}", file=out)
    if rep.holds:
        witness = rep.witness if rep.witness is not None else 0
        print(f"witness: {witness}", file=out)
        if rep.is_equality():
            print("equality", file=out)
    else:
        print(f"first failure degree: {digits(rep.failure_degree)}",
              file=out)


# ---------------------------------------------------------------------------
# fixtures


def _fixture_dir():
    return resources.files("mbflow") / "fixtures"


def fixture_names() -> list[str]:
    return sorted(p.name[:-5] for p in _fixture_dir().iterdir()
                  if p.name.endswith(".json"))


def fixture_bytes(name: str) -> bytes:
    f = _fixture_dir() / f"{name}.json"
    if not f.is_file():
        raise ParseError(f"no shipped fixture named {name!r}")
    return f.read_bytes()


# ---------------------------------------------------------------------------
# commands


def _read(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e.strerror}") from None


def _load_with_ring(path: str, ring: str | None) -> FlowCategoryData:
    f = parse_category(_read(path))
    if ring is not None:
        f = category_with_ring(f, CoefficientRing.parse(ring))
    return f


def _cmd_validate(args) -> int:
    f = parse_category(_read(args.file), validate=False)
    diag = validate_category(f)
    if diag.valid:
        print(f"valid: {len(f.objects)} objects, "
              f"{len(f.correspondences)} correspondences")
        return 0
    for issue in diag.issues:
        print(issue, file=sys.stderr)
    return 1


def _cmd_homology(args) -> int:
    f = _load_with_ring(args.file, args.ring)
    _print_homology(homology(totalize(realize(f))), sys.stdout)
    return 0


def _cmd_poincare(args) -> int:
    f = parse_category(_read(args.file))
    h = homology(totalize(realize(f)))
    print(f"dim_t H(Tot) = {dim_t(h)}")
    return 0


def _cmd_check_ineq(args) -> int:
    f = parse_category(_read(args.file))
    if args.equivariant:
        rep = equivariant_inequality(f, args.cutoff)
    else:
        rep = mb_inequality(f)
    _print_report(rep, sys.stdout)
    return 0 if rep.holds else 4


def _cmd_ss(args) -> int:
    f = parse_category(_read(args.file))
    ring = CoefficientRing.prime_field(args.field)
    t = realize(category_with_ring(f, ring))
    res = spectral_sequence(t, args.max_page)
    for page in res.pages:
        r = page.number
        print(f"page {digits(r)}")
        for (p, q) in sorted(page.dims):
            print(f"  E[{digits(p)},{digits(q)}] dim "
                  f"{digits(page.dims[p, q])}")
        for (p, q), rk in sorted(page.ranks.items()):
            print(f"  d{digits(r)} E[{digits(p)},{digits(q)}] -> "
                  f"E[{digits(p - r)},{digits(q + r - 1)}] rank {digits(rk)}")
    if res.collapsed_at is not None:
        print(f"collapsed at page {digits(res.collapsed_at)}")
    print("limit")
    for n in sorted(res.limit):
        print(f"  degree {digits(n)}: dim {digits(res.limit[n])}")
    return 0


def _cmd_cone(args) -> int:
    src = parse_category(_read(args.source))
    dst = parse_category(_read(args.target))
    b = parse_bimodule(_read(args.bimodule), src, dst)
    m = bimodule_to_map(b)
    h = homology(totalize(cone(m)))
    on = _styled(sys.stdout)
    print("cone homology:")
    _print_homology(h, sys.stdout)
    verdict = _paint("yes", "32", on) if h.is_trivial() \
        else _paint("no", "31", on)
    print(f"quasi-isomorphism: {verdict}")
    return 0


def _cmd_dual(args) -> int:
    f = parse_category(_read(args.file))
    d = dualize(f)
    if args.ambient_dim is not None:
        print(f"ambient dimension {args.ambient_dim}: display only; the "
              f"chain-level dual fixes framing ranks intrinsically")
    _print_homology(homology(totalize(realize(d))), sys.stdout)
    return 0


def _cmd_fixtures(args) -> int:
    if args.action == "list":
        for name in fixture_names():
            print(name)
        return 0
    sys.stdout.write(fixture_bytes(args.name).decode("utf-8"))
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    ap = argparse.ArgumentParser(
        prog="mbflow",
        description="Chain-level flow categories: homology, quotients, "
                    "duals, spectral sequences, and Morse-Bott bounds.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a category file")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("homology", help="homology of the realization")
    p.add_argument("file")
    p.add_argument("--ring", help="override coefficients: Z or Fp:<p>")
    p.set_defaults(fn=_cmd_homology)

    p = sub.add_parser("poincare", help="Poincare polynomial of Tot")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_poincare)

    p = sub.add_parser("check-ineq", help="Morse-Bott inequality report")
    p.add_argument("file")
    p.add_argument("--equivariant", action="store_true",
                   help="use the equivariant rank bound (Borel fixtures)")
    p.add_argument("--cutoff", type=int,
                   help="top degree for the equivariant bound")
    p.set_defaults(fn=_cmd_check_ineq)

    p = sub.add_parser("ss", help="index-filtration spectral sequence")
    p.add_argument("file")
    p.add_argument("--field", type=int, required=True,
                   help="prime p for F_p coefficients")
    p.add_argument("--max-page", type=int, default=5)
    p.set_defaults(fn=_cmd_ss)

    p = sub.add_parser("cone", help="cone of a bimodule-induced map")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("bimodule")
    p.set_defaults(fn=_cmd_cone)

    p = sub.add_parser("dual", help="homology of the chain-level dual")
    p.add_argument("file")
    p.add_argument("--ambient-dim", type=int,
                   help="echoed for context; not used in the computation")
    p.set_defaults(fn=_cmd_dual)

    p = sub.add_parser("fixtures", help="shipped example files")
    fsub = p.add_subparsers(dest="action", required=True)
    fl = fsub.add_parser("list", help="list fixture names")
    fl.set_defaults(fn=_cmd_fixtures)
    fe = fsub.add_parser("emit", help="print a fixture file")
    fe.add_argument("name")
    fe.set_defaults(fn=_cmd_fixtures)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    if getattr(args, "equivariant", False) and args.cutoff is None:
        ap.error("--equivariant requires --cutoff")
    if getattr(args, "cutoff", None) is not None and not args.equivariant:
        ap.error("--cutoff requires --equivariant")
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: what is still buffered goes nowhere,
        # and the flush at exit raises nothing more
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ParseError, SchemaError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except UnsupportedRing as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except MBFlowError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
