"""Outside-in tracer: spans around calls into mbflow's public functions,
recorded from the benchmark's own code.

`Tracer.install` replaces each traced function at every binding inside
the `mbflow.*` modules (a module attribute, a name another module
imported, or a class attribute for methods) and `uninstall` puts the
originals back. Spans (name, start, end, parent, command id) stay in
memory; self time is a span's duration minus its children's and minus
the tracer's own bookkeeping inside it (argument fingerprints and size
probes), so the per-layer times exclude the tracer.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from typing import Callable

import numpy as np

# (module, attribute path, per-layer stats, size probe)
#   size probe: (args, kwargs, result) -> {stat: value}


def _cells_complex(c) -> int:
    return c.total_dim()


def _cells_twisted(t) -> int:
    return sum(c.total_dim() for c in t.pieces.values())


def _cells_category(f) -> int:
    return sum(o.chain.total_dim() for o in f.objects)


def _snf_sizes(args, kwargs, result):
    out = {"entries": len(args[0].entries)}
    if not isinstance(result, tuple):
        out["transform_max_bits"] = max(
            (abs(v).bit_length() for m in (result.u, result.uinv,
                                           result.v, result.vinv)
             for v in m.entries.values()), default=0)
    return out


def _rref_ops(args, kwargs, result):
    rows, cols = np.shape(args[0])
    return {"ops": rows * cols * len(result[1])}


TARGETS = (
    ("homalg", "smith_normal_form",
     ("calls", "self_s", "repeat_ratio", "entries", "transform_max_bits"),
     _snf_sizes),
    ("homalg", "integer_rank", ("calls",), None),
    ("homalg", "homology", ("calls", "self_s", "repeat_ratio", "cells"),
     lambda a, k, r: {"cells": _cells_complex(a[0])}),
    ("homalg", "GradedChainComplex.__post_init__", ("calls", "self_s"), None),
    ("homalg", "IntegerMatrix.__matmul__", ("calls", "self_s"), None),
    ("twisted", "validate", ("calls", "self_s", "repeat_ratio", "cells"),
     lambda a, k, r: {"cells": _cells_twisted(a[0])}),
    ("twisted", "totalize", ("calls", "self_s", "repeat_ratio", "cells"),
     lambda a, k, r: {"cells": _cells_twisted(a[0])}),
    ("twisted", "spectral_sequence", ("calls", "self_s"), None),
    ("twisted", "quotient_sequence", ("calls", "self_s"), None),
    ("twisted", "cone", ("calls", "self_s"), None),
    ("twisted", "TwistedMorphism.__post_init__", ("calls", "self_s"), None),
    ("flowcat", "realize", ("calls", "self_s", "repeat_ratio", "cells"),
     lambda a, k, r: {"cells": _cells_category(a[0])}),
    ("flowcat", "validate_category",
     ("calls", "self_s", "repeat_ratio", "cells"),
     lambda a, k, r: {"cells": _cells_category(a[0])}),
    ("flowcat", "bimodule_to_map", ("calls", "self_s"), None),
    ("flowcat", "include_and_quotient", ("calls", "self_s"), None),
    ("_fplinalg", "rref", ("calls", "self_s", "ops"), _rref_ops),
    ("_fplinalg", "solve", ("calls",), None),
    ("_fplinalg", "null_space", ("calls",), None),
    ("_fplinalg", "rank", ("calls",), None),
    ("cli", "parse_category", ("calls", "self_s", "bytes"),
     lambda a, k, r: {"bytes": len(a[0])}),
    ("cli", "main", ("calls", "self_s"), None),
    ("inequalities", "mb_inequality", ("self_s",), None),
    ("inequalities", "equivariant_inequality", ("self_s",), None),
)

# how each stat combines over the calls of one pass
_MAX_STATS = {"transform_max_bits"}


def metric_name(module: str, attr: str, stat: str) -> str:
    # metric names must start with a letter: _fplinalg reports as fplinalg
    attr = attr.replace(".__post_init__", ".check").replace(
        ".__matmul__", ".matmul")
    return f"{module.lstrip('_')}.{attr}.{stat}"


def unit_of(stat: str) -> str:
    return {"self_s": "s", "repeat_ratio": "ratio",
            "transform_max_bits": "bits", "bytes": "bytes"}.get(stat, "count")


# ---------------------------------------------------------------------------
# fingerprints for the repeat ratio


def fingerprint(obj, memo: dict) -> int:
    """Structural hash of mbflow values, memoized by identity for the
    life of one command (values are immutable)."""
    got = memo.get(id(obj))
    if got is not None:
        return got[0]
    if isinstance(obj, (int, str, float, bool, type(None))):
        return hash(obj)
    entries = getattr(obj, "entries", None)
    if isinstance(entries, dict) and hasattr(obj, "rows"):
        fp = hash((obj.rows, obj.cols, frozenset(entries.items())))
    elif dataclasses.is_dataclass(obj):
        fp = hash((type(obj).__name__,) + tuple(
            fingerprint(getattr(obj, f.name), memo)
            for f in dataclasses.fields(obj)))
    elif isinstance(obj, dict) or hasattr(obj, "items"):
        fp = hash(frozenset((fingerprint(k, memo), fingerprint(v, memo))
                            for k, v in obj.items()))
    elif isinstance(obj, (tuple, list)):
        fp = hash(tuple(fingerprint(x, memo) for x in obj))
    elif isinstance(obj, np.ndarray):
        fp = hash((obj.shape, obj.tobytes()))
    else:
        fp = hash(repr(obj))
    memo[id(obj)] = (fp, obj)
    return fp


# ---------------------------------------------------------------------------
# the tracer


class _Frame:
    __slots__ = ("sid", "child_s")

    def __init__(self, sid: int) -> None:
        self.sid = sid
        self.child_s = 0.0


class Tracer:
    def __init__(self) -> None:
        # span: (sid, name, start, end, parent sid, command id, child_s)
        self.spans: list[tuple] = []
        self.sizes: dict[str, dict[str, float]] = {}
        self.repeats: dict[str, list[int]] = {}   # name -> [repeats, calls]
        self.command = -1
        self._seen: dict[str, set] = {}
        self._memo: dict = {}
        self._stack: list[_Frame] = []
        self._next_sid = 0
        self._patches: list[tuple[object, str, object]] = []
        self.originals: dict[int, str] = {}

    # -- per command -------------------------------------------------------

    def begin_command(self, cid: int) -> None:
        self.command = cid
        self._seen = {}
        self._memo = {}

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, repeat: bool, probe):
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            t0 = clock()
            if repeat:
                key = (fingerprint(args, tracer._memo),
                       fingerprint(tuple(sorted(kwargs.items())), tracer._memo))
                seen = tracer._seen.setdefault(name, set())
                rc = tracer.repeats.setdefault(name, [0, 0])
                rc[0] += key in seen
                rc[1] += 1
                seen.add(key)
            tracer._next_sid += 1
            frame = _Frame(tracer._next_sid)
            stack.append(frame)
            start = clock()
            if parent is not None:
                parent.child_s += start - t0
            try:
                return_value = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer.spans.append((frame.sid, name, start, end,
                                     parent.sid if parent else None,
                                     tracer.command, frame.child_s))
                if parent is not None:
                    parent.child_s += end - start
            if probe is not None:
                got = probe(args, kwargs, return_value)
                acc = tracer.sizes.setdefault(name, {})
                for k, v in got.items():
                    acc[k] = max(acc.get(k, 0), v) if k in _MAX_STATS \
                        else acc.get(k, 0) + v
                if parent is not None:
                    parent.child_s += clock() - end
            return return_value

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        import importlib

        mods = {m: importlib.import_module(f"mbflow.{m}")
                for m in {t[0] for t in TARGETS}}
        for module, attr, stats, probe in TARGETS:
            owner = mods[module]
            *cls_path, leaf = attr.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            orig = owner.__dict__[leaf] if cls_path else getattr(owner, leaf)
            name = metric_name(module, attr, "")[:-1]
            wrapped = self._wrap(name, orig, "repeat_ratio" in stats, probe)
            self.originals[id(orig)] = name
            if cls_path:
                self._patch(owner, leaf, orig, wrapped)
                continue
            for m in _mbflow_modules():
                for binding, val in list(vars(m).items()):
                    if val is orig:
                        self._patch(m, binding, orig, wrapped)

    def _patch(self, owner, attr: str, orig, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def unwrapped(self) -> list[str]:
        """Bindings in mbflow modules (and their classes) that still point
        at an original traced function; must be empty while installed."""
        bad = []
        for m in _mbflow_modules():
            for attr, val in vars(m).items():
                if id(val) in self.originals:
                    bad.append(f"{m.__name__}.{attr}")
                if isinstance(val, type) and val.__module__ == m.__name__:
                    for cattr, cval in vars(val).items():
                        if id(cval) in self.originals:
                            bad.append(f"{m.__name__}.{attr}.{cattr}")
        return bad

    # -- aggregation -------------------------------------------------------

    def calls_by_command(self) -> dict[int, dict[str, int]]:
        out: dict[int, dict[str, int]] = {}
        for _sid, name, _s, _e, _parent, cid, _c in self.spans:
            per = out.setdefault(cid, {})
            per[name] = per.get(name, 0) + 1
        return out

    def take(self) -> dict[str, float]:
        """Per-layer numbers for the spans recorded since the last take."""
        out: dict[str, float] = {}
        for _sid, name, start, end, _parent, _cid, child_s in self.spans:
            out[name + ".calls"] = out.get(name + ".calls", 0) + 1
            out[name + ".self_s"] = out.get(name + ".self_s", 0.0) + \
                (end - start) - child_s
        for name, (rep, calls) in self.repeats.items():
            out[name + ".repeat_ratio"] = rep / calls if calls else 0.0
        for name, acc in self.sizes.items():
            for k, v in acc.items():
                out[f"{name}.{k}"] = v
        self.spans, self.repeats, self.sizes = [], {}, {}
        return out


def _mbflow_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "mbflow" or n.startswith("mbflow."))]
