"""Byte-for-byte CLI transcript over every shipped fixture.

The golden file records exit code, stdout and stderr of each command in
`commands()`. Refactors of the assembly and totalization code must leave
every byte of it unchanged. To re-record it (only when an output change
is intended), run this file as a script from the repository root:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

GOLDEN = Path(__file__).with_name("golden") / "cli_transcript.json"

PER_FIXTURE = (
    ["validate"],
    ["homology"],
    ["homology", "--ring", "Fp:2"],
    ["homology", "--ring", "Fp:3"],
    ["poincare"],
    ["check-ineq"],
    ["dual"],
    ["ss", "--field", "2"],
    ["ss", "--field", "3"],
)


def commands(names: list[str]) -> list[list[str]]:
    """argv lists with fixture names standing for their file paths."""
    out = []
    for name in names:
        for cmd in PER_FIXTURE:
            out.append([cmd[0], f"@{name}", *cmd[1:]])
    for name in ("borel_free_circle_3", "borel_s2_rotation_3"):
        out.append(["check-ineq", f"@{name}", "--equivariant",
                    "--cutoff", "5"])
    out.append(["cone", "@s2_two_point", "@sphere_z2", "@continuation_s2"])
    return out


def run_transcript() -> list[dict]:
    import mbflow
    from mbflow.cli import fixture_names, main

    root = Path(list(mbflow.__path__)[0]) / "fixtures"
    records = []
    for argv in commands(fixture_names()):
        real = [str(root / f"{a[1:]}.json") if a.startswith("@") else a
                for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(real)
        records.append({"argv": argv, "exit": code,
                        "stdout": out.getvalue(), "stderr": err.getvalue()})
    return records


def test_cli_transcript_matches_golden():
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = run_transcript()
    assert [r["argv"] for r in got] == [r["argv"] for r in want]
    for g, w in zip(got, want):
        assert g == w, " ".join(w["argv"])


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(run_transcript(), indent=1) + "\n",
                      encoding="utf-8")
    sys.exit(0)
