"""README's examples, run as written.

Every `$ mbflow ...` line of README's transcript blocks runs through
`cli.main` in a directory holding each shipped fixture as `<name>.json`,
and what a terminal would show (stdout, then stderr) must match the
lines under it. A `...` line stands for any run of lines: the lines
before it must open the output and the lines after it must close it.
`$ echo $?` checks the exit code of the command before it, and
`> FILE` writes the command's stdout to FILE. The Library block is
executed, and each bare expression with a trailing `# comment` must
print as that comment.
"""

from __future__ import annotations

import ast
import contextlib
import io
import re
import shlex
from pathlib import Path

from mbflow.cli import fixture_bytes, fixture_names, main

README = Path(__file__).resolve().parent.parent / "README.md"
FENCE = re.compile(r"^```(\w*)\n(.*?)^```", re.MULTILINE | re.DOTALL)


def _blocks(lang: str) -> list[str]:
    return [body for kind, body in FENCE.findall(README.read_text())
            if kind == lang]


def _transcripts() -> list[tuple[str, list[str]]]:
    """(command, expected output lines) for each `$ ` line, in order."""
    steps: list[tuple[str, list[str]]] = []
    for body in _blocks(""):
        if not body.startswith("$ "):
            continue
        for line in body.splitlines():
            if line.startswith("$ "):
                steps.append((line[2:], []))
            else:
                steps[-1][1].append(line)
    return steps


def _matches(got: list[str], want: list[str]) -> bool:
    if "..." not in want:
        return got == want
    cut = want.index("...")
    head, tail = want[:cut], want[cut + 1:]
    return len(got) >= len(head) + len(tail) and got[:len(head)] == head \
        and got[len(got) - len(tail):] == tail


def test_readme_transcripts(tmp_path, monkeypatch):
    for name in fixture_names():
        (tmp_path / f"{name}.json").write_bytes(fixture_bytes(name))
    monkeypatch.chdir(tmp_path)
    steps = _transcripts()
    assert len(steps) >= 8
    code = None
    for command, want in steps:
        argv = shlex.split(command)
        if argv == ["echo", "$?"]:
            got = [str(code)]
        else:
            assert argv[0] == "mbflow", command
            argv, redirect = argv[1:], None
            if ">" in argv:
                argv, redirect = argv[:argv.index(">")], argv[-1]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main(argv)
            if redirect is not None:
                Path(redirect).write_text(out.getvalue())
                out = io.StringIO()
            got = (out.getvalue() + err.getvalue()).splitlines()
        assert _matches(got, want), (command, got)


def test_readme_library_block():
    (source,) = _blocks("python")
    lines = source.splitlines()
    scope: dict = {}
    checked = 0
    for stmt in ast.parse(source).body:
        code = ast.get_source_segment(source, stmt)
        line = lines[stmt.lineno - 1]
        if isinstance(stmt, ast.Expr) and "#" in line:
            value = eval(code, scope)
            assert str(value) == line.split("#", 1)[1].strip(), code
            checked += 1
        else:
            exec(code, scope)
    assert checked == 4
