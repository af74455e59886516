"""The library and command line examples in README.md run as written.

Its asserts hold, and each ``print(...)`` line writes what the comment
beside it says, so the example stays true as the API moves.  Each command
line exits 0, and writes what a ``# -> ...`` comment beside it says.
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

from motzkin import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    (code,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    expected = [
        line.split("#", 1)[1].strip()
        for line in code.splitlines()
        if line.startswith("print(")
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert expected
    assert out.getvalue().splitlines() == expected


def test_readme_command_examples_run(capsys):
    (block,) = re.findall(
        r"## Command line\n\n```sh\n(.*?)```", README.read_text(), re.S
    )
    lines = block.splitlines()
    assert lines
    for line in lines:
        command, _, comment = line.partition("#")
        name, *argv = shlex.split(command)
        assert name == "motzkin"
        assert cli.main(argv) == 0, line
        out = capsys.readouterr().out
        if (note := comment.strip()).startswith("->"):
            assert note[2:].strip() in out, line
        if "--engine both" in command:
            assert out == "", line  # silent when equal
