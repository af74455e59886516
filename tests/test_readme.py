"""The library example in README.md runs as written.

Its asserts hold, and each ``print(...)`` line writes what the comment
beside it says, so the example stays true as the API moves.
"""

import contextlib
import io
import re
from pathlib import Path

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
