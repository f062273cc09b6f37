"""The library example of README.md runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_example() -> str:
    section = README.read_text().split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_prints_its_comments():
    code = _library_example()
    prints = [line for line in code.splitlines() if line.startswith("print(")]
    assert prints and all("# " in line for line in prints)
    expected = [line.split("# ", 1)[1].strip() for line in prints]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
