import contextlib
import io
import re
from fractions import Fraction
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example_prints_its_comments():
    text = README.read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", text, flags=re.S)
    # the value each print line promises: the first token of its comment
    expected = [float(Fraction(line.split("#")[1].split()[0]))
                for line in block.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    printed = [float(line) for line in out.getvalue().split()]
    assert expected == pytest.approx([2.0, 2 / 3, 0.5], abs=1e-12)
    assert printed == pytest.approx(expected, abs=1e-9)
