import contextlib
import io
import json
import re
import shlex
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


def test_readme_cli_block_runs(capsys):
    from belltol.cli import main

    text = README.read_text(encoding="utf-8")
    (block,) = [b for b in re.findall(r"```sh\n(.*?)```", text, flags=re.S)
                if b.startswith("belltol ")]
    intervals = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        assert main(shlex.split(command)[1:]) == 0, line
        data = json.loads(capsys.readouterr().out)
        if "tol interval" in comment:
            row = data["results"][0]
            intervals.append((comment.split("[")[1], [row["tol_lo"], row["tol_hi"]]))
    # the one promised value: "[1/3, 2/3]" on the ghz bounds line
    ((promised, printed),) = intervals
    expected = [float(Fraction(x)) for x in promised.rstrip("]").split(",")]
    assert expected == pytest.approx([1 / 3, 2 / 3], abs=1e-12)
    assert printed == pytest.approx(expected, abs=1e-9)
