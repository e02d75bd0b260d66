"""The CLI's stdout, byte for byte, against committed texts: a change that
moves one byte of a bound table or of a violation, visibility or tolerance
report fails here. Each text is the command's stdout with its
``generated_at`` line removed, kept in ``data/cli_stdout/<name>.txt``."""

import os

import pytest

from belltol.cli import main

STDOUT = os.path.join(os.path.dirname(__file__), "data", "cli_stdout")

BOUNDS = {
    "generic": ["--d", "2..3", "--n", "2..4", "--s", "2,3,inf"],
    "ghz": ["--d", "2..3", "--n", "3..7", "--s", "2,inf"],
    "w": ["--n", "3..5"],
    "dicke": ["--n", "4..6"],
}
COMMANDS = {
    **{f"bounds_{family}_{fmt}": ["bounds", "--family", family, *args, "--format", fmt]
       for family, args in BOUNDS.items() for fmt in ("json", "csv")},
    "tolerance_ghz_2_3": ["tolerance", "--state", "ghz:2,3", "--restarts", "8"],
    "tolerance_product_2_3": ["tolerance", "--state", "product:2,3"],
    "tolerance_w_3": ["tolerance", "--state", "w:3", "--restarts", "3"],
    "tolerance_ghz_3_3": ["tolerance", "--state", "ghz:3,3", "--restarts", "3"],
    "violation_ghz_2_3": ["violation", "--state", "ghz:2,3", "--functional", "mermin",
                          "--functional", "chsh", "--restarts", "2"],
    "visibility_ghz_2_3": ["visibility", "--state", "ghz:2,3", "--functional", "mermin",
                           "--restarts", "2"],
}


def _without_timestamp(text: str) -> str:
    return "".join(line for line in text.splitlines(keepends=True) if '"generated_at"' not in line)


def _committed(name: str) -> str:
    with open(os.path.join(STDOUT, f"{name}.txt"), encoding="utf-8", newline="") as fh:
        return fh.read()


@pytest.mark.parametrize("name", COMMANDS)
def test_stdout_matches_committed_text(capsys, name):
    assert main(COMMANDS[name]) == 0
    assert _without_timestamp(capsys.readouterr().out) == _committed(name)


@pytest.mark.parametrize("name", COMMANDS)
def test_out_file_holds_what_stdout_prints(capsys, tmp_path, name):
    path = tmp_path / "report"
    assert main([*COMMANDS[name], "--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    with open(path, encoding="utf-8", newline="") as fh:
        assert _without_timestamp(fh.read()) == _committed(name)
