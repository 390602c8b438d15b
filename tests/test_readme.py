"""The README's command-line examples print what the README shows.

Every fenced ``proxgap ...`` example that is followed by an output block
runs through ``cli.main``; the block must equal the last lines of stdout.
"""

import re
import shlex
from pathlib import Path

import pytest

from proxgap.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _examples():
    fenced = re.findall(r"^```\n(.*?)^```$", README.read_text(), re.M | re.S)
    blocks = [b.strip("\n") for b in fenced]
    return [
        (command, output)
        for command, output in zip(blocks, blocks[1:])
        if command.startswith("proxgap ") and not output.startswith("proxgap ")
    ]


EXAMPLES = _examples()


def test_readme_has_the_five_examples():
    assert [shlex.split(command)[1] for command, _ in EXAMPLES] == [
        "eval",
        "sweep",
        "series",
        "verify",
        "oracle-compare",
    ]


@pytest.mark.parametrize("command, output", EXAMPLES, ids=[shlex.split(c)[1] for c, _ in EXAMPLES])
def test_readme_example_output(command, output, capsys, monkeypatch):
    monkeypatch.delenv("PROXGAP_OUTPUT_DIR", raising=False)
    code = main(shlex.split(command)[1:])
    lines = capsys.readouterr().out.splitlines()
    want = output.splitlines()
    assert code == 0
    assert lines[-len(want):] == want
