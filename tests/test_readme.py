"""README.md's CLI examples print what the README shows.

Every ```sh block whose one line is a `ballsep ...` command and that is
followed by a plain ``` block is run in-process, and its stdout must equal
that block byte for byte.
"""

import re
import shlex
from pathlib import Path

import pytest

from ballsep.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
EXAMPLE = re.compile(r"```sh\n(ballsep [^\n]*)\n```\n\n```\n(.*?)```\n", re.S)
EXAMPLES = EXAMPLE.findall(README.read_text(encoding="utf-8"))


def test_examples_are_found():
    commands = {command.split()[1] for command, _ in EXAMPLES}
    assert {"exact", "estimate", "sweep", "tessellate"} <= commands


@pytest.mark.parametrize("command, shown", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_example_output(capsys, command, shown):
    code = main(shlex.split(command)[1:])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert captured.out == shown
