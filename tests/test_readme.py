"""Every ``viscowave`` command in README's ``sh`` blocks is one the CLI takes.

A plain command must pass every check that ``cli.main`` makes before a mode
runs; a ``$ viscowave ...`` transcript must be refused with the ``error:``
line printed under it.  The mode runners are stubbed, so nothing is solved.
"""

import re
import shlex
from pathlib import Path

import pytest

from viscowave import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands():
    """(argv, the expected error line or ``None``) of each README command."""
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        lines = block.replace("\\\n", " ").splitlines()
        for i, line in enumerate(lines):
            transcript = line.startswith("$ ")
            command = line.removeprefix("$ ")
            if command.startswith("viscowave "):
                argv = shlex.split(command, comments=True)[1:]
                commands.append((argv, lines[i + 1] if transcript else None))
    return commands


COMMANDS = readme_commands()


def test_readme_shows_commands_and_refusals():
    errors = [error for _, error in COMMANDS]
    assert None in errors and any(e is not None for e in errors)


@pytest.mark.parametrize("argv, error", COMMANDS, ids=[" ".join(a) for a, _ in COMMANDS])
def test_readme_command(argv, error, monkeypatch, capsys):
    for name, mode in list(cli.MODES.items()):
        monkeypatch.setitem(cli.MODES, name, mode._replace(runner=lambda s: 0))
    code = cli.main(argv)
    out, err = capsys.readouterr()
    if error is None:
        assert (code, err) == (0, "")
    else:
        assert (code, out, err) == (1, "", error + "\n")
