"""The README's example commands run, its config table names the config keys,
and its install line states the numpy floor of pyproject.toml."""

import inspect
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from invlab import cli, config

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def example_lines():
    """(command, comment) of every `invlab ...` line in the README's sh blocks,
    `\\` continuations joined; synopsis lines with <...> placeholders are skipped."""
    lines = []
    for block in re.findall(r"^```sh\n(.*?)^```", README, flags=re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            command, _, comment = line.partition("#")
            if command.startswith("invlab ") and "<" not in command:
                lines.append((" ".join(command.split()), comment.strip()))
    return lines


EXAMPLES = example_lines()


def test_the_readme_has_examples_of_each_solver_command():
    commands = {shlex.split(command)[1] for command, _ in EXAMPLES}
    assert {"run", "convergence", "oracle-check"} <= commands


@pytest.mark.parametrize("command,comment", EXAMPLES, ids=[command for command, _ in EXAMPLES])
def test_example_runs(command, comment, monkeypatch, tmp_path):
    argv = shlex.split(command)[1:]
    args = cli._build_parser().parse_args(argv)
    if args.command in ("run", "convergence"):
        # resolved, not stepped: the examples run for minutes
        monkeypatch.chdir(ROOT)
        cfg = cli._resolve_config(args.config, getattr(args, "set", None) or ())
        assert config.parse_config(config.config_echo(cfg)) == cfg
    elif args.command == "oracle-check":
        monkeypatch.chdir(tmp_path)
        stated = re.search(r"exit (\d)", comment)
        assert cli.main(argv) == (int(stated.group(1)) if stated else cli.EXIT_OK)


def test_config_table_names_every_key():
    table = README.split("| key | default | meaning |", 1)[1].split("\n\n", 1)[0]
    cells = [row.split("|")[1] for row in table.splitlines()[2:]]
    keys = {key for cell in cells for key in re.findall(r"`([^`]+)`", cell)}
    assert keys == set(config._SCHEMA)


def test_the_numpy_floor_has_the_out_keyword_that_forward_passes_to_rfft2():
    # numpy added rfft2's out= in 2.0; under the floor every `invlab run` would raise TypeError
    floor = re.search(r'"numpy>=([0-9.]+)"', (ROOT / "pyproject.toml").read_text()).group(1)
    assert tuple(int(part) for part in floor.split(".")[:2]) >= (2, 0)
    assert f"numpy>={floor}" in README
    assert "out" in inspect.signature(np.fft.rfft2).parameters
