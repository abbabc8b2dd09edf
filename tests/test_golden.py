"""The golden set of tests/make_golden.py: every artifact as tests/golden.json holds it.

With the numpy version and machine that made golden.json, every artifact
must match its SHA-256.  Elsewhere bitwise equality cannot be expected:
then every text artifact is compared field by field, numbers at 1e-12
relative (with a floor of 1e-12 absolute), and snapshots are not compared.
"""

import json
import math
import platform

import numpy as np
from make_golden import GOLDEN, describe, produce

TOLERANCE = 1e-12


def _close(got: str, want: str) -> bool:
    try:
        a, b = float(got), float(want)
    except ValueError:
        return got == want
    if math.isnan(b):
        return math.isnan(a)
    return abs(a - b) <= TOLERANCE * max(abs(a), abs(b), 1.0)


def _rows_close(got: str, want: str) -> bool:
    sep = " = " if " = " in want else ","
    a, b = got.split(sep), want.split(sep)
    return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))


def _first_difference(name: str, got: list, want: list, exact: bool):
    """The first differing line of a text artifact, or None."""
    same = (lambda a, b: a == b) if exact else _rows_close
    for i, (a, b) in enumerate(zip(got, want)):
        if not same(a, b):
            return f"{name}: line {i + 1} is {a!r}, golden {b!r}"
    if len(got) != len(want):
        return f"{name}: {len(got)} lines, golden {len(want)}"
    return None


def test_every_golden_artifact_is_reproduced(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    exact = (golden["numpy"], golden["machine"]) == (np.__version__, platform.machine())
    mode = (
        "exact mode: SHA-256 of every artifact" if exact else
        f"tolerance mode ({TOLERANCE:g} relative, snapshots skipped): golden.json was made with "
        f"numpy {golden['numpy']} on {golden['machine']}, this is numpy {np.__version__} on {platform.machine()}"
    )
    produced = produce(tmp_path)
    problems = []
    if sorted(produced) != sorted(golden["runs"]):
        problems.append(f"runs {sorted(produced)}, golden {sorted(golden['runs'])}")
    for run, (code, artifacts) in produced.items():
        want = golden["runs"].get(run)
        if want is None:
            continue
        if code != want["exit"]:
            problems.append(f"{run}: exit {code}, golden {want['exit']}")
        if sorted(artifacts) != sorted(want["artifacts"]):
            problems.append(f"{run}: artifacts {sorted(artifacts)}, golden {sorted(want['artifacts'])}")
        for name, data in artifacts.items():
            expected = want["artifacts"].get(name)
            got = describe(name, data)
            if expected is None or got["sha256"] == expected["sha256"]:
                continue
            if "lines" in got:
                found = _first_difference(f"{run}/{name}", got["lines"], expected["lines"], exact)
                if found:
                    problems.append(found)
                elif exact:  # the same lines, so line endings or a last newline differ
                    problems.append(f"{run}/{name}: SHA-256 differs, lines do not")
            elif exact:
                problems.append(f"{run}/{name}: SHA-256 differs")
    assert not problems, f"[{mode}]\n" + "\n".join(problems)
