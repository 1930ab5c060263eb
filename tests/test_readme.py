"""The README's `$ mbl ...` examples print what the README shows under them."""
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def _examples():
    """(setup commands, mbl argv, expected stdout line) per `$ mbl` line.

    Each fenced block starts a fresh set-up list; a `$` line that does not
    run mbl (a `printf` writing an input file) is set-up for the `$ mbl`
    lines after it in the same block.
    """
    examples, setup, lines = [], [], README.read_text(encoding="utf-8").splitlines()
    for i, line in enumerate(lines):
        if line.startswith("```"):
            setup = []
        elif line.startswith("$ mbl "):
            examples.append((list(setup), shlex.split(line[2:])[1:], lines[i + 1]))
        elif line.startswith("$ "):
            setup.append(line[2:])
    return examples


EXAMPLES = _examples()


def test_readme_has_examples():
    assert len(EXAMPLES) >= 4


@pytest.mark.parametrize("setup, argv, want", EXAMPLES, ids=[" ".join(e[1][:2]) for e in EXAMPLES])
def test_readme_example_output(setup, argv, want, tmp_path, mbl_env):
    for command in setup:
        subprocess.run(command, shell=True, cwd=tmp_path, check=True)
    proc = subprocess.run(
        [sys.executable, "-m", "mbl", *argv], cwd=tmp_path, capture_output=True, text=True,
        env=mbl_env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == want + "\n"
