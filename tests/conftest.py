"""Shared fixtures for tests that start `python -m mbl` as a child process."""
import os
from pathlib import Path

import pytest

import mbl

# The directory holding the `mbl` package this test process imported: the
# checkout's `src/` under `PYTHONPATH=src`, or site-packages after an install.
MBL_ROOT = str(Path(mbl.__file__).resolve().parents[1])


@pytest.fixture
def mbl_env():
    """Environment for a child process that must import the `mbl` under test.

    Children run with `cwd=tmp_path`, where a relative `PYTHONPATH` entry such
    as `src` resolves to nothing, so the absolute package root goes first and
    the inherited entries follow.  Warnings are errors in the child as they
    are in this process (`filterwarnings` in pyproject.toml).
    """
    env = dict(os.environ, PYTHONWARNINGS="error")
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join([MBL_ROOT, inherited] if inherited else [MBL_ROOT])
    return env
