"""Every script in demos/ runs to completion against this checkout's `src/`."""

import subprocess
import sys

import pytest

from helpers import REPO, src_env

DEMOS = sorted((REPO / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS  # an empty parametrization would only skip


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    # each demo writes under demo_output/ in its working directory
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=src_env(),
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
