"""Every script in demos/ runs to completion in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ddkit

_ROOT = Path(__file__).resolve().parents[1]
_DEMOS = sorted((_ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", _DEMOS, ids=[p.name for p in _DEMOS])
def test_demo_runs(demo, tmp_path):
    src = Path(ddkit.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                         timeout=300, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr[-2000:]
