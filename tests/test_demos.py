"""Each script under demos/ runs to completion against the package.

The demos call the public API only, so they break when it loses a name
they use.  Each runs in a fresh interpreter inside a temporary directory,
because render_gallery.py writes its SVGs under the working directory.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import polyharm

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("script", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(polyharm.__file__))
    done = subprocess.run([sys.executable, str(DEMOS / script)], cwd=tmp_path,
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
