"""The benchmark tracer wraps ``mimicsde`` callables by name.

Deleting or renaming one of them breaks a traced benchmark run; this test
makes the suite fail first.  It only imports ``perfbench/tracer.py``.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_over_every_wrapped_name():
    paths = [str(ROOT / "src"), str(ROOT / "perfbench"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    code = "import tracer; tracer.install(tracer.Tracer())"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
