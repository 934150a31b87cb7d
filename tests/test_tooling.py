"""The benchmark's tracer still finds every gradua layer it wraps.

perfbench/spans.py wraps engine functions by name from outside; renaming or
removing one of them would break `perfbench/run.py --trace 1` without any
engine test noticing. This test installs the tracer in a fresh interpreter.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_tracer_installs():
    script = (
        "import sys; sys.path[:0] = ['perfbench', 'src']; "
        "import spans; spans.install(spans.Tracer())"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
