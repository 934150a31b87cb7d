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


def test_benchmark_oracle_accepts_the_engine():
    """perfbench's own checks pass gradua's outputs and reject corrupted ones.

    mutation_check.py runs a few operations of each workload through the
    benchmark's independent oracle, then corrupts their outputs and exits
    non-zero if a corruption goes unnoticed or a genuine output is rejected.
    """
    done = subprocess.run(
        [sys.executable, "perfbench/mutation_check.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
