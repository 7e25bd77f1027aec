"""The traced benchmark run wraps functions and methods of the package by
name; a rename or deletion of any of them should fail here, not in the
benchmark."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_tracer_installs():
    code = ("import sys; sys.path[:0] = ['bench', 'src']; "
            "import tracing; tracing.Tracer().install()")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
