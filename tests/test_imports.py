import os
import subprocess
import sys
from pathlib import Path

import hamest

# One many_channel trial reaches the eigenbasis of the stage unitary, and the
# Magnus check reaches the principal logarithm: the two callers of unitary_eig.
RUN_PATH = """
import sys
import hamest, hamest.verify
hamest.run_many_channel(hamest.make_model("full", 2), [0.3, -0.2, 0.1], 0.05, 1.0, seed=3)
hamest.verify.check_magnus_small_time(samples=5)
loaded = sorted(name for name in sys.modules if name.startswith("scipy"))
assert not loaded, loaded
"""


def test_run_path_imports_no_scipy():
    src = str(Path(hamest.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", RUN_PATH], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
