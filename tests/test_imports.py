import os
import subprocess
import sys
from pathlib import Path

import hamest

# One many_channel trial reaches the eigenbasis of the stage unitary, and the
# Magnus check reaches the principal logarithm: the two callers of unitary_eig.
# Its stages are single chunks, so they fold on the calling thread alone.
RUN_PATH = """
import sys
import hamest, hamest.verify
hamest.run_many_channel(hamest.make_model("full", 2), [0.3, -0.2, 0.1], 0.05, 1.0, seed=3)
hamest.verify.check_magnus_small_time(samples=5)
loaded = sorted(name for name in sys.modules if name.startswith("scipy"))
assert not loaded, loaded
assert "concurrent.futures.thread" not in sys.modules
"""

# A one-channel stage of 57 600 copies folds its chunks on the calling thread and
# one helper thread, joined within the call: no thread outlives the run, and no
# thread pool is imported.
ONE_CHANNEL_RUN = """
import sys, threading
import hamest
before = threading.active_count()
hamest.run_one_channel(hamest.make_model("full", 2), [0.3, -0.2, 0.1], 0.1, 1.0, seed=3)
assert threading.active_count() == before, (before, threading.active_count())
assert "concurrent.futures.thread" not in sys.modules
"""

# A serial run never starts a process pool, so it must not import one.
SERIAL_RUN = """
import sys
from hamest.config import parse_config_text
from hamest.runner import run_experiment
cfg = parse_config_text("model=full\\nd=2\\nscheme=adaptive\\ndelta=0.1\\ne=1\\ntrials=2\\n")
rows, _ = run_experiment(cfg, jobs=1)
assert len(rows) == 2 and not any(r["error"] for r in rows), rows
assert "concurrent.futures.process" not in sys.modules
"""


# The dense oracles and the per-outcome reference sampler live in hamest.verify,
# which the package itself never imports.
NO_DENSE_ORACLES = """
import sys
import hamest, hamest.estimation, hamest.linalg, hamest.symmetric
assert "hamest.verify" not in sys.modules
removed = ("SymSpace", "sym_space", "collective", "collective_trace_moments",
           "magnus_operator", "unitary_principal_log")
for mod in (hamest, hamest.symmetric, hamest.linalg):
    left = [name for name in removed if hasattr(mod, name)]
    assert not left, (mod.__name__, left)
assert not hasattr(hamest.estimation, "sample_haar_outcomes")
"""


def run_fresh(code):
    src = str(Path(hamest.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)


def test_run_path_imports_no_scipy():
    proc = run_fresh(RUN_PATH)
    assert proc.returncode == 0, proc.stderr


def test_package_exports_no_dense_oracle():
    proc = run_fresh(NO_DENSE_ORACLES)
    assert proc.returncode == 0, proc.stderr


def test_serial_run_imports_no_process_pool():
    proc = run_fresh(SERIAL_RUN)
    assert proc.returncode == 0, proc.stderr


def test_one_channel_run_leaves_no_thread():
    proc = run_fresh(ONE_CHANNEL_RUN)
    assert proc.returncode == 0, proc.stderr
