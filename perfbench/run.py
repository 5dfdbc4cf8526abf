"""hamest benchmark: one command, each workload in fresh processes.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository; the package is imported
from the checkout's ``src/``. With ``--trace 0`` it measures the end-to-end
metrics with tracing off; with ``--trace 1`` a separate traced run gives the
per-layer metrics. Every run checks the program's outputs and exits 1 when a
check fails. Set-up time is the median over several fresh processes. The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the environment, the checks and
every metric also go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import importlib.metadata as md
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("tomography", "adaptive", "many_channel", "qfi_audit")
SETUP_ONLY_RUNS = 4      # plus the timed process: set-up is the median of 5
BLAS_THREADS = 1         # x 2 runner workers <= nproc on a 2-CPU machine
WORKER_TIMEOUT_S = 170.0
MAX_PRINTED_PROBLEMS = 20


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("PYTHONPATH", None)
    return env


def start_worker(workload, seed, seconds, mode, out_dir, deadline):
    """Run worker.py; returns (its output after READY, seconds until READY)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
           "--out", str(out_dir)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=worker_env(),
                            cwd=ROOT)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline().strip()
        setup = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready != "READY" or proc.returncode != 0:
        raise RuntimeError(f"worker {mode} {workload} failed (exit {proc.returncode})")
    return rest, setup


def environment(seed) -> dict:
    env = {"python": platform.python_version(), "machine": platform.machine(),
           "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
           "blas_threads": BLAS_THREADS, "seed": seed}
    for pkg in ("numpy", "scipy"):
        try:
            env[pkg] = md.version(pkg)
        except md.PackageNotFoundError:
            env[pkg] = None
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu"] = next((line.split(":", 1)[1].strip() for line in fh
                               if line.startswith("model name")), None)
    except OSError:
        env["cpu"] = None
    return env


def blas_name() -> str | None:
    code = ("import numpy, json; b = numpy.show_config(mode='dicts')"
            "['Build Dependencies']['blas']; print(json.dumps([b.get('name'), b.get('version')]))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=worker_env(), timeout=60)
    return " ".join(json.loads(out.stdout)) if out.returncode == 0 else None


def run_workload(name, seed, seconds, trace, out_dir, deadline) -> dict:
    if trace:
        text, _ = start_worker(name, seed, seconds, "traced", out_dir, deadline)
        return json.loads(text.strip().splitlines()[-1])
    setups = [start_worker(name, seed, seconds, "setup", out_dir, deadline)[1]
              for _ in range(SETUP_ONLY_RUNS)]
    text, setup = start_worker(name, seed, seconds, "timed", out_dir, deadline)
    result = json.loads(text.strip().splitlines()[-1])
    setups.append(setup)
    result["info"]["setup_s_samples"] = setups
    metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}}
    metrics.update(result["metrics"])
    result["metrics"] = metrics
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2 ** 64 or args.seconds <= 0:
        ap.error("need 0 <= seed < 2**64 and seconds > 0")
    if not (ROOT / "src" / "hamest" / "__init__.py").is_file():
        print(f"no hamest package under {ROOT / 'src'}; run inside a checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + WORKER_TIMEOUT_S
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    env = environment(args.seed)
    env["blas"] = blas_name()
    print("# env " + json.dumps(env, sort_keys=True))
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        if args.workload == "all":
            deadline = time.monotonic() + WORKER_TIMEOUT_S
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace, out_dir,
                                  deadline)
        except (RuntimeError, ValueError, IndexError) as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 2
        result["env"] = env
        path = out_dir / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
        for metric, mv in result["metrics"].items():
            print(f"# {name} {metric} = {mv['value']:.6g} {mv['unit']}")
        for problem in result["problems"][:MAX_PRINTED_PROBLEMS]:
            print(f"# {name} CHECK FAILED: {problem}")
        if len(result["problems"]) > MAX_PRINTED_PROBLEMS:
            print(f"# {name} ... {len(result['problems']) - MAX_PRINTED_PROBLEMS} more "
                  f"failed checks in {path.name}")
        results[name] = result

    correct = all(not r["problems"] for r in results.values())
    line = {name: {"correct": not r["problems"], "attempted": r["attempted"],
                   "failed": r["failed"], "metrics": r["metrics"]}
            for name, r in results.items()}
    print(json.dumps(line[names[0]] if len(names) == 1 else
                     {"correct": correct, "workloads": line}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
