"""One workload in a fresh process: set-up, then a timed or a traced run.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --mode MODE --out DIR

Prints ``READY`` once hamest is imported, the model built and the inputs made,
then (modes ``timed`` and ``traced``) one JSON line with the measurements and
the problems found by the correctness checks. Mode ``setup`` stops after
``READY``. ``run.py`` starts this script; it is not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hamest  # noqa: E402
import hamest.runner  # noqa: E402
from hamest.errors import HamestError  # noqa: E402

import spans  # noqa: E402
import stats  # noqa: E402
from workloads import WORKLOADS, digest  # noqa: E402

MIN_TIMED_TRIALS = 100    # completed trials, so p90 has >= 10 samples beyond it
MIN_TRACED_TRIALS = 20
LOOP_CAP_S = 110.0        # stop a timed loop here even short of its minimum
RECHECK_TRIALS = 3        # trials rerun to check determinism and tracing
WARM_UP_TRIALS = 3
TRACE_BLOCK = 5           # trials per alternating untraced/traced block


@dataclass(slots=True)
class Trial:
    index: int
    ns: int               # wall time of the call
    error: str | None     # exception type, if the call raised
    key: str              # fingerprint of the exact result, for bit-identity checks
    success: bool
    work: dict            # copies, accepted copies, stage failures, T


def run_trials(wl, *, first=0, count=None, seconds=None, min_done=0, tracer=None):
    """Closed loop, one client: trial i+1 starts when trial i has returned.

    Runs trials ``first, first+1, ...``: ``count`` of them, or until
    ``seconds`` have passed and ``min_done`` completed. Returns (trials, loop
    wall seconds, problems).
    """
    run = tracer.wrap("trial", wl.run) if tracer else wl.run
    trials, problems, done = [], [], 0
    start = time.perf_counter()
    i = first
    while True:
        if count is not None:
            if i >= first + count:
                break
        else:
            elapsed = time.perf_counter() - start
            if (elapsed >= seconds and done >= min_done) or elapsed >= LOOP_CAP_S:
                break
        inp = wl.prepare(i)
        if tracer:
            tracer.trial = i
        t0 = time.perf_counter_ns()
        try:
            out = run(inp)
        except Exception as exc:  # every failure is counted, by type
            t1 = time.perf_counter_ns()
            name = type(exc).__name__
            if not isinstance(exc, HamestError) or isinstance(exc, wl.fatal_errors):
                problems.append(f"trial {i}: {name}: {exc}")
            trials.append(Trial(i, t1 - t0, name, digest(f"{name}: {exc}"), False, {}))
        else:
            t1 = time.perf_counter_ns()
            success, msgs = wl.check(inp, out)
            problems += [f"trial {i}: {m}" for m in msgs]
            trials.append(Trial(i, t1 - t0, None, wl.key(out), success, wl.work(out)))
            done += 1
        i += 1
    return trials, time.perf_counter() - start, problems


def compare_keys(label, first, second) -> list[str]:
    for a, b in zip(first, second):
        if a.key != b.key:
            return [f"{label}: trial {a.index} differs"]
    if len(first) != len(second):
        return [f"{label}: {len(first)} vs {len(second)} trials"]
    return []


def recheck(wl, trials) -> list[str]:
    """Rerun the first trials untraced and traced; both must match bit for bit."""
    n = min(RECHECK_TRIALS, len(trials))
    again, _, problems = run_trials(wl, count=n)
    problems += compare_keys("rerun with the same seed", trials[:n], again)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced, _, more = run_trials(wl, count=n, tracer=tracer)
    finally:
        tracer.uninstall()
    problems += more + compare_keys("traced vs untraced", trials[:n], traced)
    return problems


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def warm_up(wl):
    """Trials -1, -2, ...: fill caches and finish lazy set-up before timing."""
    run_trials(wl, first=-WARM_UP_TRIALS, count=WARM_UP_TRIALS)


def timed(wl, seconds) -> dict:
    warm_up(wl)
    trials, wall, problems = run_trials(wl, seconds=seconds, min_done=MIN_TIMED_TRIALS)
    rss = peak_rss_mib()
    problems += recheck(wl, trials) + wl.spot_check()
    done = [t for t in trials if t.error is None]
    attempted = len(trials)
    errors: dict[str, int] = {}
    for t in trials:
        if t.error is not None:
            errors[t.error] = errors.get(t.error, 0) + 1
    ms = [t.ns / 1e6 for t in done]
    tail = stats.tail_percentile(len(ms))
    if stats.beyond(len(ms), 90.0) < stats.MIN_BEYOND:
        problems.append(f"only {len(ms)} completed trials; p90 needs 100")
    metrics = {
        "trial_ms_p50": (stats.percentile(ms, 50.0) if ms else float("nan"), "ms"),
        "trial_ms_p90": (stats.percentile(ms, 90.0) if ms else float("nan"), "ms"),
        "trials_per_s": (len(done) / wall, "1/s"),
        "success_rate": (sum(t.success for t in trials) / attempted, "fraction"),
        "completed_share": (len(done) / attempted, "fraction"),
        "peak_rss_mb": (rss, "MiB"),
    }
    info = {"samples": len(ms), "loop_s": wall, "errors_by_type": errors,
            "tail": {"percentile": tail,
                     "ms": stats.percentile(ms, tail) if tail else None}}
    return {"attempted": attempted, "failed": attempted - len(done), "metrics": metrics,
            "problems": problems, "info": info}


def runner_probe(wl, seed, tracer) -> tuple[dict, list[str]]:
    """run_experiment on a slice of the workload's config at jobs=1 and jobs=2."""
    cfg = wl.runner_config(seed)
    t0 = time.perf_counter()
    rows1, _ = hamest.runner.run_experiment(cfg, jobs=1)
    t1 = time.perf_counter()
    rows2, _ = hamest.runner.run_experiment(cfg, jobs=2)
    t2 = time.perf_counter()
    problems = [] if repr(rows1) == repr(rows2) else ["run_experiment rows differ "
                                                      "between jobs=1 and jobs=2"]
    first = len(tracer.spans)
    tracer.install()
    try:
        t3 = time.perf_counter_ns()
        rows3, _ = hamest.runner.run_experiment(cfg, jobs=1)
        t4 = time.perf_counter_ns()
    finally:
        tracer.uninstall()
    if repr(rows3) != repr(rows1):
        problems.append("traced run_experiment rows differ from untraced")
    driver_ns = sum(s[spans.END] - s[spans.START] for s in tracer.spans[first:]
                    if s[spans.NAME] == "estimation.driver" and s[spans.PARENT] < 0)
    del tracer.spans[first:]
    return {"runner.overhead_ms_per_trial": ((t4 - t3 - driver_ns) / 1e6 / cfg.trials, "ms"),
            "runner.jobs2_speedup": ((t1 - t0) / (t2 - t1), "ratio"),
            }, problems


def traced(wl, seconds, seed, out_dir) -> dict:
    """Each block of trials runs untraced, then traced; the two must agree.

    Alternating blocks keep load drift out of the tracing overhead.
    """
    warm_up(wl)
    tracer = spans.Tracer()
    plain, trials, problems = [], [], []
    wall_plain = wall = 0.0
    start = time.perf_counter()
    while ((time.perf_counter() - start < seconds or len(trials) < MIN_TRACED_TRIALS)
           and time.perf_counter() - start < LOOP_CAP_S):
        block, block_wall, more = run_trials(wl, first=len(trials), count=TRACE_BLOCK)
        plain += block
        wall_plain += block_wall
        problems += more
        tracer.install()
        try:
            block, block_wall, more = run_trials(wl, first=len(trials), count=TRACE_BLOCK,
                                                 tracer=tracer)
        finally:
            tracer.uninstall()
        trials += block
        wall += block_wall
        problems += more
    problems += compare_keys("traced vs untraced", plain, trials)
    problems += wl.spot_check()
    n = len(trials)
    totals = spans.layer_totals(tracer.spans)

    def tot(name):
        return totals.get(name, {"calls": 0, "self_ns": 0, "size_sum": 0, "size_max": 0})

    def calls(name):
        return (tot(name)["calls"] / n, "count")

    def self_ms(name):
        return (tot(name)["self_ns"] / 1e6 / n, "ms")

    done = [t for t in trials if t.error is None]
    copies = sum(t.work.get("copies", 0) for t in done)
    accepted = sum(t.work.get("accepted", 0) for t in done)
    times = [t.work["T"] for t in done if "T" in t.work]
    outcomes = tot("estimation.sample")["size_sum"]
    qfi_calls = tot("probe.qfi")["calls"]
    root_ns = sum(s[spans.END] - s[spans.START] for s in tracer.spans
                  if s[spans.NAME] == "trial")
    metrics = {
        "linalg.expm.calls": calls("linalg.expm"),
        "linalg.expm.ms": self_ms("linalg.expm"),
        "linalg.expm.max_dim": (tot("linalg.expm")["size_max"], "dim"),
        "probe.evolve.calls": calls("probe.evolve"),
        "probe.evolve.ms": self_ms("probe.evolve"),
        "probe.qfi.calls": calls("probe.qfi"),
        "probe.qfi.ms": self_ms("probe.qfi"),
        "probe.qfi.evolves_per_call": (
            spans.child_calls(tracer.spans, "probe.qfi", "probe.evolve") / qfi_calls
            if qfi_calls else 0.0, "count"),
        "symmetric.space.calls": calls("symmetric.space"),
        "symmetric.space.ms": self_ms("symmetric.space"),
        "symmetric.collective.calls": calls("symmetric.collective"),
        "symmetric.collective.ms": self_ms("symmetric.collective"),
        "symmetric.max_D": (tot("symmetric.space")["size_max"], "dim"),
        "estimation.frame.ms": self_ms("estimation.frame"),
        "estimation.sample.calls": calls("estimation.sample"),
        "estimation.sample.ms": self_ms("estimation.sample"),
        "estimation.sample.outcomes": (outcomes / n, "count"),
        "estimation.sample.ns_per_outcome": (
            tot("estimation.sample")["self_ns"] / outcomes if outcomes else 0.0, "ns"),
        "estimation.reconstruct.ms": self_ms("estimation.reconstruct"),
        "estimation.invert.ms": self_ms("estimation.invert"),
        "estimation.driver.self_ms": self_ms("estimation.driver"),
        "estimation.copies_per_trial": (copies / len(done) if done else 0.0, "count"),
        "estimation.accept_ratio": (accepted / copies if copies else 0.0, "fraction"),
        "estimation.stage_failures": (
            sum(t.work.get("stage_failures", 0) for t in done) / n, "count"),
        "estimation.T_p50": (stats.percentile(times, 50.0) if times else 0.0, "a.u."),
        "estimation.error_share": ((n - len(done)) / n, "fraction"),
        "trace.overhead_pct": ((wall / wall_plain - 1.0) * 100.0, "%"),
        # Share of the traced trial time that the layer and driver self-times
        # account for; the rest is the benchmark's own wrapper around the call.
        "trace.coverage_pct": ((root_ns - tot("trial")["self_ns"]) / root_ns * 100.0, "%"),
    }
    probe_metrics, more = runner_probe(wl, seed, tracer)
    metrics.update(probe_metrics)
    problems += more
    tracer.dump(out_dir / f"spans-{wl.name}-seed{seed}.json")
    info = {"samples": n, "loop_s_untraced": wall_plain, "loop_s_traced": wall}
    return {"attempted": n, "failed": n - len(done), "metrics": metrics,
            "problems": problems, "info": info}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "timed", "traced"))
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    src = (ROOT / "src").resolve()
    if src not in Path(hamest.__file__).resolve().parents:
        print(f"hamest imported from {hamest.__file__}, not from {src}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    wl.setup(args.seed)
    print("READY", flush=True)
    if args.mode == "setup":
        return 0
    if args.mode == "timed":
        result = timed(wl, args.seconds)
    else:
        result = traced(wl, args.seconds, args.seed, args.out)
    result["metrics"] = {k: {"value": float(v), "unit": u}
                         for k, (v, u) in result["metrics"].items()}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
