"""Golden records: `hamest run` must reproduce the CSVs and summaries stored with each config.

Each ``data/golden/<name>.cfg`` has a ``<name>.csv`` and a ``<name>.summary.json``
written by ``hamest run --config <name>.cfg --out <name>.csv``.  Integer, string
and boolean cells, each stage's n, copies and failed flag, and the summary's keys
and integer values compare exactly.  Float cells and summary values compare to a
relative 1e-9, so that BLAS rounding on other hosts does not fail.
"""

import functools
import json
import math
from pathlib import Path

import pytest

from hamest.config import parse_config
from hamest.runner import CSV_HEADER, rows_to_csv, run_experiment

GOLDEN = Path(__file__).parent / "data" / "golden"
NAMES = sorted(p.stem for p in GOLDEN.glob("*.cfg"))
FLOAT_COLUMNS = {"delta", "E", "theta_err", "total_time"}


def parse_csv(text):
    header, *lines = text.splitlines()
    assert header == CSV_HEADER
    cols = header.split(",")
    return [dict(zip(cols, line.split(","))) for line in lines]


def same_float(a, b) -> bool:
    x, y = float(a), float(b)
    return (math.isnan(x) and math.isnan(y)) or math.isclose(x, y, rel_tol=1e-9)


def parse_stages(cell):
    """`n:tau:copies:accept_rate[:failed]` per stage, `|`-separated."""
    stages = []
    for stage in cell.split("|") if cell else []:
        n, tau, copies, rate, *flag = stage.split(":")
        stages.append((int(n), tau, int(copies), rate, flag == ["failed"]))
    return stages


def same_summary_value(got, want) -> bool:
    if isinstance(want, float):
        return isinstance(got, float) and same_float(got, want)
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(same_summary_value(got[k], want[k]) for k in want))
    return type(got) is type(want) and got == want


def golden_rows(name):
    return parse_csv((GOLDEN / f"{name}.csv").read_text())


@functools.cache
def golden_run(name):
    """run_experiment's rows and summary for the golden config, once per name."""
    return run_experiment(parse_config(GOLDEN / f"{name}.cfg"))


@pytest.mark.parametrize("name", NAMES)
def test_run_reproduces_golden_csv(name):
    rows, _ = golden_run(name)
    got, want = parse_csv(rows_to_csv(rows)), golden_rows(name)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        where = (name, w["trial"])
        for col in CSV_HEADER.split(","):
            if col in FLOAT_COLUMNS:
                assert same_float(g[col], w[col]), (*where, col, g[col], w[col])
            elif col != "stages":
                assert g[col] == w[col], (*where, col, g[col], w[col])
        g_stages, w_stages = parse_stages(g["stages"]), parse_stages(w["stages"])
        assert len(g_stages) == len(w_stages), where
        for (gn, gtau, gcopies, grate, gfailed), (wn, wtau, wcopies, wrate, wfailed) \
                in zip(g_stages, w_stages):
            assert (gn, gcopies, gfailed) == (wn, wcopies, wfailed), (*where, wn)
            assert same_float(gtau, wtau) and same_float(grate, wrate), (*where, wn)


@pytest.mark.parametrize("name", NAMES)
def test_run_reproduces_golden_summary(name):
    _, got = golden_run(name)
    want = json.loads((GOLDEN / f"{name}.summary.json").read_text())
    assert same_summary_value(got, want), (name, got, want)


def test_golden_set_covers_failed_stage():
    # no valid config yields an errored row; tests/test_cli.py checks that row's cells
    assert len(NAMES) == 7
    rows = [row for name in NAMES for row in golden_rows(name)]
    assert any(stage[4] for row in rows for stage in parse_stages(row["stages"]))
