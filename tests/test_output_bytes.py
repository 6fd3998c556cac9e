"""The bytes `htlab run` writes for each of the benchmark's workloads, run
at the workload's own --jobs, checked against the digests the benchmark
pins (perfbench/digests.json). `reference` draws a synthetic scenario and
`bn-adapter` a paired one, so together they reach both generators;
`lol-distill-jobs2` runs its tasks in two spawned workers, so its rows
cross the process pool. The three runs take about 13 s."""

import hashlib
import json
import os
import sys

import pytest

from htlab.cli import main

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
sys.path.insert(0, PERFBENCH)

from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", ["reference", "lol-distill-jobs2", "bn-adapter"])
def test_workload_csvs_match_pinned_digests(tmp_path, monkeypatch, name):
    monkeypatch.delenv("HTLAB_SEED", raising=False)
    cfg, out = tmp_path / "run.ini", tmp_path / "out"
    with open(cfg, "w") as f:
        WORKLOADS[name].config(0).write(f)
    jobs = str(WORKLOADS[name].jobs)
    assert main(["run", "--config", str(cfg), "--out", str(out), "--jobs", jobs]) == 0
    with open(os.path.join(PERFBENCH, "digests.json")) as f:
        pinned = json.load(f)[name]
    for csv in ("curves.csv", "summary.csv"):
        with open(out / csv, "rb") as f:
            assert hashlib.sha256(f.read()).hexdigest() == pinned[csv], csv
