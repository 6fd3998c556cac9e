"""The bytes `htlab run` writes for each of the benchmark's workloads, run
at the workload's own --jobs, checked against the digests the benchmark
pins (perfbench/digests.json). `reference` draws a synthetic scenario and
`bn-adapter` a paired one, so together they reach both generators;
`lol-distill-jobs2` runs its tasks in two forked workers, so its rows
cross the process pool. The three runs take about 13 s.

Also every file of two `htlab gen` directories, one per generator: a
synthetic scenario with all three style keys nonzero and an odd width (so
one axis is left out of the plane rotations), and a paired one of three
pairs. Their digests pin the generators' draws and the meta text."""

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


_COUNTS = ["--source-per-class", "30", "--train-per-class", "10", "--test-per-class", "8"]
_GEN_DIGESTS = {
    "synthetic": (["--classes", "6", "--seen", "4", "--dim", "7", "--seed", "3",
                   "--cluster-sep", "5", "--style-angle", "0.4", "--style-shift", "1.5",
                   "--style-noise", "0.2"], {
        "meta": "3608ab30d33433ffc0ac75b492f5eb77dbe1337c2b882ad7b3256a169aa0d9d3",
        "source_train_x.f64": "a47b9f03f77a7fecfaad891561093323175e72f7f018cd4a36fcabd82bd42e7b",
        "source_train_y.idx": "df6ef572c4ec1940509756457127b93d5269d17e10eb35ea83da23962941d9b1",
        "target_test_x.f64": "7fe708aba78ca0cebbff01a037a50799f2336375448999fc6cedab9f36692eee",
        "target_test_y.idx": "6e9328ea830e998ca76c78a2184ccab005e322d7a3dabf65113d451152048171",
        "target_train_x.f64": "0a9cf1c793976465f0284bdf7df5c10a8d84c17913179a585a75a30c83894552",
        "target_train_y.idx": "e057b1bb00d5f316dd5e8815c67193c9516165d6b7b39de700083a9eeb38c2af",
    }),
    "paired": (["--pairs", "3", "--dim", "6", "--overlap", "0.5", "--seed", "2"], {
        "meta": "d727c970179e2924c99607bd440e9f3b9b8a7d8fad3c97ffdfcc0c6a530c5e77",
        "source_train_x.f64": "b3257c8b995ea136373761eb145fd1ac1aa62f3dc0e6ccaa6bb5c176dcbf7351",
        "source_train_y.idx": "df6ef572c4ec1940509756457127b93d5269d17e10eb35ea83da23962941d9b1",
        "target_test_x.f64": "70c44bacf71c184eaa05783eee2292ad5d5eb11a5e261038a470fc56a8b736f2",
        "target_test_y.idx": "6e9328ea830e998ca76c78a2184ccab005e322d7a3dabf65113d451152048171",
        "target_train_x.f64": "3cc95923d67d655fb6ceb5b649fb08ac78c39a97d542769cbab2847a039cecf4",
        "target_train_y.idx": "0dfc5d0fe83c794ef0c306c1ec2dd187f7d37d2314eb865a8aacca614051b748",
    }),
}


@pytest.mark.parametrize("kind", sorted(_GEN_DIGESTS))
def test_gen_directory_matches_pinned_digests(tmp_path, kind):
    flags, pinned = _GEN_DIGESTS[kind]
    out = tmp_path / kind
    assert main(["gen", *flags, *_COUNTS, "--out", str(out)]) == 0
    written = {}
    for name in os.listdir(out):
        with open(out / name, "rb") as f:
            written[name] = hashlib.sha256(f.read()).hexdigest()
    assert written == pinned
