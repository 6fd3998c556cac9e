"""Tests of the benchmark itself: span arithmetic, the output gate, the
workload configs and the completeness of the trace wrappers.

    python3 -m pytest perfbench -q
"""

import configparser
import os
import shutil
import subprocess
import sys
from collections import Counter

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402
import spans  # noqa: E402
from workloads import REFERENCE_INI, WORKLOADS  # noqa: E402

# Small enough for a second under sys.setprofile, and reaches every
# protocol, both loss regularizers, BN, the adapter and the ensembles.
TINY_CONFIG = """
[scenario]
kind = synthetic
classes = 5
seen = 3
dim = 6
source_per_class = 20
train_per_class = 10
test_per_class = 8
cluster_sep = 6.0
style_angle = 0.3
style_shift = 0.5
seed = 3

[model]
hidden = 8,8
batchnorm = true
in_adapter = true

[protocols]
names = source_only,naive_ft,frozen_ft,lp_ft,bn_affine_only,bn_stats_only,in_adapter_only,sgd_distill,sgd_rank,lolsgd,lolsgd_distill,lolsgd_rank,lolsgd_distill_rank,swa,swad_lite

[pretrain]
epochs = 2

[sgd]
lr = 0.01
batch_size = 8
epochs = 2

[lol]
subsets = 3
leave_k = 1

[loss]
lambda_distill = 1.0
lambda_rank = 1e-4

[swa]
start_epoch = 1

[run]
seeds = 0,1
k_spectrum = 4
ensembles = true
"""


# ------------------------------------------------------------ span arithmetic

def test_self_times_on_hand_built_tree():
    # 0: root [0, 100]
    #   1: [10, 30]            with child 4: [12, 18]
    #   2: [20, 50]            overlaps 1, so the root's cover is [10, 50]
    #   3: [90, 120]           runs past the root, clipped to [90, 100]
    start = [0, 10, 20, 90, 12]
    end = [100, 30, 50, 120, 18]
    parent = [-1, 0, 0, 0, 1]
    assert spans.self_times(start, end, parent) == [50, 14, 30, 30, 6]


def test_layer_metrics_use_self_time_and_call_counts():
    names = ["optim.train_lolsgd", "optim.lolsgd_round", "model.clone",
             "numkit.rng_derive"]
    rec = {
        "names": names,
        "name_idx": [0, 1, 2, 3, 1, 2],
        "parent": [-1, 0, 1, 1, 0, 4],
        "start": [0, 1_000, 1_100, 1_500, 5_000, 5_200],
        "end": [10_000, 4_000, 1_400, 1_700, 9_000, 5_800],
        "counts": {"model.group_of": 7},
        "source_rows": 0, "source_distinct_rows": 0,
        "grad_elems": 40, "frozen_grad_elems": 10, "pool_task_bytes": 5,
    }
    m = spans.layer_metrics(rec)
    # rounds last 3000 + 4000 ns; their children cover 300 + 200 + 600 ns
    assert m["optim.lolsgd_round.self_s"] == pytest.approx(5_900e-9)
    assert m["optim.lolsgd_round.calls"] == 2
    assert m["model.clone.calls"] == 2
    assert m["numkit.rng_derive.us"] == pytest.approx(0.2)
    assert m["model.group_of.calls"] == 7
    assert m["model.backward.frozen_frac"] == 0.25
    assert m["losses.source_forward.distinct_frac"] == 0.0


# ------------------------------------------------------------ output gate

def _write_outputs(d, summary=b"status,x\nok,0.5\n"):
    os.makedirs(d, exist_ok=True)
    with open(os.path.join(d, "curves.csv"), "wb") as f:
        f.write(b"epoch,x\n0,0.25\n")
    with open(os.path.join(d, "summary.csv"), "wb") as f:
        f.write(summary)


def test_gate_catches_a_one_byte_change(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    _write_outputs(a)
    _write_outputs(b, summary=b"status,x\nok,0.6\n")
    gate = bench.OutputGate()
    assert gate.check(bench.digest_outputs(a)) == []
    assert gate.check(bench.digest_outputs(a)) == []
    problems = gate.check(bench.digest_outputs(b))
    assert len(problems) == 1 and problems[0].startswith("summary.csv")

    recorded = bench.OutputGate(bench.digest_outputs(a))
    assert recorded.check(bench.digest_outputs(b)) != []
    os.remove(os.path.join(a, "curves.csv"))
    assert recorded.check(bench.digest_outputs(a)) == ["curves.csv missing"]


def test_cache_check_refuses_a_cold_run_as_warm():
    assert bench.cache_problems({"cache_hits": 4, "pretrains": 0}, 4, warm=True) == []
    assert bench.cache_problems({"cache_hits": 0, "pretrains": 4}, 4, warm=True) != []
    assert bench.cache_problems({"cache_hits": 3, "pretrains": 1}, 4, warm=True) != []
    assert bench.cache_problems({"cache_hits": 0, "pretrains": 4}, 4, warm=False) == []


# ------------------------------------------------------------ workloads

def test_reference_seed0_is_the_frozen_config():
    frozen = configparser.ConfigParser(inline_comment_prefixes=("#",))
    frozen.read(REFERENCE_INI)
    generated = WORKLOADS["reference"].config(0)
    assert {s: dict(frozen[s]) for s in frozen.sections()} == \
        {s: dict(generated[s]) for s in generated.sections()}


def test_workload_seed_sets_scenario_and_run_seeds():
    cp = WORKLOADS["lol-distill-jobs2"].config(2)
    assert cp["scenario"]["seed"] == "2"
    assert cp["run"]["seeds"] == "8,9,10,11"
    assert WORKLOADS["lol-distill-jobs2"].summary_rows() == 20
    assert WORKLOADS["reference"].summary_rows() == 36 + 2 * 33
    assert WORKLOADS["bn-adapter"].config(1)["scenario"]["kind"] == "paired"


# ------------------------------------------------------------ wrappers

def _write_tiny(tmp_path):
    path = str(tmp_path / "tiny.ini")
    with open(path, "w") as f:
        f.write(TINY_CONFIG)
    return path


def _traced_run(tmp_path, tag):
    out = str(tmp_path / tag)
    record = str(tmp_path / f"{tag}.json")
    cmd = [sys.executable, bench.LAUNCH, "--src", bench.SRC, "--record", record,
           "--trace", tag, "--", "run", "--config", _write_tiny(tmp_path),
           "--out", out, "--jobs", "1"]
    subprocess.run(cmd, check=True, capture_output=True, timeout=120,
                   env=bench.child_env())
    return spans.load(record + ".npz"), bench.digest_outputs(out)


def test_traced_call_counts_repeat_exactly(tmp_path):
    rec1, out1 = _traced_run(tmp_path, "a")
    rec2, out2 = _traced_run(tmp_path, "b")
    assert out1 == out2
    counts = spans.call_counts(rec1)
    assert counts == spans.call_counts(rec2)
    assert counts["model.forward_train"] == counts["optim.sgd_step"] \
        == counts["model.backward"] > 0
    assert rec1["run_id"] == "a"


def test_traced_outputs_match_untraced(tmp_path):
    _, traced = _traced_run(tmp_path, "t")
    out = str(tmp_path / "plain")
    subprocess.run([sys.executable, "-m", "htlab.cli", "run", "--config",
                    _write_tiny(tmp_path), "--out", out], check=True,
                   capture_output=True, timeout=120, env=bench.child_env())
    assert bench.digest_outputs(out) == traced


def _span_base(name):
    """The function a span name belongs to: forward spans are named by mode
    and run_protocol spans by protocol kind."""
    if name.startswith("model.forward_"):
        return "model.forward"
    if name.startswith("transfer.run_protocol."):
        return "transfer.run_protocol"
    return name


def test_wrappers_see_every_call(tmp_path):
    """Every call into a wrapped function, counted independently by a
    profile hook, shows up in the trace: no binding escapes."""
    from htlab import cli

    tracer = spans.Tracer("complete")
    uninstall = spans.install(tracer)
    targets = {}  # code object -> traced name
    for short in spans.MODULES:
        mod = sys.modules[f"htlab.{short}"]
        for attr, obj in vars(mod).items():
            orig = getattr(obj, "__wrapped__", None)
            if orig is not None and getattr(orig, "__module__", None) == mod.__name__:
                targets[orig.__code__] = f"{short}.{attr}"
    for (short, cls, meth), name in spans.METHODS.items():
        cls_obj = getattr(sys.modules[f"htlab.{short}"], cls)
        targets[getattr(cls_obj, meth).__wrapped__.__code__] = name

    seen = Counter()
    spans_file = spans.__file__

    def profile(frame, event, arg):
        if event != "call" or frame.f_code not in targets:
            return
        caller = frame.f_back.f_code
        if caller.co_filename == spans_file and caller.co_name != "wrapper":
            return  # the tracer's own bookkeeping
        seen[targets[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        rc = cli.main(["run", "--config", _write_tiny(tmp_path),
                       "--out", str(tmp_path / "out")])
    finally:
        sys.setprofile(None)
        uninstall()
    assert rc == 0

    traced = Counter()
    for name, n in spans.call_counts(tracer.record()).items():
        traced[_span_base(name)] += n
    assert seen, "profile hook saw no calls"
    assert {k: traced[k] for k in seen} == dict(seen)
    for name in ("model.forward", "model.backward", "optim.sgd_step", "metrics.evaluate",
                 "transfer.run_protocol", "transfer.pretrain_source", "model.group_of",
                 "numkit.rng_derive", "losses.composite", "model.clone"):
        assert seen[name] > 0, name
    # uninstall restored every binding
    assert not hasattr(cli.run_protocol, "__wrapped__")
    assert not hasattr(sys.modules["htlab.optim"].forward, "__wrapped__")


# ------------------------------------------------------------ the command

def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "reference",
                          "--seconds", "1"], cwd=tmp_path, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
