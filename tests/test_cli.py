import glob
import importlib.util
import json
import multiprocessing.queues
import os
import re
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import htlab
import htlab.cli as cli
from htlab.cli import _worker_env, build_scenario, load_config, main
from htlab.data import load_scenario
from htlab.model import load_checkpoint, save_checkpoint
from htlab.optim import SgdConfig
from htlab.transfer import DivergenceError

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CONFIG_TEMPLATE = """
[scenario]
kind = synthetic
classes = 5
seen = 3
dim = 6
source_per_class = 40
train_per_class = 12
test_per_class = 8
cluster_sep = 6.0
style_angle = 0.3
style_shift = 0.5
style_noise = 0.1
seed = 11

[model]
hidden = 8,8
activation = relu

[protocols]
names = {names}

[pretrain]
lr = 0.02
epochs = 6

[sgd]
lr = 0.01
momentum = 0.9
weight_decay = 0.0005
batch_size = 16
epochs = 2

[run]
seeds = {seeds}
output_dir = {out}
k_spectrum = 6
ensembles = {ensembles}
"""


def _write_config(tmp_path, names="source_only,naive_ft", seeds="0,1,2",
                  ensembles="false", extra=""):
    out = str(tmp_path / "results")
    text = CONFIG_TEMPLATE.format(names=names, seeds=seeds, out=out,
                                  ensembles=ensembles) + extra
    path = str(tmp_path / "exp.ini")
    with open(path, "w") as f:
        f.write(text)
    return path, out


def _read(path):
    with open(path, "rb") as f:
        return f.read()


def _edit(path, old, new):
    text = _read(path).decode()
    assert old in text
    with open(path, "w") as f:
        f.write(text.replace(old, new))


# ------------------------------------------------------------ gen

def test_gen_produces_loadable_directory(tmp_path):
    out = str(tmp_path / "scn")
    rc = main(["gen", "--classes", "10", "--seen", "6", "--dim", "16",
               "--seed", "7", "--out", out])
    assert rc == 0
    s = load_scenario(out)
    assert s.num_classes == 10
    assert int(s.seen_mask.sum()) == 6


def test_gen_regeneration_is_byte_identical(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    flags = ["--classes", "6", "--seen", "4", "--dim", "8", "--seed", "3",
             "--style-angle", "0.4"]
    assert main(["gen", *flags, "--out", a]) == 0
    assert main(["gen", *flags, "--out", b]) == 0
    for name in sorted(os.listdir(a)):
        assert _read(os.path.join(a, name)) == _read(os.path.join(b, name)), name


def test_gen_rejects_no_unseen(tmp_path, capsys):
    rc = main(["gen", "--classes", "10", "--seen", "10",
               "--out", str(tmp_path / "scn")])
    assert rc == 1
    assert "no unseen classes" in capsys.readouterr().err


def test_gen_refuses_nonempty_without_force(tmp_path):
    out = str(tmp_path / "scn")
    assert main(["gen", "--classes", "5", "--seen", "3", "--out", out]) == 0
    assert main(["gen", "--classes", "5", "--seen", "3", "--out", out]) == 1
    assert main(["gen", "--classes", "5", "--seen", "3", "--out", out,
                 "--force"]) == 0


def test_gen_paired_scenario(tmp_path):
    out = str(tmp_path / "tox")
    rc = main(["gen", "--pairs", "4", "--dim", "8", "--overlap", "0.5",
               "--seed", "2", "--out", out])
    assert rc == 0
    s = load_scenario(out)
    assert s.num_classes == 8
    assert s.toxicity is not None and len(s.toxicity.pairs) == 4


def test_gen_rejects_flag_the_kind_does_not_read(tmp_path, capsys):
    out = str(tmp_path / "tox")
    assert main(["gen", "--pairs", "4", "--classes", "10", "--out", out]) == 1
    assert "[scenario] classes" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_gen_flags_build_the_same_scenario_as_config_keys(tmp_path):
    out = str(tmp_path / "scn")
    assert main(["gen", "--classes", "5", "--seen", "3", "--dim", "6", "--seed", "4",
                 "--cluster-sep", "5", "--style-noise", "0.1", "--out", out]) == 0
    path = str(tmp_path / "exp.ini")
    with open(path, "w") as f:
        f.write("[scenario]\nclasses = 5\nseen = 3\ndim = 6\nseed = 4\ncluster_sep = 5\n"
                "style_noise = 0.1\n[protocols]\nnames = naive_ft\n[run]\nseeds = 0\n")
    built, saved = build_scenario(load_config(path)["scenario"]), load_scenario(out)
    assert built.scenario_id == saved.scenario_id
    for split in ("source_train", "target_train", "target_test"):
        assert np.array_equal(getattr(built, split).X, getattr(saved, split).X)
        assert np.array_equal(getattr(built, split).y, getattr(saved, split).y)


@pytest.mark.parametrize("key, line", [
    ("format", None),
    ("format", "format = bogus"),
    ("count_target_test", "count_target_test = 7"),
    ("dim", "dim = 5"),
    ("seen", "seen = 1,2,99"),
], ids=["format-missing", "format-bogus", "count", "dim", "seen-out-of-range"])
def test_run_rejects_an_import_whose_meta_disagrees_naming_the_key(tmp_path, capsys,
                                                                   key, line):
    # a `htlab gen` directory of 400 test rows of width 16, its `key` line
    # replaced by `line` or dropped
    scn, out = str(tmp_path / "scn"), str(tmp_path / "out")
    assert main(["gen", "--out", scn]) == 0
    meta = os.path.join(scn, "meta")
    lines = _read(meta).decode().splitlines()
    [i] = [i for i, ln in enumerate(lines) if ln.startswith(f"{key} = ")]
    lines[i:i + 1] = [line] if line else []
    with open(meta, "w") as f:
        f.write("\n".join(lines) + "\n")
    cfg = str(tmp_path / "import.ini")
    with open(cfg, "w") as f:
        f.write(f"[scenario]\nkind = import\npath = {scn}\n[protocols]\nnames = naive_ft\n"
                f"[run]\nseeds = 0\noutput_dir = {out}\n")
    capsys.readouterr()
    assert main(["run", "--config", cfg]) == 1
    assert capsys.readouterr().err.startswith(f"error: {meta}: {key} ")
    assert not os.path.exists(out)


# ------------------------------------------------------------ run

def test_run_row_bookkeeping(tmp_path):
    cfg, out = _write_config(tmp_path)
    assert main(["run", "--config", cfg]) == 0
    with open(os.path.join(out, "summary.csv")) as f:
        lines = [ln for ln in f.read().splitlines() if ln]
    assert len(lines) == 1 + 3 * 2  # header + seeds x protocols
    header = lines[0].split(",")
    assert header[:4] == ["status", "scenario_id", "protocol", "seed"]
    with open(os.path.join(out, "curves.csv")) as f:
        curve_lines = [ln for ln in f.read().splitlines() if ln]
    # source_only has 1 curve row per seed, naive_ft epochs+1 = 3
    assert len(curve_lines) == 1 + 3 * 1 + 3 * 3


def test_run_rerun_byte_identical(tmp_path):
    cfg, out = _write_config(tmp_path)
    assert main(["run", "--config", cfg]) == 0
    first = _read(os.path.join(out, "summary.csv"))
    first_curves = _read(os.path.join(out, "curves.csv"))
    assert main(["run", "--config", cfg]) == 0  # second run reuses cached source
    assert _read(os.path.join(out, "summary.csv")) == first
    assert _read(os.path.join(out, "curves.csv")) == first_curves


# every preset that trains with SGD, on a model with batchnorm and an input
# adapter, with both loss terms and the ensembles
_BN_ADAPTER_SGD = dict(
    names="naive_ft,frozen_ft,lp_ft,bn_affine_only,in_adapter_only,sgd_distill,sgd_rank,"
          "swa,swad_lite", ensembles="true",
    extra="\n[loss]\nlambda_distill = 1.0\nlambda_rank = 1e-4\n\n[swa]\nstart_epoch = 1\n")


@pytest.mark.parametrize("case", ["plain", "bn-adapter-sgd-presets"])
def test_run_parallel_matches_sequential(tmp_path, monkeypatch, case):
    # at --jobs 1 a protocol's seeds train stacked, at --jobs 2 one per task
    if case == "plain":
        cfg, _ = _write_config(tmp_path)
    else:
        cfg, _ = _write_config(tmp_path, **_BN_ADAPTER_SGD)
        _edit(cfg, "activation = relu", "activation = relu\nbatchnorm = true\nin_adapter = true")
    pools = []

    def recording_pool(**kwargs):
        pools.append(kwargs)
        return ProcessPoolExecutor(**kwargs)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", recording_pool)
    environ = dict(os.environ)
    outputs = {}
    for jobs in ("1", "2"):
        out = str(tmp_path / f"jobs{jobs}")
        assert main(["run", "--config", cfg, "--out", out, "--jobs", jobs]) == 0
        assert dict(os.environ) == environ
        outputs[jobs] = [_read(os.path.join(out, name))
                         for name in ("curves.csv", "summary.csv")]
    assert outputs["2"] == outputs["1"]
    # --jobs 1 builds no pool; the workers of --jobs 2 get only the queue
    # that carries the scenario and the source params, not the state itself
    [pool] = pools
    (queue,) = pool["initargs"]
    assert isinstance(queue, multiprocessing.queues.Queue)


def test_run_parallel_isolates_failing_cells(tmp_path, capsys):
    # bn_stats_only without a batchnorm model fails inside its worker
    cfg, out = _write_config(tmp_path, names="naive_ft,bn_stats_only", seeds="0,1")
    assert main(["run", "--config", cfg, "--jobs", "2"]) == 2
    with open(os.path.join(out, "summary.csv")) as f:
        rows = [ln.split(",") for ln in f.read().splitlines()[1:] if ln]
    assert [(r[0], r[2], r[3]) for r in rows] == [
        ("ok", "naive_ft", "0"), ("ok", "naive_ft", "1"),
        ("FAILED", "bn_stats_only", "0"), ("FAILED", "bn_stats_only", "1")]
    err = capsys.readouterr().err
    for seed in ("0", "1"):
        assert f"FAILED bn_stats_only seed={seed}: bn_stats_only requires a model " \
               "with batchnorm" in err
    assert "naive_ft seed=" not in err


def test_run_parallel_as_a_module_process(tmp_path):
    # spawned workers re-import the main module, so `python -m htlab.cli`
    # must have no side effects at import; 4 cells give 4 workers, likely
    # more than the cores, and a worker left without the shared state would
    # hang the run past the timeout
    cfg, out = _write_config(tmp_path, seeds="0,1")
    src = os.path.dirname(os.path.dirname(htlab.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-m", "htlab.cli", "run", "--config", cfg,
                           "--jobs", "4"], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "4/4 runs completed" in proc.stdout


def _threads(n, *names):
    return {v: n for v in names or ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                    "MKL_NUM_THREADS")}


@pytest.mark.parametrize("environ, jobs, cells, cpus, want", [
    ({}, 2, 20, 2, _threads("1")),
    ({}, 2, 20, 8, _threads("4")),
    ({}, 8, 3, 6, _threads("2")),   # 3 cells need only 3 workers
    ({}, 4, 20, 2, _threads("1")),  # never below one thread
    # a value the caller set, even empty, is the caller's
    ({"OMP_NUM_THREADS": "3", "MKL_NUM_THREADS": ""}, 2, 20, 8,
     _threads("4", "OPENBLAS_NUM_THREADS")),
])
def test_worker_env_splits_usable_cpus_over_workers(environ, jobs, cells, cpus, want):
    assert _worker_env(environ, jobs, cells, cpus) == want


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_run_diverged_cells_fail_naming_protocol_and_epoch(tmp_path, capsys):
    cfg, out = _write_config(tmp_path, names="naive_ft,frozen_ft", seeds="0")
    _edit(cfg, "[sgd]\nlr = 0.01", "[sgd]\nlr = 50")
    assert main(["run", "--config", cfg]) == 2
    with open(os.path.join(out, "summary.csv")) as f:
        statuses = [ln.split(",")[0] for ln in f.read().splitlines()[1:] if ln]
    assert statuses == ["FAILED", "FAILED"]
    err = capsys.readouterr().err
    assert re.search(r"FAILED naive_ft seed=0: naive_ft diverged at epoch \d+: non-finite", err)
    assert re.search(r"FAILED frozen_ft seed=0: frozen_ft diverged at epoch \d+: non-finite",
                     err)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_run_diverged_pretrain_exits_2_naming_it(tmp_path, capsys):
    cfg, _ = _write_config(tmp_path, names="naive_ft", seeds="0")
    _edit(cfg, "[pretrain]\nlr = 0.02", "[pretrain]\nlr = 50")
    assert main(["run", "--config", cfg]) == 2
    assert re.search(r"runtime failure: pretrain diverged at epoch \d+: non-finite",
                     capsys.readouterr().err)


def test_run_diverged_pretrain_prints_no_numpy_warnings(tmp_path):
    cfg, _ = _write_config(tmp_path, names="naive_ft", seeds="0")
    _edit(cfg, "[pretrain]\nlr = 0.02", "[pretrain]\nlr = 50")
    src = os.path.dirname(os.path.dirname(htlab.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-m", "htlab.cli", "run", "--config", cfg],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 2
    assert "runtime failure: pretrain diverged" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_run_diverged_pretrain_fails_only_its_seed(tmp_path, capsys, monkeypatch, jobs):
    # at --jobs 2 the DivergenceError reaches the workers with the sources
    cfg, out = _write_config(tmp_path, names="source_only,naive_ft", seeds="0,1")
    pretrain = cli.pretrain_source

    def diverge_seed_0(scenario, spec, pre_cfg, rng):
        if rng.seed == 0:
            raise DivergenceError("pretrain", 3, "backbone")
        return pretrain(scenario, spec, pre_cfg, rng)

    monkeypatch.setattr(cli, "pretrain_source", diverge_seed_0)
    assert main(["run", "--config", cfg, "--jobs", jobs]) == 2
    err = capsys.readouterr().err
    assert "FAILED naive_ft seed=0: pretrain diverged at epoch 3: non-finite backbone" in err
    with open(os.path.join(out, "summary.csv")) as f:
        rows = [ln.split(",")[:4] for ln in f.read().splitlines()[1:]]
    assert [(r[0], r[2], r[3]) for r in rows] == [
        ("FAILED", "source_only", "0"), ("ok", "source_only", "1"),
        ("FAILED", "naive_ft", "0"), ("ok", "naive_ft", "1")]
    with open(os.path.join(out, "curves.csv")) as f:
        assert {ln.split(",")[2] for ln in f.read().splitlines()[1:]} == {"1"}
    assert not os.path.exists(os.path.join(out, "source_seed0.ckpt"))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_run_diverging_seed_fails_alone(tmp_path, capsys, monkeypatch, jobs):
    # seed 1's source is finite but scaled so far that training overflows;
    # at --jobs 1 it shares a stack with seeds 0 and 2
    cfg, _ = _write_config(tmp_path, names="source_only,naive_ft,lp_ft,swa")
    pretrain = cli.pretrain_source

    def overflow_seed_1(scenario, spec, pre_cfg, rng):
        params = pretrain(scenario, spec, pre_cfg, rng)
        if rng.seed == 1:
            params.flat[...] *= 1e60
        return params

    monkeypatch.setattr(cli, "pretrain_source", overflow_seed_1)
    monkeypatch.delenv("HTLAB_SEED", raising=False)
    with_1, without_1 = str(tmp_path / "with"), str(tmp_path / "without")
    assert main(["run", "--config", cfg, "--out", with_1, "--jobs", jobs]) == 2
    err = capsys.readouterr().err
    assert "FAILED naive_ft seed=1: naive_ft diverged at epoch 1: non-finite backbone" in err
    failed = re.findall(r"FAILED (\w+) seed=(\d+): (\w+) diverged at epoch \d+: non-finite "
                        r"(\w+)", err)
    assert [(p, s) for p, s, _, _ in failed] == [("naive_ft", "1"), ("lp_ft", "1"),
                                                 ("swa", "1")]
    assert all(p == where for p, _, where, _ in failed)
    monkeypatch.setenv("HTLAB_SEED", "0,2")
    assert main(["run", "--config", cfg, "--out", without_1, "--jobs", jobs]) == 0

    def rows(out, name, keep):
        with open(os.path.join(out, name)) as f:
            return [ln for ln in f.read().splitlines() if keep(ln.split(","))]

    for name, seed_col in (("curves.csv", 2), ("summary.csv", 3)):
        assert rows(with_1, name, lambda r: r[seed_col] != "1") == \
            rows(without_1, name, lambda r: True)
    seed_1 = [ln.split(",") for ln in rows(with_1, "summary.csv", lambda r: r[3] == "1")]
    assert [(r[0], r[2]) for r in seed_1] == [
        ("ok", "source_only"), ("FAILED", "naive_ft"), ("FAILED", "lp_ft"), ("FAILED", "swa")]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_run_seed_whose_features_overflow_fails_alone(tmp_path, capfd, monkeypatch, jobs):
    # seed 1's source is finite, but its features overflow the Gram the
    # spectrum is taken from: that seed fails at epoch 0, naming the protocol
    # and the features, without a numpy warning (made an error here, and
    # read from the workers' stderr at --jobs 2)
    cfg, _ = _write_config(tmp_path, names="source_only,naive_ft")
    pretrain = cli.pretrain_source

    def overflow_seed_1(scenario, spec, pre_cfg, rng):
        params = pretrain(scenario, spec, pre_cfg, rng)
        if rng.seed == 1:
            params.flat[...] *= 1e100
        return params

    monkeypatch.setattr(cli, "pretrain_source", overflow_seed_1)
    monkeypatch.delenv("HTLAB_SEED", raising=False)
    with_1, without_1 = str(tmp_path / "with"), str(tmp_path / "without")
    assert main(["run", "--config", cfg, "--out", with_1, "--jobs", jobs]) == 2
    err = capfd.readouterr().err
    for kind in ("source_only", "naive_ft"):
        assert f"FAILED {kind} seed=1: {kind} diverged at epoch 0: non-finite features" \
            in err
    assert "Warning" not in err
    monkeypatch.setenv("HTLAB_SEED", "0,2")
    assert main(["run", "--config", cfg, "--out", without_1, "--jobs", jobs]) == 0
    for name, seed_col in (("curves.csv", 2), ("summary.csv", 3)):
        with open(os.path.join(with_1, name)) as f:
            kept = [ln for ln in f.read().splitlines() if ln.split(",")[seed_col] != "1"]
        assert kept == _read(os.path.join(without_1, name)).decode().splitlines()


@pytest.mark.parametrize("names, seeds, env", [
    ("naive_ft", "0,0", None),
    ("naive_ft,naive_ft", "0", None),
    ("naive_ft", "0", "1,1"),
], ids=["seeds", "protocols", "HTLAB_SEED"])
def test_run_repeated_seed_or_protocol_exits_1_before_writing(tmp_path, capsys, monkeypatch,
                                                              names, seeds, env):
    if env is None:
        monkeypatch.delenv("HTLAB_SEED", raising=False)
    else:
        monkeypatch.setenv("HTLAB_SEED", env)
    cfg, out = _write_config(tmp_path, names=names, seeds=seeds)
    assert main(["run", "--config", cfg]) == 1
    assert "is listed more than once" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("old, new", [
    ("[sgd]\nlr = 0.01", "[sgd]\nlr = nan"),
    ("[sgd]\nlr = 0.01", "[sgd]\nlr = inf"),
    ("weight_decay = 0.0005", "weight_decay = inf"),
    ("[run]", "[lol]\nlocal_budget = nan\n\n[run]"),
    ("[run]", "[loss]\nlambda_distill = nan\n\n[run]"),
    ("[run]", "[loss]\nlambda_rank = inf\n\n[run]"),
    ("k_spectrum = 6", "k_spectrum = -3"),
], ids=["lr-nan", "lr-inf", "weight_decay-inf", "local_budget-nan", "lambda_distill-nan",
        "lambda_rank-inf", "k_spectrum-negative"])
def test_run_non_finite_or_out_of_range_number_exits_1(tmp_path, capsys, old, new):
    cfg, out = _write_config(tmp_path, names="naive_ft", seeds="0")
    _edit(cfg, old, new)
    assert main(["run", "--config", cfg]) == 1
    assert "error:" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_run_epoch0_rows_match_source_rows(tmp_path):
    cfg, out = _write_config(tmp_path)
    assert main(["run", "--config", cfg]) == 0
    with open(os.path.join(out, "curves.csv")) as f:
        lines = [ln.split(",") for ln in f.read().splitlines() if ln]
    header = lines[0]
    rows = [dict(zip(header, ln)) for ln in lines[1:]]
    for seed in ("0", "1", "2"):
        src = [r for r in rows if r["protocol"] == "source_only" and r["seed"] == seed]
        nft0 = [r for r in rows if r["protocol"] == "naive_ft"
                and r["seed"] == seed and r["epoch"] == "0"]
        assert len(src) == 1 and len(nft0) == 1
        for col in header[4:]:
            assert src[0][col] == nft0[0][col]


def test_run_seed_env_override(tmp_path, monkeypatch):
    cfg, out = _write_config(tmp_path)
    monkeypatch.setenv("HTLAB_SEED", "5")
    assert main(["run", "--config", cfg]) == 0
    with open(os.path.join(out, "summary.csv")) as f:
        lines = [ln for ln in f.read().splitlines() if ln]
    assert len(lines) == 1 + 1 * 2
    assert all(ln.split(",")[3] == "5" for ln in lines[1:])


def test_run_failure_marks_row_and_exits_2(tmp_path, capsys):
    # bn_stats_only without a batchnorm model fails at run time per cell
    cfg, out = _write_config(tmp_path, names="naive_ft,bn_stats_only", seeds="0")
    rc = main(["run", "--config", cfg])
    assert rc == 2
    with open(os.path.join(out, "summary.csv")) as f:
        lines = [ln for ln in f.read().splitlines() if ln]
    statuses = {ln.split(",")[2]: ln.split(",")[0] for ln in lines[1:]}
    assert statuses["naive_ft"] == "ok"
    assert statuses["bn_stats_only"] == "FAILED"
    assert "FAILED" in capsys.readouterr().err


def test_run_ensembles_add_rows(tmp_path):
    cfg, out = _write_config(tmp_path, names="naive_ft", seeds="0",
                             ensembles="true")
    assert main(["run", "--config", cfg]) == 0
    with open(os.path.join(out, "summary.csv")) as f:
        lines = [ln for ln in f.read().splitlines() if ln]
    protocols = [ln.split(",")[2] for ln in lines[1:]]
    assert protocols == ["naive_ft", "naive_ft+SE@0.5", "naive_ft+WiSE@0.5"]


def test_run_bad_config_exits_1(tmp_path, capsys):
    path = str(tmp_path / "broken.ini")
    with open(path, "w") as f:
        f.write("[scenario]\nkind = synthetic\n")  # no [run]
    assert main(["run", "--config", path]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["run", "--config", str(tmp_path / "missing.ini")]) == 1


def test_run_float_serialization_round_trips(tmp_path):
    cfg, out = _write_config(tmp_path, names="naive_ft", seeds="0")
    assert main(["run", "--config", cfg]) == 0
    with open(os.path.join(out, "summary.csv")) as f:
        lines = [ln.split(",") for ln in f.read().splitlines() if ln]
    header, row = lines[0], lines[1]
    vals = dict(zip(header, row))
    # 17 significant digits: parse-and-reformat is the identity
    for col in ("overall", "seen", "unseen", "seen_chopped"):
        x = float(vals[col])
        assert "%.17g" % x == vals[col]


def test_run_jobs_below_one_exits_1(tmp_path, capsys):
    cfg, out = _write_config(tmp_path)
    assert main(["run", "--config", cfg, "--jobs", "0"]) == 1
    assert "--jobs" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_run_leave_k_not_below_target_classes_exits_1_before_pretraining(tmp_path, capsys):
    # the target training split holds the 3 seen classes; [lol] leave_k defaults to 3
    cfg, out = _write_config(tmp_path, names="naive_ft,lolsgd", seeds="0")
    assert main(["run", "--config", cfg]) == 1
    assert ("error: [lol] leave_k = 3 must be below the 3 classes of the target "
            "training split") in capsys.readouterr().err
    assert not os.path.exists(out)
    # the same value is fine when no protocol runs leave-out local SGD
    cfg, out = _write_config(tmp_path, names="naive_ft", seeds="0")
    assert main(["run", "--config", cfg]) == 0


# ------------------------------------------------------------ source cache

def _drop_key(ckpt):
    save_checkpoint(load_checkpoint(ckpt), ckpt)


@pytest.mark.parametrize("change", [
    lambda cfg, ckpt: _edit(cfg, "[pretrain]\nlr = 0.02", "[pretrain]\nlr = 0.03"),
    lambda cfg, ckpt: _edit(cfg, "hidden = 8,8", "hidden = 16,16"),
    lambda cfg, ckpt: _edit(cfg, "seed = 11", "seed = 12"),
    lambda cfg, ckpt: _drop_key(ckpt),
], ids=["pretrain-lr", "width", "scenario-seed", "checkpoint-without-key"])
def test_source_cache_retrains_a_stale_checkpoint(tmp_path, capsys, change):
    cfg, out = _write_config(tmp_path, names="naive_ft", seeds="0")
    assert main(["run", "--config", cfg]) == 0
    ckpt = os.path.join(out, "source_seed0.ckpt")
    change(cfg, ckpt)
    capsys.readouterr()
    assert main(["run", "--config", cfg]) == 0
    err = capsys.readouterr().err
    assert err.count("note:") == 1 and f"{ckpt} was pretrained under another" in err
    # the rerun equals a fresh run of the changed config, checkpoint included
    fresh = str(tmp_path / "fresh")
    assert main(["run", "--config", cfg, "--out", fresh]) == 0
    for name in ("source_seed0.ckpt", "curves.csv", "summary.csv"):
        assert _read(os.path.join(out, name)) == _read(os.path.join(fresh, name)), name


@pytest.mark.parametrize("cut", [
    lambda raw: b"",
    lambda raw: raw[:raw.index(b"\nend\n") - 7],
    lambda raw: raw[:raw.index(b"\nend\n") + 5],
    lambda raw: raw[:-3],
], ids=["empty", "inside-header", "no-payload", "short-payload"])
def test_source_cache_retrains_a_truncated_checkpoint(tmp_path, capsys, cut):
    # what a run killed while writing its checkpoint used to leave behind
    cfg, out = _write_config(tmp_path, names="naive_ft", seeds="0")
    fresh = str(tmp_path / "fresh")
    assert main(["run", "--config", cfg, "--out", fresh]) == 0
    ckpt = os.path.join(out, "source_seed0.ckpt")
    os.makedirs(out)
    with open(ckpt, "wb") as f:
        f.write(cut(_read(os.path.join(fresh, "source_seed0.ckpt"))))
    capsys.readouterr()
    assert main(["run", "--config", cfg]) == 0
    err = capsys.readouterr().err
    assert err.count("note:") == 1 and f"note: {ckpt}: " in err and "retraining it" in err
    for name in ("source_seed0.ckpt", "curves.csv", "summary.csv"):
        assert _read(os.path.join(out, name)) == _read(os.path.join(fresh, name)), name
    assert sorted(os.listdir(out)) == ["curves.csv", "source_seed0.ckpt", "summary.csv"]


def test_source_cache_loads_an_unchanged_config(tmp_path, capsys, monkeypatch):
    cfg, out = _write_config(tmp_path, names="naive_ft", seeds="0,1")
    assert main(["run", "--config", cfg]) == 0
    first = [_read(os.path.join(out, n)) for n in ("source_seed0.ckpt", "summary.csv")]
    capsys.readouterr()

    def no_pretrain(*args, **kwargs):
        raise AssertionError("pretrained although the cache was valid")

    monkeypatch.setattr(cli, "pretrain_source", no_pretrain)
    assert main(["run", "--config", cfg]) == 0
    assert "note:" not in capsys.readouterr().err
    assert [_read(os.path.join(out, n)) for n in ("source_seed0.ckpt", "summary.csv")] == first


# ------------------------------------------------------------ config schema

SECTIONS = ("scenario", "model", "protocols", "pretrain", "sgd", "lol", "loss", "swa",
            "run")


@pytest.mark.parametrize("section", SECTIONS)
def test_unknown_key_exits_1_naming_it(tmp_path, capsys, section):
    path, out = _write_config(tmp_path)
    with open(path) as f:
        text = f.read()
    if f"[{section}]" in text:
        text = text.replace(f"[{section}]", f"[{section}]\nbogus_key = 1", 1)
    else:
        text += f"\n[{section}]\nbogus_key = 1\n"
    with open(path, "w") as f:
        f.write(text)
    assert main(["run", "--config", path]) == 1
    assert f"[{section}] bogus_key" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "summary.csv"))


def test_misspelled_epochs_exits_1(tmp_path, capsys):
    path, out = _write_config(tmp_path)
    with open(path) as f:
        text = f.read()
    with open(path, "w") as f:
        f.write(text.replace("batch_size = 16\nepochs = 2", "batch_size = 16\nepoch = 3"))
    assert main(["run", "--config", path]) == 1
    err = capsys.readouterr().err
    assert "[sgd]" in err and "epoch" in err
    assert not os.path.exists(os.path.join(out, "curves.csv"))


@pytest.mark.parametrize("extra, reason", [("[sdg]", "unknown section [sdg]"),
                                           ("[sgd]", "already exists")],
                         ids=["unknown", "repeated"])
def test_bad_section_exits_1(tmp_path, capsys, extra, reason):
    path, _ = _write_config(tmp_path, extra=f"\n{extra}\nlr = 0.5\n")
    assert main(["run", "--config", path]) == 1
    assert reason in capsys.readouterr().err


def test_non_boolean_flag_exits_1(tmp_path, capsys):
    path, _ = _write_config(tmp_path, ensembles="maybe")
    assert main(["run", "--config", path]) == 1
    assert "ensembles" in capsys.readouterr().err


def test_empty_sgd_section_is_the_dataclass_default(tmp_path):
    path, _ = _write_config(tmp_path)
    with open(path) as f:
        text = f.read()
    start = text.index("[sgd]")
    text = text[:start] + "[sgd]\n\n" + text[text.index("[run]"):]
    with open(path, "w") as f:
        f.write(text)
    assert load_config(path)["sgd"] == SgdConfig()


def test_pretrain_inherits_unset_keys_from_sgd(tmp_path):
    path, _ = _write_config(tmp_path)
    with open(path) as f:
        text = f.read()
    with open(path, "w") as f:
        f.write(text.replace("[pretrain]\nlr = 0.02\n", "[pretrain]\n"))
    cfg = load_config(path)
    assert cfg["pretrain"] == SgdConfig(lr=0.01, momentum=0.9, weight_decay=0.0005,
                                        batch_size=16, epochs=6)
    assert cfg["sgd"].epochs == 2


def _benchmark_workloads(monkeypatch):
    """perfbench/workloads.py's WORKLOADS, imported without editing sys.path."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(REPO, "perfbench", "workloads.py"))
    mod = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, mod)  # dataclasses look it up
    spec.loader.exec_module(mod)
    return mod.WORKLOADS


def test_shipped_and_benchmark_configs_load(tmp_path, monkeypatch):
    monkeypatch.delenv("HTLAB_SEED", raising=False)
    paths = sorted(glob.glob(os.path.join(REPO, "configs", "*.ini")))
    assert paths
    for w in _benchmark_workloads(monkeypatch).values():
        for seed in (0, 1):
            path = str(tmp_path / f"{w.name}-{seed}.ini")
            with open(path, "w") as f:
                f.write(w.config_text(seed))
            paths.append(path)
    for path in paths:
        cfg = load_config(path)
        assert cfg["protocol_names"] and cfg["seeds"], path


# ------------------------------------------------------------ report

def test_report_means_variances_and_deltas(tmp_path, capsys):
    cfg, out = _write_config(tmp_path, names="naive_ft,frozen_ft", seeds="0,1,2")
    assert main(["run", "--config", cfg]) == 0
    assert main(["report", out]) == 0
    capsys.readouterr()
    with open(os.path.join(out, "report.json")) as f:
        report = json.load(f)
    with open(os.path.join(out, "summary.csv")) as f:
        lines = [ln.split(",") for ln in f.read().splitlines() if ln]
    header = lines[0]
    rows = [dict(zip(header, ln)) for ln in lines[1:]]

    def mean_of(proto, col):
        vals = [float(r[col]) for r in rows if r["protocol"] == proto]
        return float(np.mean(vals))

    naive = mean_of("naive_ft", "unseen")
    frozen = mean_of("frozen_ft", "unseen")
    got = report["delta_vs_naive_ft"]["frozen_ft"]["unseen"]
    assert abs(got - (frozen - naive)) < 1e-15
    assert report["protocols"]["naive_ft"]["seeds"] == [0, 1, 2]
    assert "variance" in report["protocols"]["naive_ft"]["overall"]


def test_report_single_seed_omits_variance(tmp_path):
    cfg, out = _write_config(tmp_path, names="naive_ft", seeds="4")
    assert main(["run", "--config", cfg]) == 0
    assert main(["report", out]) == 0
    with open(os.path.join(out, "report.json")) as f:
        report = json.load(f)
    entry = report["protocols"]["naive_ft"]["overall"]
    assert "variance" not in entry
    # single-seed mean equals the raw value
    with open(os.path.join(out, "summary.csv")) as f:
        lines = [ln.split(",") for ln in f.read().splitlines() if ln]
    raw = float(dict(zip(lines[0], lines[1]))["overall"])
    assert entry["mean"] == raw


def test_report_json_round_trip_no_drift(tmp_path):
    cfg, out = _write_config(tmp_path, names="naive_ft,frozen_ft", seeds="0,1")
    assert main(["run", "--config", cfg]) == 0
    assert main(["report", out]) == 0
    with open(os.path.join(out, "report.json")) as f:
        first = json.load(f)
    assert main(["report", out]) == 0
    with open(os.path.join(out, "report.json")) as f:
        second = json.load(f)
    assert first == second


def test_report_missing_inputs(tmp_path, capsys):
    assert main(["report", str(tmp_path)]) == 1
    assert "missing" in capsys.readouterr().err


def _rewrite_summary(out, edit):
    path = os.path.join(out, "summary.csv")
    with open(path) as f:
        lines = f.read().splitlines()
    with open(path, "w") as f:
        f.write("\n".join(edit(lines)) + "\n")


@pytest.mark.parametrize("edit, reason", [
    (lambda ls: [ls[0]] + [ln.replace("ok,", "FAILED,", 1) for ln in ls[1:]], "no ok rows"),
    (lambda ls: [ls[0].replace(",seen,", ",seem,")] + ls[1:], "header lacks seen"),
    (lambda ls: ls[:1] + [ls[1] + ",0.5"] + ls[2:], "fields, header has"),
    (lambda ls: ls + ls[1:2], "repeats protocol naive_ft seed 0"),
], ids=["no-ok-row", "missing-column", "wide-row", "repeated-row"])
def test_report_rejects_bad_summary_before_writing(tmp_path, capsys, edit, reason):
    cfg, out = _write_config(tmp_path, names="naive_ft", seeds="0")
    assert main(["run", "--config", cfg]) == 0
    _rewrite_summary(out, edit)
    assert main(["report", out]) == 1
    assert reason in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "report.json"))
