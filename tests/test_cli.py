import concurrent.futures
import configparser
import ctypes
import gc
import glob
import hashlib
import importlib.util
import json
import os
import re
import subprocess
import sys
import types
import weakref
from concurrent.futures import ProcessPoolExecutor

import numpy as np
from numpy.linalg import _umath_linalg
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import htlab
import htlab.cli as cli
from htlab.cli import build_scenario, load_config, main
from htlab.data import SyntheticSpec, load_scenario, write_f64, write_idx_labels
from htlab.losses import LossSpec
from htlab.metrics import METRICS, EvalReport
from htlab.model import MlpSpec, ModelParams
from htlab.optim import LolConfig, SgdConfig, SwaConfig
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
    assert "--classes = 10 must be above seen (10)" in capsys.readouterr().err


# an out-of-bound value of every numeric flag (with the flags its kind
# needs), and how the message names it
_BAD_GEN_FLAGS = [
    (["--pairs", "-3"], "--pairs = -3 "),
    (["--seed", "-1"], "--seed = -1 "),
    (["--dim", "1"], "--dim = 1 "),
    (["--source-per-class", "0"], "--source-per-class = 0 "),
    (["--train-per-class", "0"], "--train-per-class = 0 "),
    (["--test-per-class", "-2"], "--test-per-class = -2 "),
    (["--cluster-sep", "-1"], "--cluster-sep = -1.0 "),
    (["--cluster-sep", "nan"], "--cluster-sep = nan "),
    (["--classes", "-3"], "--classes = -3 "),
    (["--seen", "0"], "--seen = 0 "),
    (["--style-angle", "inf"], "--style-angle = inf "),
    (["--style-shift", "nan"], "--style-shift = nan "),
    (["--style-noise", "-1"], "--style-noise = -1.0 "),
    (["--pairs", "2", "--overlap", "1"], "--overlap = 1.0 "),
    (["--classes", "300", "--seen", "1"], "--classes = 300 "),  # past the u8 labels
    (["--pairs", "200"], "--pairs = 200 "),
]


@pytest.mark.parametrize("flags, named", _BAD_GEN_FLAGS,
                         ids=[" ".join(flags) for flags, _ in _BAD_GEN_FLAGS])
def test_gen_rejects_negative_pairs_naming_the_flag(tmp_path, capfd, flags, named):
    out = str(tmp_path / "scn")
    assert main(["gen", *flags, "--out", out]) == 1
    err = capfd.readouterr().err
    assert err.startswith(f"error: {named}must ") and err.count("\n") == 1  # no warnings
    assert not os.path.exists(out)


def test_gen_refuses_nonempty_without_force(tmp_path):
    out = str(tmp_path / "scn")
    assert main(["gen", "--classes", "5", "--seen", "3", "--out", out]) == 0
    assert main(["gen", "--classes", "5", "--seen", "3", "--out", out]) == 1
    assert main(["gen", "--classes", "5", "--seen", "3", "--out", out,
                 "--force"]) == 0


def _import_config(tmp_path, scn, out):
    """The path of a config that runs naive_ft seed 0 on the scenario
    directory `scn` into `out`."""
    cfg = str(tmp_path / "import.ini")
    with open(cfg, "w") as f:
        f.write(f"[scenario]\nkind = import\npath = {scn}\n[protocols]\nnames = naive_ft\n"
                f"[run]\nseeds = 0\noutput_dir = {out}\n")
    return cfg


def test_a_cut_gen_force_leaves_a_directory_that_does_not_load(tmp_path, monkeypatch,
                                                               capsys):
    # `gen --force` of a restyled scenario over an earlier `gen` directory,
    # its target_test_x.f64 write cut short: the earlier meta is gone, so the
    # files of the two scenarios never load as one
    scn, out = str(tmp_path / "scn"), str(tmp_path / "out")
    assert main(["gen", "--out", scn]) == 0
    real_open = open

    def cut_test_open(file, mode="r", *args, **kwargs):
        f = real_open(file, mode, *args, **kwargs)
        cut = "w" in mode and os.path.basename(str(file)).startswith("target_test_x.f64")
        return _CutShort(f) if cut else f

    with monkeypatch.context() as m:
        m.setattr("builtins.open", cut_test_open)
        assert main(["gen", "--force", "--style-angle", "0.8", "--out", scn]) == 2
    meta = os.path.join(scn, "meta")
    assert not os.path.exists(meta)
    assert glob.glob(os.path.join(scn, "*.tmp")) == []
    capsys.readouterr()
    assert main(["run", "--config", _import_config(tmp_path, scn, out)]) == 1
    assert f"'{meta}'" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_gen_paired_scenario(tmp_path):
    out = str(tmp_path / "tox")
    rc = main(["gen", "--pairs", "4", "--dim", "8", "--overlap", "0.5",
               "--seed", "2", "--out", out])
    assert rc == 0
    s = load_scenario(out)
    assert s.num_classes == 8
    assert s.toxicity is not None and len(s.toxicity.pairs) == 4


@pytest.mark.parametrize("flags, named", [
    (["--pairs", "4", "--classes", "10"], "--classes"),
    (["--overlap", "0.5"], "--overlap"),
    (["--pairs", "3", "--style-angle", "0.3"], "--style-angle"),
], ids=["classes-paired", "overlap-synthetic", "style-angle-paired"])
def test_gen_rejects_flag_the_kind_does_not_read(tmp_path, capsys, flags, named):
    out = str(tmp_path / "tox")
    assert main(["gen", *flags, "--out", out]) == 1
    assert capsys.readouterr().err == f"error: unknown key {named}\n"
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


@pytest.mark.parametrize("key, edits", [
    ("format", {"format": None}),
    ("format", {"format": "format = bogus"}),
    ("count_target_test", {"count_target_test": "count_target_test = 7"}),
    ("dim", {"dim": "dim = 5"}),
    ("seen", {"seen": "seen = 1,2,99"}),
    ("num_classes", {"num_classes": "num_classes = 8", "seen": "seen = 0,1,2,3,5"}),
    ("seen", {"seen": "seen = 0,1,2,3,4,5,6,7,8,9"}),
    ("num_classes", {"num_classes": "num_classes = 12"}),
    ("seen", {"seen": "seen = 0,1,2,3,4,5"}),
    # a comma would add a field to every row of the CSVs
    ("scenario_id", {"scenario_id": "scenario_id = syn,x"}),
], ids=["format-missing", "format-bogus", "count", "dim", "seen-out-of-range",
        "num-classes-below-labels", "seen-every-class", "num-classes-above-labels",
        "seen-lacks-a-trained-class", "scenario-id-with-a-comma"])
def test_run_rejects_an_import_whose_meta_disagrees_naming_the_key(tmp_path, capsys,
                                                                   key, edits):
    # a `htlab gen` directory of 10 classes (seen 0,1,2,3,5,9) and 400 test
    # rows of width 16, each line of `edits`' keys replaced by its line or
    # dropped
    scn, out = str(tmp_path / "scn"), str(tmp_path / "out")
    assert main(["gen", "--out", scn]) == 0
    meta = os.path.join(scn, "meta")
    lines = _read(meta).decode().splitlines()
    for edited, line in edits.items():
        [i] = [i for i, ln in enumerate(lines) if ln.startswith(f"{edited} = ")]
        lines[i:i + 1] = [line] if line else []
    with open(meta, "w") as f:
        f.write("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["run", "--config", _import_config(tmp_path, scn, out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {meta}: {key} ")
    assert not os.path.exists(out)


def test_run_rejects_an_import_with_no_target_training_rows(tmp_path, capsys):
    # a `htlab gen` directory whose target_train files and count say 0 rows
    # agree with each other, but leave nothing to adapt on: it is refused as
    # it loads, before any source is pretrained
    scn, out = str(tmp_path / "scn"), str(tmp_path / "out")
    assert main(["gen", "--classes", "5", "--seen", "3", "--dim", "6", "--out", scn]) == 0
    meta = os.path.join(scn, "meta")
    write_f64(os.path.join(scn, "target_train_x.f64"), np.zeros((0, 6)))
    write_idx_labels(os.path.join(scn, "target_train_y.idx"), np.zeros(0, dtype=np.uint8))
    [count] = re.findall(r"^count_target_train = \d+$", _read(meta).decode(), re.M)
    _edit(meta, count, "count_target_train = 0")
    capsys.readouterr()
    assert main(["run", "--config", _import_config(tmp_path, scn, out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {meta}: count_target_train = 0 ")
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


def test_run_removes_the_outputs_an_earlier_run_left(tmp_path, capsys):
    cfg, out = _write_config(tmp_path, seeds="0,1")
    assert main(["run", "--config", cfg]) == 0
    assert main(["report", out]) == 0
    ckpts = sorted(glob.glob(os.path.join(out, "source_seed*.ckpt")))
    before = {path: (_read(path), os.stat(path).st_mtime_ns) for path in ckpts}
    capsys.readouterr()
    _edit(cfg, "names = source_only,naive_ft", "names = source_only,frozen_ft")
    assert main(["run", "--config", cfg]) == 0
    # the report of the first run aggregated naive_ft, which this one did not run
    assert not os.path.exists(os.path.join(out, "report.json"))
    lines = _read(os.path.join(out, "summary.csv")).decode().splitlines()[1:]
    assert {ln.split(",")[2] for ln in lines} == {"source_only", "frozen_ft"}
    # the checkpoints were loaded, not rewritten
    assert "note:" not in capsys.readouterr().err
    assert {path: (_read(path), os.stat(path).st_mtime_ns) for path in ckpts} == before


def test_a_run_removes_the_temporaries_a_killed_run_left(tmp_path):
    # a run killed while writing an output leaves <name>.<pid>.tmp beside it;
    # a valid run removes those of its outputs, and an invalid one touches
    # nothing, as it leaves the outputs themselves
    cfg, out = _write_config(tmp_path, seeds="0")
    os.makedirs(out)
    stale = [os.path.join(out, f"{name}.{pid}.tmp")
             for name, pid in (("curves.csv", 7), ("summary.csv", 8), ("report.json", 9))]
    other = os.path.join(out, "notes.txt.7.tmp")  # not an output of the run
    for path in (*stale, other):
        with open(path, "wb") as f:
            f.write(b"cut")
    _edit(cfg, "k_spectrum = 6", "k_spectrum = 0")
    assert main(["run", "--config", cfg]) == 1
    assert sorted(glob.glob(os.path.join(out, "*.tmp"))) == sorted([*stale, other])
    _edit(cfg, "k_spectrum = 0", "k_spectrum = 6")
    assert main(["run", "--config", cfg]) == 0
    assert glob.glob(os.path.join(out, "*.tmp")) == [other]


class _CutShort:
    """A file whose write writes the first half of what it is given, then
    raises as a full disk would."""

    def __init__(self, f):
        self._f = f

    def write(self, data):
        self._f.write(data[:len(data) // 2])
        self._f.flush()
        raise OSError(28, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()


def test_a_cut_short_csv_write_leaves_no_cut_file_and_no_temporary(tmp_path, monkeypatch):
    cfg, out = _write_config(tmp_path, seeds="0")
    assert main(["run", "--config", cfg]) == 0
    path = os.path.join(out, "curves.csv")
    old = _read(path)
    real_open = open

    def cut_curves_open(file, mode="r", *args, **kwargs):
        f = real_open(file, mode, *args, **kwargs)
        cut = "w" in mode and os.path.basename(str(file)).startswith("curves.csv")
        return _CutShort(f) if cut else f

    # a run whose curves.csv write is cut short fails, and leaves under the
    # name neither a cut file nor the one an earlier run wrote
    with monkeypatch.context() as m:
        m.setattr("builtins.open", cut_curves_open)
        assert main(["run", "--config", cfg]) == 2
    assert not os.path.exists(path)
    assert glob.glob(os.path.join(out, "*.tmp")) == []
    # a cut write leaves the file it was to replace whole
    cli.write_file(path, [old])
    with monkeypatch.context() as m:
        m.setattr("builtins.open", cut_curves_open)
        with pytest.raises(OSError, match="No space left"):
            cli.write_file(path, [old.replace(b"naive_ft", b"frozen_ft")])
    assert _read(path) == old
    assert glob.glob(os.path.join(out, "*.tmp")) == []


def test_run_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    get, set_ = _openblas()
    outputs = []
    before = get()
    try:
        for threads in (1, 2):
            set_(threads)
            run_dir = tmp_path / f"threads{threads}"
            run_dir.mkdir()
            cfg, out = _write_config(run_dir, names="source_only,naive_ft,sgd_distill,lolsgd",
                                     seeds="0,1", ensembles="true", extra=_GRID_EXTRA)
            # matmuls larger than the other grids', so a second thread has work to share
            _edit(cfg, "hidden = 8,8", "hidden = 64,64")
            _edit(cfg, "test_per_class = 8", "test_per_class = 40")
            assert main(["run", "--config", cfg]) == 0
            names = ["curves.csv", "summary.csv", "source_seed0.ckpt", "source_seed1.ckpt"]
            outputs.append({name: _read(os.path.join(out, name)) for name in names})
    finally:
        set_(before)
    assert outputs[1] == outputs[0]


# every preset that trains with SGD, on a model with batchnorm and an input
# adapter, with both loss terms and the ensembles
_BN_ADAPTER_SGD = dict(
    names="naive_ft,frozen_ft,lp_ft,bn_affine_only,in_adapter_only,sgd_distill,sgd_rank,"
          "swa,swad_lite", ensembles="true",
    extra="\n[loss]\nlambda_distill = 1.0\nlambda_rank = 1e-4\n\n[swa]\nstart_epoch = 1\n")


@pytest.mark.parametrize("case", ["plain", "bn-adapter-sgd-presets"])
def test_run_parallel_matches_sequential(tmp_path, monkeypatch, case):
    # an SGD preset's seeds train stacked in the same tasks at --jobs 1 and 2
    if case == "plain":
        cfg, _ = _write_config(tmp_path)
    else:
        cfg, _ = _write_config(tmp_path, **_BN_ADAPTER_SGD)
        _edit(cfg, "activation = relu", "activation = relu\nbatchnorm = true\nin_adapter = true")
    pools = []

    def recording_pool(**kwargs):
        pools.append(kwargs)
        return ProcessPoolExecutor(**kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording_pool)
    environ = dict(os.environ)
    outputs = {}
    for jobs in ("1", "2"):
        out = str(tmp_path / f"jobs{jobs}")
        assert main(["run", "--config", cfg, "--out", out, "--jobs", jobs]) == 0
        assert dict(os.environ) == environ
        outputs[jobs] = [_read(os.path.join(out, name))
                         for name in ("curves.csv", "summary.csv")]
    assert outputs["2"] == outputs["1"]
    # --jobs 1 builds no pool; the workers of --jobs 2 are forked, so they
    # inherit the scenario and the source params and nothing of it is pickled
    [pool] = pools
    assert pool["mp_context"].get_start_method() == "fork"
    assert "initializer" not in pool and "initargs" not in pool


def _skip_the_model_check(monkeypatch):
    """cmd_run's up-front model check made a no-op, so a protocol the model
    cannot run reaches its cells, where run_protocol's own check fails them;
    forked workers inherit the patch."""
    monkeypatch.setattr(cli, "_check_model", lambda kind, spec: None)


def test_run_parallel_isolates_failing_cells(tmp_path, capsys, monkeypatch):
    # bn_stats_only without a batchnorm model fails inside its worker
    _skip_the_model_check(monkeypatch)
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


def _src_env() -> dict:
    """os.environ with this htlab's source directory first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(htlab.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


def test_run_parallel_as_a_module_process(tmp_path):
    # `python -m htlab.cli` forks its workers from a process that runs the
    # module as __main__; the 4 seeds of a leave-out protocol are 4 tasks and
    # give 4 workers, likely more than the cores, and a worker that hung
    # would hold the run past the timeout
    cfg, out = _write_config(tmp_path, names="lolsgd", seeds="0,1,2,3",
                             extra="\n[lol]\nsubsets = 2\nleave_k = 1\n")
    proc = subprocess.run([sys.executable, "-m", "htlab.cli", "run", "--config", cfg,
                           "--jobs", "4"], env=_src_env(), capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "4/4 runs completed" in proc.stdout


def test_run_parallel_from_a_script_without_a_main_guard(tmp_path):
    # forked workers import nothing, so a script may call main at its top
    # level, with no `if __name__ == "__main__":` guard
    cfg, out = _write_config(tmp_path)
    script = tmp_path / "grid.py"
    script.write_text("import sys\nfrom htlab.cli import main\n"
                      f"sys.exit(main(['run', '--config', {cfg!r}, '--jobs', '2']))\n")
    proc = subprocess.run([sys.executable, str(script)], env=_src_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    with open(os.path.join(out, "summary.csv")) as f:
        rows = [ln.split(",") for ln in f.read().splitlines()[1:] if ln]
    assert len(rows) == 6 and all(r[0] == "ok" for r in rows)


def test_gen_report_and_a_jobs_1_run_never_import_the_pool(tmp_path):
    # the pool's modules are imported where a pool is built, so a command
    # that starts none never loads them; nor does any command load numpy.ma,
    # which np.unique imports on its first call
    cfg, out = _write_config(tmp_path)
    script = (f"import sys\nfrom htlab.cli import main\n"
              f"assert main(['gen', '--classes', '4', '--seen', '2', '--dim', '4', "
              f"'--out', {str(tmp_path / 'scn')!r}]) == 0\n"
              f"assert main(['run', '--config', {cfg!r}, '--jobs', '1']) == 0\n"
              f"assert main(['report', {out!r}]) == 0\n"
              "print(sorted({'multiprocessing', 'concurrent.futures', 'numpy.ma'}"
              " & set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", script], env=_src_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def _openblas():
    """The get and set thread-count calls of numpy's OpenBLAS; the test
    skips where numpy's BLAS has none."""
    lib = ctypes.CDLL(_umath_linalg.__file__)
    if not hasattr(lib, "scipy_openblas_set_num_threads64_"):
        pytest.skip("numpy's BLAS is not scipy-openblas")
    get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("var", [None, "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_pool_workers_get_one_blas_thread_unless_the_caller_set_one(tmp_path, monkeypatch,
                                                                    var, jobs):
    # the pretrain and both tasks, in this process at --jobs 1 and in forked
    # workers, which inherit the patches, at --jobs 2
    get, set_ = _openblas()
    for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(v, raising=False)
    if var:
        monkeypatch.setenv(var, "2")
    cfg, _ = _write_config(tmp_path, seeds="0")
    log = tmp_path / "threads"

    def logged(fn):
        def call(*args, **kwargs):
            with open(log, "a") as f:
                f.write(f"{fn.__name__} {get()}\n")
            return fn(*args, **kwargs)
        return call

    for name in ("pretrain_source", "run_protocol"):
        monkeypatch.setattr(cli, name, logged(getattr(cli, name)))
    before = get()
    set_(2)
    try:
        assert main(["run", "--config", cfg, "--jobs", jobs]) == 0
        assert get() == 2  # the count is put back after
    finally:
        set_(before)
    want = 2 if var else 1
    assert sorted(log.read_text().splitlines()) == [
        f"pretrain_source {want}", f"run_protocol {want}", f"run_protocol {want}"]


_LOL_ENSEMBLE_GRID = dict(names="source_only,naive_ft,lolsgd", seeds="0,1", ensembles="true",
                          extra="\n[lol]\nsubsets = 2\nleave_k = 1\n")


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_a_k_spectrum_past_the_feature_width_writes_the_bytes_of_the_width(tmp_path, jobs):
    # hidden = 8,8 and 40 test rows: a spectrum has 8 values, whatever
    # k_spectrum asks, in the cells' curves and their ensemble rows alike
    cfg, _ = _write_config(tmp_path, **_LOL_ENSEMBLE_GRID)
    outputs = {}
    for k in ("8", "1000"):
        _edit(cfg, "k_spectrum = 6" if k == "8" else "k_spectrum = 8", f"k_spectrum = {k}")
        out = str(tmp_path / f"k{k}")
        assert main(["run", "--config", cfg, "--out", out, "--jobs", jobs]) == 0
        outputs[k] = [_read(os.path.join(out, name)) for name in ("curves.csv", "summary.csv")]
    assert outputs["1000"] == outputs["8"]
    assert outputs["8"][0].split(b"\n")[0].endswith(b",sv_8")


def test_config_values_are_read_literally(tmp_path):
    # a `%` is a character of the value, with no interpolation: `%1` is no
    # error and `%%` stays two, in a key --out overrides too
    cfg, out = _write_config(tmp_path, seeds="0")
    _edit(cfg, f"output_dir = {out}", f"output_dir = {out}%1%%")
    assert main(["run", "--config", cfg]) == 0
    assert os.path.exists(os.path.join(out + "%1%%", "summary.csv"))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "flag")]) == 0
    assert os.path.exists(tmp_path / "flag" / "summary.csv")


def test_a_jobs_1_run_lets_each_task_s_runs_go_before_the_next_task(tmp_path,
                                                                    monkeypatch):
    # a task's runs become its cells' rows where it ran; nothing keeps them
    cfg, _ = _write_config(tmp_path, **_LOL_ENSEMBLE_GRID)
    run_protocol, refs, alive = cli.run_protocol, [], []

    def watched(*args, **kwargs):
        gc.collect()
        alive.append(sum(ref() is not None for ref in refs))
        runs = run_protocol(*args, **kwargs)
        refs.extend(weakref.ref(run.final_params) for run in runs)
        return runs

    monkeypatch.setattr(cli, "run_protocol", watched)
    assert main(["run", "--config", cfg, "--jobs", "1"]) == 0
    # source_only and naive_ft are one task each, lolsgd one per seed
    assert len(refs) == 6 and alive == [0, 0, 0, 0]
    gc.collect()
    assert not any(ref() is not None for ref in refs)  # nor the last task's


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_no_task_runs_while_the_source_split_is_held(tmp_path, monkeypatch, jobs):
    # once the sources exist nothing the run keeps reaches the source split,
    # a diverged pretrain's error included: not this process, nor the
    # workers it forks, which inherit the patches and log from there
    cfg, _ = _write_config(tmp_path, names="source_only,naive_ft", seeds="0,1")
    build, pretrain, run_protocol = cli.build_scenario, cli.pretrain_source, cli.run_protocol
    log, refs = tmp_path / "alive", []

    def built(scn):
        scenario = build(scn)
        refs.append(weakref.ref(scenario.source_train.X))
        return scenario

    def diverge_seed_0(scenario, spec, pre_cfg, rng):
        if rng.seed == 0:
            raise DivergenceError("pretrain", 3, "backbone")
        return pretrain(scenario, spec, pre_cfg, rng)

    def watched(*args, **kwargs):
        with open(log, "a") as f:
            f.write(f"{refs[0]() is not None}\n")
        return run_protocol(*args, **kwargs)

    for name, fn in (("build_scenario", built), ("pretrain_source", diverge_seed_0),
                     ("run_protocol", watched)):
        monkeypatch.setattr(cli, name, fn)
    assert main(["run", "--config", cfg, "--jobs", jobs]) == 2  # seed 0's cells fail
    assert log.read_text().splitlines() == ["False", "False"]


# the tasks of _LOL_ENSEMBLE_GRID, in order, as (protocol, seeds)
_LOL_ENSEMBLE_TASKS = [("source_only", "01"), ("naive_ft", "01"), ("lolsgd", "0"),
                       ("lolsgd", "1")]


def test_each_task_s_curves_rows_are_written_before_the_next_task_starts(tmp_path,
                                                                         monkeypatch):
    # at --jobs 1 each task's curves rows reach the temporary as it returns,
    # so the run never holds the whole file; it gets its name once whole
    cfg, out = _write_config(tmp_path, **_LOL_ENSEMBLE_GRID)
    run_protocol, written = cli.run_protocol, []

    def watched(*args, **kwargs):
        [tmp] = glob.glob(os.path.join(out, "curves.csv.*.tmp"))
        written.append(_read(tmp))
        assert not os.path.exists(os.path.join(out, "curves.csv"))
        return run_protocol(*args, **kwargs)

    monkeypatch.setattr(cli, "run_protocol", watched)
    assert main(["run", "--config", cfg, "--jobs", "1"]) == 0
    lines = _read(os.path.join(out, "curves.csv")).decode().splitlines(keepends=True)
    assert len(written) == len(_LOL_ENSEMBLE_TASKS)
    for i, got in enumerate(written):
        done = {(proto, seed) for proto, seeds in _LOL_ENSEMBLE_TASKS[:i] for seed in seeds}
        assert got.decode() == "".join(
            [lines[0], *(ln for ln in lines[1:] if tuple(ln.split(",")[1:3]) in done)])


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_a_fault_of_the_run_s_own_process_mid_grid_leaves_no_results(tmp_path, capsys,
                                                                    monkeypatch, jobs):
    # naive_ft's task fails as a whole, after source_only's rows are written,
    # and making its FAILED rows, in this process, raises: the run exits 2
    # with neither CSV under its name, nor a temporary
    cfg, out = _write_config(tmp_path, **_LOL_ENSEMBLE_GRID)
    run_protocol, cell_rows = cli.run_protocol, cli._cell_rows

    def naive_ft_fails(target_train, test, k, sources, protocol, seeds):
        if protocol.kind == "naive_ft":
            raise RuntimeError("naive_ft broke")
        return run_protocol(target_train, test, k, sources, protocol, seeds)

    def rows(proto, seed, run, *args):
        if str(run) == "naive_ft broke":
            raise RuntimeError("the rows broke")
        return cell_rows(proto, seed, run, *args)

    monkeypatch.setattr(cli, "run_protocol", naive_ft_fails)
    monkeypatch.setattr(cli, "_cell_rows", rows)
    capsys.readouterr()
    assert main(["run", "--config", cfg, "--jobs", jobs]) == 2
    assert "runtime failure: the rows broke" in capsys.readouterr().err
    assert sorted(os.listdir(out)) == ["source_seed0.ckpt", "source_seed1.ckpt"]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_the_ensemble_rows_are_made_in_the_process_that_ran_the_task(tmp_path, monkeypatch,
                                                                     jobs):
    # forked workers inherit the patches, so a call made in one is logged too
    cfg, _ = _write_config(tmp_path, **_LOL_ENSEMBLE_GRID)
    log = tmp_path / "calls"

    def logged(fn):
        def call(*args, **kwargs):
            with open(log, "a") as f:
                f.write(f"{fn.__name__} {os.getpid()}\n")
            return fn(*args, **kwargs)
        return call

    for name in ("run_protocol", "se_predict", "wise_merge"):
        monkeypatch.setattr(cli, name, logged(getattr(cli, name)))
    assert main(["run", "--config", cfg, "--jobs", jobs]) == 0
    calls = [ln.split() for ln in log.read_text().splitlines()]
    pids = {name: {int(pid) for n, pid in calls if n == name} for name, _ in calls}
    # one call of each per trained cell: naive_ft and lolsgd, 2 seeds each
    assert sorted(name for name, _ in calls if name != "run_protocol") == (
        ["se_predict"] * 4 + ["wise_merge"] * 4)
    ensembles = pids["se_predict"] | pids["wise_merge"]
    assert ensembles <= pids["run_protocol"]
    if jobs == "1":
        assert ensembles == {os.getpid()}
    else:  # in the workers, never in the run's own process
        assert os.getpid() not in ensembles


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_only_each_cell_s_row_bytes_and_error_text_leave_its_task(tmp_path, monkeypatch, jobs):
    # at --jobs 2 what _run_tasks yields is what came back through the pool
    cfg, _ = _write_config(tmp_path, **_LOL_ENSEMBLE_GRID)
    run_tasks, taken = cli._run_tasks, []

    def watched(tasks, jobs, shared):
        for task, result in run_tasks(tasks, jobs, shared):
            taken.append((task, result))
            yield task, result

    monkeypatch.setattr(cli, "_run_tasks", watched)
    assert main(["run", "--config", cfg, "--jobs", jobs]) == 0
    assert [(proto.kind, seeds) for (proto, seeds), _ in taken] == [
        ("source_only", (0, 1)), ("naive_ft", (0, 1)), ("lolsgd", (0,)), ("lolsgd", (1,))]
    for (proto, seeds), result in taken:
        assert type(result) is list and len(result) == len(seeds)
        for cell in result:
            assert type(cell) is tuple and len(cell) == 3
            assert type(cell[0]) is bytes and type(cell[1]) is bytes and cell[2] is None
        # summary rows: the protocol's own, then +SE and +WiSE when it trains
        assert [len(c[1].splitlines()) for c in result] == \
            [1 if proto.kind == "source_only" else 3] * len(seeds)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_a_fault_in_making_a_task_s_rows_fails_its_cells(tmp_path, capsys, monkeypatch, jobs):
    # each trained cell calls se_predict for its +SE row; source_only does not
    cfg, _ = _write_config(tmp_path, **_LOL_ENSEMBLE_GRID)
    clean, broken = str(tmp_path / "clean"), str(tmp_path / "broken")
    assert main(["run", "--config", cfg, "--out", clean, "--jobs", "1"]) == 0

    def se_predict(*args):
        raise RuntimeError("se_predict broke")

    monkeypatch.setattr(cli, "se_predict", se_predict)
    capsys.readouterr()
    assert main(["run", "--config", cfg, "--out", broken, "--jobs", jobs]) == 2
    err = capsys.readouterr().err
    lines = {out: {name: _read(os.path.join(out, name)).decode().splitlines(keepends=True)
                   for name in ("curves.csv", "summary.csv")} for out in (clean, broken)}
    # every other row is that of the unpatched --jobs 1 run, byte for byte
    want = lines[clean]["curves.csv"]
    assert lines[broken]["curves.csv"] == [want[0]] + [
        ln for ln in want[1:] if ln.split(",")[1] == "source_only"]
    assert lines[broken]["summary.csv"][0] == lines[clean]["summary.csv"][0]
    got, want = lines[broken]["summary.csv"][1:], lines[clean]["summary.csv"][1:]
    assert len(got) == len(want) == 2 + 2 * 2 * 3
    for g, w in zip(got, want):
        g_cells, w_cells = g.rstrip("\n").split(","), w.rstrip("\n").split(",")
        if w_cells[2] == "source_only":
            assert g == w
        else:  # the cell's own row and its +SE and +WiSE rows
            assert g_cells[:4] == ["FAILED", *w_cells[1:4]] and set(g_cells[4:]) == {"nan"}
    for proto in ("naive_ft", "lolsgd"):
        for seed in (0, 1):
            assert f"FAILED {proto} seed={seed}: se_predict broke\n" in err
    assert "FAILED source_only" not in err


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
    # the seed is left out of every task, so no worker sees its error
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
    # at any --jobs it shares a stack with seeds 0 and 2
    cfg, _ = _write_config(tmp_path, names="source_only,naive_ft,lp_ft,swa",
                           ensembles="true")
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
    # a failed cell's ensemble rows are FAILED with it, every metric nan
    ensembles = [f"{p}{e}" for p in ("naive_ft", "lp_ft", "swa")
                 for e in ("", "+SE@0.5", "+WiSE@0.5")]
    assert [(r[0], r[2]) for r in seed_1] == [("ok", "source_only")] + [
        ("FAILED", name) for name in ensembles]
    assert all(set(r[4:]) == {"nan"} for r in seed_1[1:])
    assert main(["report", with_1]) == 0
    notes = re.findall(r"^note: (\S+) has no ok row for seed 1$",
                       capsys.readouterr().out, re.M)
    assert notes == ensembles


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


@pytest.mark.parametrize("old, new", [
    ("[sgd]\nlr = 0.01", "[sgd]\nlr = nan"),
    ("[sgd]\nlr = 0.01", "[sgd]\nlr = inf"),
    ("weight_decay = 0.0005", "weight_decay = inf"),
    ("[run]", "[lol]\nlocal_budget = nan\n\n[run]"),
    ("[run]", "[loss]\nlambda_distill = nan\n\n[run]"),
    ("[run]", "[loss]\nlambda_rank = inf\n\n[run]"),
    ("k_spectrum = 6", "k_spectrum = -3"),
    ("[run]", "[lol]\nrounds = -1\n\n[run]"),
], ids=["lr-nan", "lr-inf", "weight_decay-inf", "local_budget-nan", "lambda_distill-nan",
        "lambda_rank-inf", "k_spectrum-negative", "lol-rounds-negative"])
def test_run_non_finite_or_out_of_range_number_exits_1(tmp_path, capsys, old, new):
    cfg, out = _write_config(tmp_path, names="naive_ft", seeds="0")
    _edit(cfg, old, new)
    assert main(["run", "--config", cfg]) == 1
    assert "error:" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("old, new, named", [
    ("[run]", "[lol]\nsubsets = 0\n\n[run]", "[lol] subsets = 0 "),
    ("batch_size = 16", "batch_size = 0", "[sgd] batch_size = 0 "),
    ("epochs = 6", "epochs = -1", "[pretrain] epochs = -1 "),
    ("[run]", "[loss]\nlambda_rank = -1\n\n[run]", "[loss] lambda_rank = -1.0 "),
    ("[run]", "[swa]\nstart_epoch = -2\n\n[run]", "[swa] start_epoch = -2 "),
    ("[run]", "[lol]\nouter_step = 2\n\n[run]", "[lol] outer_step = 2.0 "),
    ("hidden = 8,8", "hidden = 0,8", "[model] hidden = '0,8' "),
    ("hidden = 8,8", "hidden = ,", "[model] hidden = ',' "),
    ("activation = relu", "activation = gelu", "[model] activation = 'gelu' "),
    ("classes = 5", "classes = 1", "[scenario] classes = 1 must be above seen (3)"),
    ("seen = 3", "seen = 0", "[scenario] seen = 0 "),
    ("dim = 6", "dim = 1", "[scenario] dim = 1 "),
    ("style_noise = 0.1", "style_noise = -1", "[scenario] style_noise = -1.0 "),
    ("train_per_class = 12", "train_per_class = 0", "[scenario] train_per_class = 0 "),
    ("cluster_sep = 6.0", "cluster_sep = -1", "[scenario] cluster_sep = -1.0 "),
    ("cluster_sep = 6.0", "cluster_sep = nan", "[scenario] cluster_sep = nan "),
    ("style_shift = 0.5", "style_shift = nan", "[scenario] style_shift = nan "),
    ("style_angle = 0.3", "style_angle = inf", "[scenario] style_angle = inf "),
    ("names = naive_ft", "names = swa\n\n[swa]\nstart_epoch = 2",
     "[swa] start_epoch = 2 must be below [sgd] epochs (2) for swa"),
    ("names = naive_ft", "names = sgd_distill",
     "[loss] lambda_distill = 0.0 must be positive for sgd_distill"),
    ("names = naive_ft", "names = naive_ft,naive_ft",
     "[protocols] names = 'naive_ft,naive_ft' must list one or more protocols, each once"),
    ("seeds = 0", "seeds = 0,0", "[run] seeds = '0,0' must list one or more integers "
                                 "in [0, 2**64), each once"),
    ("seeds = 0", "seeds = 0,x", "[run] seeds = '0,x' "),
    ("seeds = 0", "seeds = ,", "[run] seeds = ',' "),
    ("seeds = 0", "seeds = -1", "[run] seeds = '-1' must list one or more integers "
                                "in [0, 2**64), each once"),
    # Rng would reduce it mod 2**64 to seed 0
    ("seeds = 0", "seeds = 0,18446744073709551616",
     "[run] seeds = '0,18446744073709551616' must list one or more integers in [0, 2**64)"),
    # HTLAB_SEED = new overrides [run] seeds
    ("HTLAB_SEED", "1,1", "HTLAB_SEED = '1,1' must list one or more integers "
                          "in [0, 2**64), each once"),
    ("HTLAB_SEED", "1.5", "HTLAB_SEED = '1.5' "),
    ("HTLAB_SEED", ",", "HTLAB_SEED = ',' "),
    ("HTLAB_SEED", "-1", "HTLAB_SEED = '-1' must list one or more integers in [0, 2**64)"),
    ("HTLAB_SEED", "18446744073709551616",
     "HTLAB_SEED = '18446744073709551616' must list one or more integers in [0, 2**64)"),
], ids=["lol-subsets", "sgd-batch_size", "pretrain-epochs", "loss-lambda_rank",
        "swa-start_epoch", "lol-outer_step", "model-hidden-zero", "model-hidden-empty",
        "model-activation", "scenario-classes-below-seen", "scenario-seen",
        "scenario-dim", "scenario-style_noise", "scenario-train_per_class",
        "scenario-cluster_sep", "scenario-cluster_sep-nan", "scenario-style_shift-nan",
        "scenario-style_angle-inf", "swa-start_epoch-not-below-sgd-epochs",
        "loss-lambda_distill-zero-for-sgd_distill", "protocols-names-repeated",
        "run-seeds-repeated", "run-seeds-not-integer", "run-seeds-empty",
        "run-seeds-negative", "run-seeds-too-large", "HTLAB_SEED-repeated",
        "HTLAB_SEED-not-integer", "HTLAB_SEED-empty", "HTLAB_SEED-negative",
        "HTLAB_SEED-too-large"])
def test_run_rejected_value_names_its_section_and_key(tmp_path, capfd, monkeypatch, old,
                                                      new, named):
    cfg, out = _write_config(tmp_path, names="naive_ft", seeds="0")
    monkeypatch.delenv("HTLAB_SEED", raising=False)
    if old == "HTLAB_SEED":
        monkeypatch.setenv("HTLAB_SEED", new)
    else:
        _edit(cfg, old, new)
    assert main(["run", "--config", cfg]) == 1
    err = capfd.readouterr().err
    # one line: no traceback and no numpy warning
    assert err.startswith(f"error: {named}") and err.count("\n") == 1
    assert not os.path.exists(out)


def test_run_empty_output_dir_exits_1_before_the_scenario_is_built(tmp_path, capfd,
                                                                   monkeypatch):
    cfg, out = _write_config(tmp_path, names="naive_ft", seeds="0")
    _edit(cfg, f"output_dir = {out}", "output_dir = ")
    monkeypatch.setattr(cli, "build_scenario", lambda *a, **k: pytest.fail("built"))
    assert main(["run", "--config", cfg]) == 1
    assert capfd.readouterr().err == "error: [run] output_dir = '' must name a directory\n"


def test_run_empty_out_flag_exits_1_before_the_scenario_is_built(tmp_path, capfd,
                                                                 monkeypatch):
    # held to [run] output_dir's bound, not replaced by the configured directory
    cfg, out = _write_config(tmp_path, names="naive_ft", seeds="0")
    monkeypatch.setattr(cli, "build_scenario", lambda *a, **k: pytest.fail("built"))
    assert main(["run", "--config", cfg, "--out", ""]) == 1
    assert capfd.readouterr().err == "error: --out = '' must name a directory\n"
    assert not os.path.exists(out)


@pytest.mark.parametrize("epochs", [1, 0])
def test_run_lp_ft_needs_an_sgd_epoch_per_phase_or_none(tmp_path, capfd, epochs):
    # with one epoch lp_ft's probe phase would get none: naive_ft under its name
    cfg, out = _write_config(tmp_path, names="lp_ft", seeds="0")
    _edit(cfg, "batch_size = 16\nepochs = 2", f"batch_size = 16\nepochs = {epochs}")
    if epochs:
        assert main(["run", "--config", cfg]) == 1
        assert capfd.readouterr().err == \
            "error: [sgd] epochs = 1 must be 0 or at least 2, the phases of lp_ft\n"
        assert not os.path.exists(out)
    else:
        assert main(["run", "--config", cfg]) == 0


# a grid every row of which the test below finds again in its sub-grids
_GRID_PROTOCOLS = ("source_only", "naive_ft", "lp_ft", "sgd_distill", "lolsgd", "swa")
_GRID_SEEDS = (0, 1, 2)
_GRID_EXTRA = "\n[loss]\nlambda_distill = 1.0\n\n[lol]\nsubsets = 3\nleave_k = 1\n"


def _grid_rows(tmp_path, protocols, seeds, jobs) -> dict:
    """(file, protocol, seed) -> that cell's lines, its ensemble rows
    included, of a run of the grid protocols x seeds at --jobs `jobs`."""
    cfg, out = _write_config(tmp_path, names=",".join(protocols),
                             seeds=",".join(map(str, seeds)), ensembles="true",
                             extra=_GRID_EXTRA)
    assert main(["run", "--config", cfg, "--jobs", jobs]) == 0
    rows: dict = {}
    for name, seed_col in (("curves.csv", 2), ("summary.csv", 3)):
        header, *lines = _read(os.path.join(out, name)).decode().splitlines()
        for line in lines:
            fields = line.split(",")
            cell = (name, fields[seed_col - 1].split("+")[0], int(fields[seed_col]))
            rows.setdefault(cell, [header]).append(line)
    return rows


@pytest.fixture(scope="module")
def full_grid_rows(tmp_path_factory):
    return _grid_rows(tmp_path_factory.mktemp("full"), _GRID_PROTOCOLS, _GRID_SEEDS, "1")


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(protocols=st.lists(st.sampled_from(_GRID_PROTOCOLS), min_size=1, max_size=3,
                          unique=True),
       seeds=st.lists(st.sampled_from(_GRID_SEEDS), min_size=1, unique=True),
       jobs=st.sampled_from(["1", "2"]))
@example(protocols=list(_GRID_PROTOCOLS[::-1]), seeds=[2, 0], jobs="2")
def test_cell_rows_do_not_depend_on_jobs_or_grid_mates(tmp_path_factory, full_grid_rows,
                                                       protocols, seeds, jobs):
    # a seed stack of an SGD preset holds every seed of the grid, so its
    # rows must not depend on which other seeds share it, nor on --jobs
    got = _grid_rows(tmp_path_factory.mktemp("grid"), protocols, seeds, jobs)
    assert got == {cell: lines for cell, lines in full_grid_rows.items()
                   if cell[1] in protocols and cell[2] in seeds}


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


def test_run_failure_marks_row_and_exits_2(tmp_path, capsys, monkeypatch):
    # bn_stats_only without a batchnorm model fails at run time per cell
    _skip_the_model_check(monkeypatch)
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


_SPECIAL_FLOATS = [float("nan"), 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                   float("inf"), float("-inf"), 1e308, -1e308]
_FLOATS = st.sampled_from(_SPECIAL_FLOATS) | st.floats()


def _bits(rep) -> np.ndarray:
    """The metrics and spectrum of `rep` as f64 bits, None as nan."""
    vals = [np.nan if v is None else v for v in (getattr(rep, m) for m in METRICS)]
    return np.array([*vals, *rep.sv], dtype=np.float64).view(np.uint64)


@settings(max_examples=100, deadline=None)
@given(reports=st.lists(st.tuples(st.lists(_FLOATS, min_size=5, max_size=5),
                                  st.none() | _FLOATS), min_size=1, max_size=3),
       k=st.integers(0, 64), data=st.data())
def test_a_report_round_trips_through_the_writer_and_reader_of_each_file(reports, k, data):
    # each epoch's report, and the last as the summary row, reads back bit
    # for bit: None and every nan as numpy's nan
    curve = [EvalReport(*vals[:4], fnr, vals[4],
                        np.array(data.draw(st.lists(_FLOATS, min_size=k, max_size=k))))
             for vals, fnr in reports]
    proto = types.SimpleNamespace(kind="naive_ft")
    scenario = types.SimpleNamespace(scenario_id="syn-c5-s3-d6-seed11")
    written = cli._cell_rows(proto, 7, types.SimpleNamespace(curve=curve), scenario.scenario_id,
                             None, None, k, False)
    failed = cli._cell_rows(proto, 8, ValueError("diverged"), scenario.scenario_id, None, None,
                            k, False)
    lead = {"scenario_id": scenario.scenario_id, "protocol": "naive_ft"}
    for name, body, want in [
            ("curves.csv", written[0], [({**lead, "seed": 7, "epoch": e}, rep)
                                        for e, rep in enumerate(curve)]),
            ("summary.csv", written[1] + failed[1],
             [({"status": "ok", **lead, "seed": 7}, curve[-1]),
              ({"status": "FAILED", **lead, "seed": 8}, None)])]:
        header = ",".join(cli._columns(name, k)) + "\n"
        got = cli._read_rows(name, header + body.decode())
        assert [cells for cells, _ in got] == [cells for cells, _ in want]
        for (_, back), (_, rep) in zip(got, want):
            if rep is None:
                assert back is None
                continue
            expected = _bits(rep)
            expected[np.isnan(expected.view(np.float64))] = np.float64(np.nan).view(np.uint64)
            assert np.array_equal(_bits(back), expected)


def test_a_curves_row_of_a_negative_epoch_is_refused():
    proto = types.SimpleNamespace(kind="naive_ft")
    scenario = types.SimpleNamespace(scenario_id="syn-c5-s3-d6-seed11")
    rep = EvalReport(0.5, 0.5, 0.5, 0.5, None, 1.0, np.empty(0))
    curves = cli._cell_rows(proto, 7, types.SimpleNamespace(curve=[rep]), scenario.scenario_id,
                            None, None, 0, False)[0].decode()
    text = ",".join(cli._columns("curves.csv", 0)) + "\n" + curves.replace(",7,0,", ",7,-1,")
    with pytest.raises(ValueError, match=r"^curves\.csv:2: epoch = -1 must be at least 0$"):
        cli._read_rows("curves.csv", text)


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


def test_run_lol_subsets_past_the_cap_exits_1_before_pretraining(tmp_path, capsys):
    # a round stacks one buffer of the 173-value model per run; with no epochs
    # the rounds never run, so a config the check missed would exit 0 at once
    cfg, out = _write_config(tmp_path, names="naive_ft,lolsgd", seeds="0",
                             extra="[lol]\nsubsets = 100000000\nleave_k = 1\n")
    _edit(cfg, "epochs = 2", "epochs = 0")
    assert main(["run", "--config", cfg]) == 1
    assert ("error: [lol] subsets = 100000000 must keep the round's (subsets, 173) stack "
            "within 2**27 float64 values") in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("kind,part", [("bn_affine_only", "batchnorm"),
                                       ("bn_stats_only", "batchnorm"),
                                       ("in_adapter_only", "the input adapter")])
def test_run_protocol_the_model_cannot_run_exits_1_before_pretraining(tmp_path, capsys,
                                                                      kind, part):
    cfg, out = _write_config(tmp_path, names=f"naive_ft,{kind}")
    assert main(["run", "--config", cfg]) == 1
    assert f"error: {kind} requires a model with {part}" in capsys.readouterr().err
    assert not os.path.exists(out)  # so no source_seed*.ckpt either


# ------------------------------------------------------------ source cache

_NOT_OURS = "not a checkpoint of this configuration's cache key"


def _drop_key(ckpt):
    raw = _read(ckpt)
    with open(ckpt, "wb") as f:
        f.write(re.sub(rb"\nkey = \w+\n", b"\n", raw, count=1))


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
    assert err.count("note:") == 1 and f"note: {ckpt}: {_NOT_OURS}; retraining it" in err
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


def _write_v1_checkpoint(path, spec, key, flat):
    """`flat` in the checkpoint layout before v2, whose header restated the
    spec and each array's offset and shape, and whose reader built the model
    from that header."""
    params = ModelParams(spec, flat)
    lines = ["htlab-checkpoint v1", "widths = " + ",".join(map(str, spec.layer_widths)),
             f"activation = {spec.activation}", f"batchnorm = {int(spec.use_batchnorm)}",
             f"in_adapter = {int(spec.use_in_adapter)}", f"bn_eps = {spec.bn_eps!r}",
             f"bn_momentum = {spec.bn_momentum!r}", f"key = {key}"]
    offset = 0
    for k in params.keys():
        lines.append(f"array = {k} {offset} {'x'.join(map(str, params[k].shape))}")
        offset += params[k].size
    with open(path, "wb") as f:
        f.write(("\n".join(lines + ["end"]) + "\n").encode("ascii"))
        f.write(flat.astype("<f8").tobytes())


def test_source_cache_retrains_a_checkpoint_whose_header_states_another_model(
        tmp_path, capsys, monkeypatch):
    # each seed's source params under its right key, in a v1 file whose
    # header says tanh where [model] says relu: a run must still adapt the
    # model its config describes
    monkeypatch.delenv("HTLAB_SEED", raising=False)
    cfg, out = _write_config(tmp_path, names="source_only,naive_ft", seeds="0,1")
    fresh = str(tmp_path / "fresh")
    assert main(["run", "--config", cfg, "--out", fresh]) == 0
    os.makedirs(out)
    names = [f"source_seed{seed}.ckpt" for seed in (0, 1)]
    for name in names:
        raw = _read(os.path.join(fresh, name))
        head_end = raw.index(b"\nend\n") + len(b"\nend\n")
        key = re.search(rb"\nkey = (\w+)\n", raw[:head_end]).group(1).decode()
        _write_v1_checkpoint(os.path.join(out, name), MlpSpec((6, 8, 8, 5), "tanh"), key,
                             np.frombuffer(raw, "<f8", offset=head_end))
    capsys.readouterr()
    assert main(["run", "--config", cfg]) == 0
    err = capsys.readouterr().err
    assert [ln for ln in err.splitlines() if ln.startswith("note:")] == [
        f"note: {os.path.join(out, name)}: {_NOT_OURS}; retraining it"
        for name in names]
    for name in names + ["curves.csv", "summary.csv"]:
        assert _read(os.path.join(out, name)) == _read(os.path.join(fresh, name)), name


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


def test_source_key_of_the_reference_config_is_pinned(monkeypatch):
    # the key is in every checkpoint header, so a change that moves it, such
    # as one to the repr of a config class, retrains every cached source
    monkeypatch.delenv("HTLAB_SEED", raising=False)
    cfg = load_config(os.path.join(REPO, "configs", "reference.ini"))
    scenario, model = build_scenario(cfg["scenario"]), cfg["model"]
    spec = MlpSpec((scenario.dim, *model["hidden"], scenario.num_classes),
                   activation=model["activation"], use_batchnorm=model["batchnorm"],
                   use_in_adapter=model["in_adapter"])
    assert cli._source_key(scenario, spec, cfg["pretrain"], 0) == \
        "50d14f5dadf11ab71f3eb7986d1f421c"


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


# the keys that take free text, and why. The other text keys are bounded:
# [scenario] path and [run] output_dir must name a directory, [protocols]
# names at least one protocol (each checked by Protocol), and [scenario]
# kind, which picks the table, must be one of them (_resolve_scenario).
_FREE_FORM = {
    "seeds": "a list, whose entries load_config parses and checks for repeats, and "
             "which HTLAB_SEED overrides",
}


def test_every_key_but_free_text_and_booleans_has_a_bound():
    tables = {f"scenario {kind}": keys for kind, keys in cli._SCENARIO_KEYS.items()}
    tables.update(model=cli._MODEL_KEYS, protocols=cli._PROTOCOLS_KEYS, run=cli._RUN_KEYS,
                  sgd=cli._keys(SgdConfig), lol=cli._keys(LolConfig),
                  loss=cli._keys(LossSpec), swa=cli._keys(SwaConfig))
    # [pretrain] reads the [sgd] keys
    assert {name.split()[0] for name in tables} | {"pretrain"} == set(cli._SECTIONS)
    unbounded = {key for keys in tables.values() for key, (default, bound) in keys.items()
                 if bound is None and not isinstance(default, bool)}
    assert unbounded == set(_FREE_FORM)


# configs/reference.ini cut down to one seed, two epochs and a small scenario
_TINY = {"scenario": {"classes": "5", "seen": "3", "dim": "6", "source_per_class": "20",
                      "train_per_class": "8", "test_per_class": "6"},
         "model": {"hidden": "8,8"},
         "protocols": {"names": "naive_ft,sgd_distill,sgd_rank,swa,lolsgd"},
         "pretrain": {"epochs": "2"}, "sgd": {"epochs": "2"},
         "lol": {"subsets": "3", "leave_k": "1"}, "swa": {"start_epoch": "1"},
         "run": {"seeds": "0", "k_spectrum": "4"}}
_NAN, _INF = float("nan"), float("inf")
_SGD_VALUES = {"lr": ([0.001, 0.05], [0.0, -0.1, _NAN, _INF]),
               "momentum": ([0.0, 0.5], [1.0, -0.1, _NAN]),
               "weight_decay": ([0.0, 0.01], [-1.0, _NAN, _INF]),
               "batch_size": ([4, 16], [0, -1])}
# per [section] key of _TINY: values in its bound that a run of _TINY
# completes, and values out of its bound
_KEY_VALUES = {
    ("scenario", "seed"): ([0, 7, 2**64 - 1], [-1, 2**64]),
    ("scenario", "dim"): ([2, 6], [1, 0, -4]),
    ("scenario", "source_per_class"): ([1, 20], [0, -5]),
    ("scenario", "train_per_class"): ([1, 8], [0]),
    ("scenario", "test_per_class"): ([1, 6], [0]),
    ("scenario", "cluster_sep"): ([0.5, 5.0], [0.0, -1.0, _NAN, _INF]),
    ("scenario", "classes"): ([4, 7], [3, 1, -3]),
    ("scenario", "seen"): ([2, 3], [0, -1]),
    ("scenario", "style_angle"): ([0.0, -2.5], [_NAN, _INF, -_INF]),
    ("scenario", "style_shift"): ([0.0, 3.0], [_NAN, -_INF]),
    ("scenario", "style_noise"): ([0.0, 0.5], [-1.0, _NAN, _INF]),
    ("model", "hidden"): (["8", "8,4", "16,8,8"], ["0,8", ",", "8,-1", "a"]),
    ("model", "activation"): (["relu", "tanh"], ["gelu", "RELU"]),
    ("model", "batchnorm"): (["true", "false"], ["maybe"]),
    ("model", "in_adapter"): (["true", "false"], ["2"]),
    **{("pretrain", key): values for key, values in _SGD_VALUES.items()},
    ("pretrain", "epochs"): ([0, 1, 3], [-1]),
    **{("sgd", key): values for key, values in _SGD_VALUES.items()},
    ("sgd", "epochs"): ([2, 3], [-1]),
    ("lol", "subsets"): ([1, 3], [0, -2]),
    ("lol", "leave_k"): ([0, 2], [-1]),
    ("lol", "local_budget"): ([0.0, 0.2, 1.0], [-0.5, _NAN, _INF]),
    ("lol", "outer_step"): ([0.5, 1.0], [0.0, 1.5, _NAN]),
    ("lol", "rounds"): ([0, 1], [-1]),
    ("loss", "lambda_distill"): ([0.5, 4.0], [-1.0, _NAN, _INF]),
    ("loss", "lambda_rank"): ([1e-5, 3e-5], [-1.0, _INF]),
    ("loss", "rank_sign"): ([1, -1], [0, 2]),
    ("swa", "start_epoch"): ([0, 1], [-1, -5]),
    ("swa", "cadence"): (["per_epoch", "per_iteration"], ["daily"]),
    ("run", "k_spectrum"): ([1, 4, 64], [0, -3]),
    ("run", "ensembles"): (["true", "false"], ["2"]),
}
_KEY_CASES = [(section, key, value, in_bound)
              for (section, key), (good, bad) in _KEY_VALUES.items()
              for in_bound, values in ((True, good), (False, bad)) for value in values]


def _tiny_config(tmp, section, key, value):
    """(config path, output dir) of _TINY with [section] key = value."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    cp.read(os.path.join(REPO, "configs", "reference.ini"))
    for name, keys in _TINY.items():
        cp[name].update(keys)
    out = str(tmp / "out")
    cp["run"]["output_dir"] = out
    cp[section][key] = str(value)
    path = str(tmp / "tiny.ini")
    with open(path, "w") as f:
        cp.write(f)
    return path, out


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=st.sampled_from(_KEY_CASES))
def test_one_key_in_or_out_of_its_bound_exits_0_or_1_naming_it(tmp_path_factory, capfd,
                                                               monkeypatch, case):
    section, key, value, in_bound = case
    monkeypatch.delenv("HTLAB_SEED", raising=False)
    path, out = _tiny_config(tmp_path_factory.mktemp("bound"), section, key, value)
    capfd.readouterr()
    rc = main(["run", "--config", path])
    err = capfd.readouterr().err
    assert "Traceback" not in err
    if in_bound:
        assert rc == 0, err
    else:
        assert rc == 1 and f"error: [{section}] {key}" in err
        assert not os.path.exists(out)


_SCENARIO_OUT_OF_BOUND = [(key, bad[0]) for (section, key), (_, bad) in _KEY_VALUES.items()
                          if section == "scenario"]


@pytest.mark.parametrize("key, value", _SCENARIO_OUT_OF_BOUND,
                         ids=[key for key, _ in _SCENARIO_OUT_OF_BOUND])
def test_spec_and_run_reject_an_out_of_bound_scenario_key_in_the_same_words(
        tmp_path, capsys, monkeypatch, key, value):
    # the spec built in Python from the [scenario] values of the run
    monkeypatch.delenv("HTLAB_SEED", raising=False)
    path, out = _tiny_config(tmp_path, "scenario", key, value)
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    cp.read(path)
    values = {k: type(getattr(SyntheticSpec, k))(v) for k, v in cp["scenario"].items()
              if k != "kind"}
    with pytest.raises(ValueError) as rejected:
        SyntheticSpec(**values)
    words = str(rejected.value)
    assert words.startswith(f"{key} = {value!r} must ")  # e.g. seen = 0 must be at least 1
    capsys.readouterr()
    assert main(["run", "--config", path]) == 1
    assert capsys.readouterr().err == f"error: [scenario] {words}\n"
    assert not os.path.exists(out)


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
    delta = report["delta_vs_naive_ft"]["frozen_ft"]
    assert abs(delta["unseen"]["mean"] - (frozen - naive)) < 1e-15
    # the per-seed differences the mean is taken over, by seed
    assert delta["seeds"] == [0, 1, 2]
    cell = {(r["protocol"], r["seed"]): float(r["unseen"]) for r in rows}
    assert sorted(delta["per_seed"]) == ["0", "1", "2"]  # JSON keys are strings
    for s in "012":
        assert delta["per_seed"][s]["unseen"] == cell["frozen_ft", s] - cell["naive_ft", s]
    assert report["protocols"]["naive_ft"]["seeds"] == [0, 1, 2]
    assert "variance" in report["protocols"]["naive_ft"]["overall"]


def test_report_pairs_each_delta_by_seed_and_notes_a_missing_seed(tmp_path, capsys):
    # configs/reference.ini's naive_ft and sgd_distill cells, with sgd_distill
    # seed 2 rewritten as FAILED: the delta is the mean over seeds 0 and 1 of
    # the per-seed differences, 0.14125 in overall, not the mean over seeds
    # 0 and 1 minus naive_ft's mean over all three seeds (0.145417)
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    cp.read(os.path.join(REPO, "configs", "reference.ini"))
    out = str(tmp_path / "results")
    cp["protocols"]["names"] = "naive_ft,sgd_distill"
    cp["run"].update(output_dir=out, ensembles="false")
    path = str(tmp_path / "reference.ini")
    with open(path, "w") as f:
        cp.write(f)
    assert main(["run", "--config", path]) == 0
    _rewrite_summary(out, lambda ls: [
        ln.replace("ok,", "FAILED,", 1) if ",sgd_distill,2," in ln else ln for ln in ls])
    capsys.readouterr()
    assert main(["report", out]) == 0
    printed = capsys.readouterr().out.splitlines()
    with open(os.path.join(out, "report.json")) as f:
        report = json.load(f)
    delta = report["delta_vs_naive_ft"]["sgd_distill"]
    assert delta["seeds"] == [0, 1] and sorted(delta["per_seed"]) == ["0", "1"]
    assert abs(delta["overall"]["mean"] - 0.14125) < 1e-12
    assert report["best_delta_vs_naive_ft"]["overall"] == {
        "protocol": "sgd_distill", "delta": delta["overall"]["mean"]}
    assert [ln for ln in printed if ln.startswith("note:")] == [
        "note: sgd_distill has no ok row for seed 2"]
    # 0.14125 prints as either neighbour, as the order of operations rounds it
    [line] = [ln for ln in printed if ln.startswith("  sgd_distill:")]
    assert line.split()[2] in ("+0.1412,", "+0.1413,")


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


def test_report_records_the_sha256_of_the_summary_it_aggregated(tmp_path):
    cfg, out = _write_config(tmp_path, names="naive_ft,frozen_ft", seeds="0,1")
    assert main(["run", "--config", cfg]) == 0
    assert main(["report", out]) == 0
    summary = os.path.join(out, "summary.csv")
    recorded = json.loads(_read(os.path.join(out, "report.json")))["summary_sha256"]
    assert recorded == hashlib.sha256(_read(summary)).hexdigest()
    # an edit after the report no longer matches what it aggregated
    _rewrite_summary(out, lambda ls: ls[:1] + [_set_cell(ls[0], ls[1], "overall", "0.5")]
                     + ls[2:])
    assert hashlib.sha256(_read(summary)).hexdigest() != recorded


def test_report_missing_inputs(tmp_path, capsys):
    assert main(["report", str(tmp_path)]) == 1
    assert "missing" in capsys.readouterr().err


def _rewrite_summary(out, edit):
    path = os.path.join(out, "summary.csv")
    with open(path) as f:
        lines = f.read().splitlines()
    with open(path, "w") as f:
        f.write("\n".join(edit(lines)) + "\n")


def _set_cell(header, line, column, value):
    """`line` of a CSV under `header` with its `column` cell set to `value`."""
    fields = line.split(",")
    fields[header.split(",").index(column)] = value
    return ",".join(fields)


def _insert_column(lines, before, name, value):
    """`lines` of a CSV with a column `name` of `value` cells put before `before`."""
    i = lines[0].split(",").index(before)
    rows = [ln.split(",") for ln in lines]
    return [",".join(r[:i] + [value if n else name] + r[i:]) for n, r in enumerate(rows)]


@pytest.mark.parametrize("edit, reason", [
    (lambda ls: [ls[0]] + [ln.replace("ok,", "FAILED,", 1) for ln in ls[1:]], "no ok rows"),
    (lambda ls: [ls[0].replace(",seen,", ",seem,")] + ls[1:], "header lacks seen"),
    (lambda ls: ls[:1] + [ls[1] + ",0.5"] + ls[2:], "fields, header has"),
    (lambda ls: ls + ls[1:2], "repeats protocol naive_ft seed 0"),
    (lambda ls: ls[:1] + [_set_cell(ls[0], ls[1], "overall", "x")] + ls[2:],
     "summary.csv:2: overall = 'x' is not a number"),
    (lambda ls: ls[:1] + [_set_cell(ls[0], ls[1], "seed", "x")] + ls[2:],
     "summary.csv:2: seed = 'x' is not a number"),
    # an integer spelled with `_` read as 10 before
    (lambda ls: ls[:1] + [_set_cell(ls[0], ls[1], "seed", "1_0")] + ls[2:],
     "summary.csv:2: seed = '1_0' is not a number"),
    # seeds `htlab run` never writes: below 0, and past 2**64
    (lambda ls: ls[:1] + [_set_cell(ls[0], ls[1], "seed", "-1")] + ls[2:],
     "summary.csv:2: seed = -1 must be in [0, 2**64)"),
    (lambda ls: ls[:1] + [_set_cell(ls[0], ls[1], "seed", "1" + "0" * 30)] + ls[2:],
     "summary.csv:2: seed = 1" + "0" * 30 + " must be in [0, 2**64)"),
    # a second `overall` column, before effective_rank, of 0.99 in every row
    (lambda ls: _insert_column(ls, "effective_rank", "overall", "0.99"),
     "header repeats overall"),
    (lambda ls: ls[:1] + [_set_cell(ls[0], ls[1], "status", "OK")] + ls[2:],
     "summary.csv:2: status = 'OK' is not ok or FAILED"),
    # a second row, of seed 1, from another scenario
    (lambda ls: ls + [_set_cell(ls[0], _set_cell(ls[0], ls[1], "seed", "1"), "scenario_id",
                                "other")],
     "summary.csv:3: scenario_id = 'other' is not"),
], ids=["no-ok-row", "missing-column", "wide-row", "repeated-row", "metric-not-a-number",
        "seed-not-a-number", "seed-not-canonical", "seed-negative", "seed-past-2**64",
        "repeated-column", "unknown-status",
        "mixed-scenario-ids"])
def test_report_rejects_bad_summary_before_writing(tmp_path, capsys, edit, reason):
    cfg, out = _write_config(tmp_path, names="naive_ft", seeds="0")
    assert main(["run", "--config", cfg]) == 0
    _rewrite_summary(out, edit)
    assert main(["report", out]) == 1
    assert reason in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "report.json"))
