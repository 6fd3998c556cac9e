"""A mutation sweep over every reader of input from outside the program:
the `meta` of a small `htlab gen` directory and its data files, a config,
the `htlab gen` flags and `--jobs`, a source checkpoint and a summary.csv.

Each key is tried dropped, repeated, and set to each text of _VALUES. Each
file is tried cut by its last byte, extended by one byte, and with a wrong
header size. Each text file (config, meta, summary.csv) is also tried with
a byte that is not UTF-8, and the config and summary.csv missing and as a
directory. Every mutation must exit 0 or 1, never 2, and print no
traceback, and:

- exit 1 names what it refuses: the meta file and the key, the data file,
  the config's section and key, the flag, or the summary.csv;
- exit 0 reads what the mutated text spells, and the rest as before. A
  dropped key reads as its default, which the base inputs state, and a
  checkpoint the run cannot load is retrained with a note, giving the same
  checkpoint and CSVs;
- a number spelled otherwise than in ASCII digits with `-` its only sign
  (empty, a non-ASCII digit, `_`, `+`, or a float where an integer is read)
  exits 1. A meta number is fixed by the data files, or for `seed` held to
  [0, 2**64), so every value tried for one exits 1.

Each command stops where its reader returns, by the _Read that _stop_at
raises, so only the checkpoint's runs generate or train anything. The
size cases are the exception: they build what they read, and a size past
the cap of 2**27 float64 values on the largest array it implies must exit
1 naming its key before anything is drawn.
"""

import os
import shutil
import struct
import types
from dataclasses import fields

import numpy as np
import pytest

import htlab.cli as cli
from htlab.cli import main
from htlab.data import _META_KEYS
from htlab.losses import LossSpec
from htlab.metrics import METRICS
from htlab.optim import LolConfig, SgdConfig, SwaConfig

# the texts a value is set to; \u0663 is an Arabic-Indic 3
_VALUES = {"empty": "", "negative": "-1", "huge": "1" + "0" * 30,
           "non-ASCII digit": "\u0663", "underscore": "1_0", "plus sign": "+2",
           "float text": "1.5"}
_NOT_A_NUMBER = {"empty", "non-ASCII digit", "underscore", "plus sign"}
_SPLITS = ("source_train", "target_train", "target_test")


class _Read(BaseException):
    """What a reader read, raised to stop the command there; main catches
    Exception, so it passes through."""


def _stop_at(monkeypatch, name, args=False):
    """Make cli.<name> raise _Read of what it returns, or with `args` of its
    arguments, without calling it."""
    real = getattr(cli, name)

    def read(*a, **kw):
        raise _Read(a if args else real(*a, **kw))

    monkeypatch.setattr(cli, name, read)


def _main(capfd, argv) -> tuple:
    """(exit code, stderr, what the stopped reader read or None) of main(argv)."""
    capfd.readouterr()
    read = None
    try:
        rc = main(argv)
    except _Read as done:
        rc, read = 0, done.args[0]
    except SystemExit as e:  # argparse's exit
        rc = e.code
    return rc, capfd.readouterr().err, read


def _reads_as(value, text: str) -> bool:
    """Whether `value` is what `text` spells; a list's entries by commas."""
    if isinstance(value, (list, tuple)):
        return [str(v) for v in value] == [t.strip() for t in text.split(",") if t.strip()]
    if isinstance(value, float):
        try:
            return value == float(text)
        except ValueError:
            return False
    return str(value) == text


def _faults(key: str, attempt, base: dict, default, names, number=False, integer=False,
            fixed=False, mutations=("drop", "repeat", *_VALUES)) -> list:
    """What goes wrong when `key` is mutated. attempt(mutation, text) runs
    the reader on the mutated input and returns (exit code, stderr, the
    values it read by key or None); `base` is what the unmutated input
    reads as, `default` the value of `key` when it is dropped, `names` what
    an exit 1 must name. A `number` key must refuse each text that spells
    no number (`integer`: no float either), and a `fixed` one each text."""
    faults = []
    for mutation in mutations:
        text = _VALUES.get(mutation)
        rc, err, read = attempt(mutation, text)
        tried = f"{key} {mutation}" + ("" if text is None else f" {text!r}")
        if rc not in (0, 1) or "Traceback" in err:
            faults.append(f"{tried}: exit {rc}: {err.strip()[-300:]}")
        elif rc == 1:
            if not all(name in err for name in names):
                faults.append(f"{tried}: exit 1 naming not {names}: {err.strip()}")
        elif text is not None and (fixed or number and (
                mutation in _NOT_A_NUMBER or integer and mutation == "float text")):
            faults.append(f"{tried}: exit 0 reading {read.get(key)!r}")
        else:
            want = dict(base, **{key: default}) if mutation == "drop" else base
            rest = {k: v for k, v in read.items() if k != key}
            if rest != {k: v for k, v in want.items() if k != key}:
                faults.append(f"{tried}: exit 0, and another value read differently")
            elif not (_reads_as(read[key], text) if text is not None else
                      read[key] == want[key]):
                faults.append(f"{tried}: exit 0 reading {read[key]!r}")
    return faults


def _swap(path: str, edit):
    """Write edit(the bytes of `path`) over it; the return restores them."""
    with open(path, "rb") as f:
        raw = f.read()
    with open(path, "wb") as f:
        f.write(edit(raw))

    def restore():
        with open(path, "wb") as f:
            f.write(raw)
    return restore


def _edit_line(key: str, mutation: str, text):
    """An edit of `key = value` lines: the line of `key` dropped, repeated,
    or with its value set to `text`."""
    def edit(raw):
        lines = raw.decode().splitlines()
        [i] = [i for i, ln in enumerate(lines) if ln.startswith(f"{key} = ")]
        lines[i:i + 1] = {"drop": [], "repeat": [lines[i]] * 2}.get(mutation,
                                                                      [f"{key} = {text}"])
        return ("\n".join(lines) + "\n").encode()
    return edit


_FILE_EDITS = {"cut": lambda raw: raw[:-1], "extended": lambda raw: raw + b"\0"}


def _resized(delta: int):
    """An edit of an IDX or f64 file that adds `delta` to its first header
    size (count or rows), whose 4 bytes follow the 4 of the magic."""
    def edit(raw):
        fmt = ">i" if raw[:4] != b"HTF8" else "<I"
        (size,) = struct.unpack_from(fmt, raw, 4)
        return raw[:4] + struct.pack(fmt, size + delta) + raw[8:]
    return edit


# ------------------------------------------------------------ the inputs

@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A small paired `htlab gen` directory named after its scenario id, a
    config that imports it, and a run of that config: its checkpoint and
    CSVs."""
    tmp = tmp_path_factory.mktemp("sweep")
    scn = str(tmp / "scn")
    assert main(["gen", "--pairs", "2", "--dim", "3", "--source-per-class", "4",
                 "--train-per-class", "3", "--test-per-class", "2", "--seed", "5",
                 "--out", scn]) == 0
    with open(os.path.join(scn, "meta")) as f:
        [scenario_id] = [ln.split(" = ")[1] for ln in f.read().splitlines()
                         if ln.startswith("scenario_id = ")]
    scn = shutil.move(scn, str(tmp / scenario_id))  # so a dropped scenario_id reads the same
    out, cfg = str(tmp / "out"), str(tmp / "import.ini")
    with open(cfg, "w") as f:
        f.write(f"[scenario]\nkind = import\npath = {scn}\n[model]\nhidden = 4\n"
                "[protocols]\nnames = source_only,naive_ft\n[pretrain]\nepochs = 1\n"
                f"[sgd]\nepochs = 1\nbatch_size = 4\n[run]\nseeds = 0\noutput_dir = {out}\n"
                "k_spectrum = 2\n")
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("HTLAB_SEED", raising=False)
        assert main(["run", "--config", cfg]) == 0
    return types.SimpleNamespace(scn=scn, cfg=cfg, out=out)


@pytest.fixture(autouse=True)
def _no_seed_override(monkeypatch):
    monkeypatch.delenv("HTLAB_SEED", raising=False)


# ------------------------------------------------------------ meta and data files

def _scenario_values(s) -> dict:
    """Each meta key as a loaded scenario reads it, and its data's bytes."""
    return {"format": "synthetic", "scenario_id": s.scenario_id, "num_classes": s.num_classes,
            "dim": s.dim, "seed": s.seed, "seen": np.flatnonzero(s.seen_mask).tolist(),
            "toxic_pairs": None if s.toxicity is None else str(s.toxicity),
            **{f"count_{n}": len(getattr(s, n)) for n in _SPLITS},
            "data": [(getattr(s, n).X.tobytes(), getattr(s, n).y.tobytes()) for n in _SPLITS]}


@pytest.mark.parametrize("key", _META_KEYS)
def test_each_meta_key_mutation_loads_the_same_or_exits_1_naming_it(inputs, monkeypatch,
                                                                    capfd, key):
    _stop_at(monkeypatch, "build_scenario")
    meta = os.path.join(inputs.scn, "meta")
    argv = ["run", "--config", inputs.cfg]
    rc, err, base = _main(capfd, argv)
    assert rc == 0, err
    base = _scenario_values(base)

    def attempt(mutation, text):
        restore = _swap(meta, _edit_line(key, mutation, text))
        try:
            rc, err, read = _main(capfd, argv)
        finally:
            restore()
        return rc, err, read and _scenario_values(read)

    # without a scenario_id the directory's name, the id, stands in
    default = {"scenario_id": base["scenario_id"], "toxic_pairs": None}.get(key)
    fixed = key not in ("format", "scenario_id")
    assert _faults(key, attempt, base, default, [meta, key], fixed=fixed) == []


@pytest.mark.parametrize("name", [f"{split}_{part}" for split in _SPLITS
                                  for part in ("x.f64", "y.idx")])
def test_each_data_file_cut_extended_or_resized_exits_1_naming_it(inputs, monkeypatch,
                                                                   capfd, name):
    _stop_at(monkeypatch, "build_scenario")
    path = os.path.join(inputs.scn, name)
    faults = []
    for how, edit in {**_FILE_EDITS, "header+1": _resized(1), "header-1": _resized(-1)}.items():
        restore = _swap(path, edit)
        try:
            rc, err, _ = _main(capfd, ["run", "--config", inputs.cfg])
        finally:
            restore()
        if rc != 1 or path not in err:
            faults.append(f"{how}: exit {rc}: {err.strip()}")
    assert faults == []


# ------------------------------------------------------------ config and flags

def _base_config() -> dict:
    """section -> key -> text: every key at its default, and one protocol
    and one seed."""
    tables = {"scenario": {"kind": ("synthetic", None), **cli._SCENARIO_KEYS["synthetic"]},
              "model": cli._MODEL_KEYS, "protocols": {"names": ("naive_ft", None)},
              "pretrain": cli._keys(SgdConfig), "sgd": cli._keys(SgdConfig),
              "lol": cli._keys(LolConfig), "loss": cli._keys(LossSpec),
              "swa": {**cli._keys(SwaConfig), "start_epoch": (SgdConfig().epochs // 2, None)},
              "run": {**cli._RUN_KEYS, "seeds": ("0", None)}}
    return {section: {key: str(default) for key, (default, _) in keys.items()}
            for section, keys in tables.items()}


_CONFIG = _base_config()


def _config_values(cfg: dict) -> dict:
    """Each `[section] key` as a load_config result reads it."""
    values = {f"[scenario] {k}": v for k, v in cfg["scenario"].items()}
    values.update({f"[model] {k}": v for k, v in cfg["model"].items()})
    values["[protocols] names"] = cfg["protocol_names"]
    values.update({f"[run] {k}": cfg[k] for k in cli._RUN_KEYS})
    for section in ("pretrain", "sgd", "lol", "loss", "swa"):
        values.update({f"[{section}] {f.name}": getattr(cfg[section], f.name)
                       for f in fields(cfg[section])})
    return values


def _config_text(section=None, key=None, mutation=None, text=None) -> str:
    """_CONFIG as a config file, its `[section] key` line mutated."""
    lines = []
    for s, keys in _CONFIG.items():
        lines.append(f"[{s}]")
        for k, v in keys.items():
            line = f"{k} = {v}"
            if (s, k) != (section, key) or mutation is None:
                lines.append(line)
            else:
                lines += {"drop": [], "repeat": [line] * 2}.get(mutation, [f"{k} = {text}"])
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("section, key", [(s, k) for s, keys in _CONFIG.items() for k in keys])
def test_each_config_key_mutation_reads_its_text_or_exits_1_naming_it(tmp_path, monkeypatch,
                                                                      capfd, section, key):
    _stop_at(monkeypatch, "load_config")
    path = str(tmp_path / "sweep.ini")

    def attempt(mutation, text):
        with open(path, "w", encoding="utf-8") as f:
            f.write(_config_text(section, key, mutation, text))
        rc, err, read = _main(capfd, ["run", "--config", path])
        return rc, err, read and _config_values(read)

    rc, err, base = attempt(None, None)
    assert rc == 0, err
    name = f"[{section}] {key}"
    integer = key in ("hidden", "seeds") or type(base[name]) is int
    assert _faults(name, attempt, base, base[name], [section, key],
                   number=integer or type(base[name]) is float, integer=integer) == []


def _gen_argv(flags: dict) -> list:
    """`htlab gen` arguments setting each flag of `flags` to its text."""
    return [arg for flag, value in flags.items() for arg in ("--" + flag.replace("_", "-"),
                                                               value)]


# the flags of each kind of `htlab gen`, each at its default; --pairs picks
# the kind, so it is not dropped
_GEN = {"synthetic": {k: str(d) for k, (d, _) in cli._SCENARIO_KEYS["synthetic"].items()},
        "paired": {k: str(d) for k, (d, _) in cli._SCENARIO_KEYS["paired"].items()}}


@pytest.mark.parametrize("kind, flag", [("synthetic", k) for k in _GEN["synthetic"]]
                         + [("paired", "pairs"), ("paired", "overlap")])
def test_each_gen_flag_mutation_reads_its_text_or_exits_1_naming_it(tmp_path, monkeypatch,
                                                                    capfd, kind, flag):
    for generator in ("gen_synthetic_scenario", "gen_paired_toxicity_scenario"):
        _stop_at(monkeypatch, generator, args=True)
    out = str(tmp_path / "scn")

    def attempt(mutation, text):
        flags = dict(_GEN[kind])
        if mutation == "drop":
            del flags[flag]
        elif mutation != "repeat" and mutation is not None:
            flags[flag] = text
        argv = _gen_argv(flags) + (_gen_argv({flag: flags[flag]}) if mutation == "repeat" else [])
        rc, err, read = _main(capfd, ["gen", *argv, "--out", out])
        return rc, err, read and {f.name: getattr(read[0], f.name) for f in fields(read[0])}

    rc, err, base = attempt(None, None)
    assert rc == 0, err
    mutations = ("repeat", *_VALUES) if flag == "pairs" else ("drop", "repeat", *_VALUES)
    # a bound of two flags names the other one as its key: `--classes = 10
    # must be above seen (11)`
    assert _faults(flag, attempt, base, base[flag], [flag.replace("_", "-")],
                   number=True, integer=type(base[flag]) is int, mutations=mutations) == []
    assert not os.path.exists(out)


# a size past the cap of 2**27 float64 values on the largest array it
# implies; the cases below run what they read, with no reader stopped, so a
# size that passed its bound would be drawn, and here fail to allocate
_PAST_CAP = "1000000000000000"


@pytest.mark.parametrize("flags, flag", [
    ({"dim": _PAST_CAP}, "dim"),
    ({"source_per_class": _PAST_CAP}, "source_per_class"),
    ({"train_per_class": _PAST_CAP}, "train_per_class"),
    ({"test_per_class": _PAST_CAP}, "test_per_class"),
    ({"classes": _PAST_CAP, "seen": "1"}, "classes"),
    ({"classes": "10", "seen": "9", "train_per_class": _PAST_CAP}, "train_per_class"),
    ({"pairs": _PAST_CAP}, "pairs"),
    ({"pairs": "1", "dim": _PAST_CAP}, "dim"),
], ids=["dim", "source", "train", "test", "classes", "train-of-9-seen", "pairs", "paired-dim"])
def test_a_gen_size_past_the_cap_exits_1_naming_it(tmp_path, capfd, flags, flag):
    out = str(tmp_path / "scn")
    rc, err, _ = _main(capfd, ["gen", *_gen_argv(flags), "--out", out])
    name = "--" + flag.replace("_", "-")
    assert rc == 1 and f"error: {name} = {flags[flag]} must keep the scenario's largest " \
        "array within 2**27 float64 values" in err, err
    assert not os.path.exists(out)


@pytest.mark.parametrize("section, key, text", [
    ("scenario", "dim", _PAST_CAP),
    ("scenario", "source_per_class", _PAST_CAP),
    ("scenario", "classes", _PAST_CAP),
    ("model", "hidden", f"{_PAST_CAP},64"),
    ("model", "hidden", _PAST_CAP),
])
def test_a_config_size_past_the_cap_exits_1_naming_it(tmp_path, capfd, section, key, text):
    path, out = str(tmp_path / "sweep.ini"), str(tmp_path / "out")
    with open(path, "w", encoding="utf-8") as f:
        f.write(_config_text(section, key, "huge", text))
    rc, err, _ = _main(capfd, ["run", "--config", path, "--out", out])
    assert rc == 1 and f"error: [{section}] {key} = " in err and "2**27" in err, err
    assert not os.path.exists(out)


def test_each_jobs_mutation_reads_its_text_or_exits_1_naming_it(inputs, tmp_path,
                                                                 monkeypatch, capfd):
    _stop_at(monkeypatch, "_run_tasks", args=True)
    out = str(tmp_path / "out")

    def attempt(mutation, text):
        argv = ["run", "--config", inputs.cfg, "--out", out]
        argv += {"drop": [], "repeat": ["--jobs", "1"] * 2}.get(mutation, ["--jobs", text])
        rc, err, read = _main(capfd, argv)
        return rc, err, read and {"--jobs": read[1]}

    assert _faults("--jobs", attempt, {"--jobs": 1}, 1, ["--jobs"], number=True,
                   integer=True) == []


# ------------------------------------------------------------ text files

@pytest.mark.parametrize("what, how", [
    *((what, how) for what in ("config", "summary.csv")
      for how in ("missing", "a directory", "not UTF-8")),
    ("meta", "not UTF-8"),  # the shared scenario's, so edited in place and restored
])
def test_a_text_input_missing_a_directory_or_not_utf8_exits_1_naming_it(inputs, tmp_path,
                                                                         capfd, what, how):
    # each of the three text inputs goes through one reader
    cfg, summary = str(tmp_path / "import.ini"), str(tmp_path / "summary.csv")
    shutil.copy(inputs.cfg, cfg)
    shutil.copy(os.path.join(inputs.out, "summary.csv"), summary)
    run = ["run", "--config", cfg, "--out", str(tmp_path / "out")]
    path, argv = {"config": (cfg, run), "meta": (os.path.join(inputs.scn, "meta"), run),
                  "summary.csv": (summary, ["report", str(tmp_path)])}[what]
    restore = lambda: None  # noqa: E731
    if how == "not UTF-8":
        restore = _swap(path, lambda raw: raw + b"\xff")
    else:
        os.remove(path)
        if how == "a directory":
            os.mkdir(path)
    try:
        rc, err, _ = _main(capfd, argv)
    finally:
        restore()
    assert rc == 1 and path in err and "Traceback" not in err, err
    assert not os.path.exists(tmp_path / "out") and not os.path.exists(tmp_path / "report.json")


# ------------------------------------------------------------ checkpoint and summary.csv

@pytest.mark.parametrize("how, edit", [
    *_FILE_EDITS.items(),
    ("header", lambda raw: raw.replace(b"\nkey = ", b"\nkey = 0", 1)),
], ids=[*_FILE_EDITS, "header"])
def test_a_cut_extended_or_reheaded_checkpoint_is_retrained_to_the_same_bytes(
        inputs, tmp_path, capfd, how, edit):
    out = str(tmp_path / "out")
    os.makedirs(out)
    ckpt = os.path.join(out, "source_seed0.ckpt")
    with open(os.path.join(inputs.out, "source_seed0.ckpt"), "rb") as f:
        raw = f.read()
    with open(ckpt, "wb") as f:
        f.write(edit(raw))
    rc, err, _ = _main(capfd, ["run", "--config", inputs.cfg, "--out", out])
    assert rc == 0 and err.count("note:") == 1 and f"note: {ckpt}: " in err, err
    for name in ("source_seed0.ckpt", "curves.csv", "summary.csv"):
        with open(os.path.join(out, name), "rb") as a, \
                open(os.path.join(inputs.out, name), "rb") as b:
            assert a.read() == b.read(), name


def _summary_values(rows: list) -> dict:
    """The seed and overall cells of a summary's first row as read, and the
    rest of its rows."""
    (cells, rep), *others = rows
    rest = [{c: v for c, v in cells.items() if c != "seed"}, rep.sv.tobytes(), others,
            [getattr(rep, m) for m in METRICS if m != "overall"]]
    return {"seed": cells["seed"], "overall": rep.overall, "rest": repr(rest)}


@pytest.mark.parametrize("column", ["seed", "overall"])
def test_each_summary_cell_mutation_reads_its_text_or_exits_1_naming_the_file(
        inputs, tmp_path, monkeypatch, capfd, column):
    _stop_at(monkeypatch, "_read_rows")
    shutil.copy(os.path.join(inputs.out, "summary.csv"), tmp_path)
    path = str(tmp_path / "summary.csv")

    def edit_cell(mutation, text):
        def edit(raw):
            header, row, *rest = raw.decode().splitlines()
            cells = row.split(",")
            i = header.split(",").index(column)
            cells[i:i + 1] = {"drop": [], "repeat": [cells[i]] * 2}.get(mutation, [text])
            return "\n".join([header, ",".join(cells), *rest, ""]).encode()
        return edit

    def attempt(mutation, text):
        restore = _swap(path, edit_cell(mutation, text) if mutation else lambda raw: raw)
        try:
            rc, err, read = _main(capfd, ["report", str(tmp_path)])
        finally:
            restore()
        return rc, err, read and _summary_values(read)

    rc, err, base = attempt(None, None)
    assert rc == 0, err
    assert _faults(column, attempt, base, None, [path], number=True,
                   integer=column == "seed") == []


def test_a_cut_extended_or_reheaded_summary_reads_the_same_or_exits_1_naming_it(
        inputs, tmp_path, monkeypatch, capfd):
    _stop_at(monkeypatch, "_read_rows")
    shutil.copy(os.path.join(inputs.out, "summary.csv"), tmp_path)
    path = str(tmp_path / "summary.csv")
    rc, err, base = _main(capfd, ["report", str(tmp_path)])
    assert rc == 0, err

    def without_last_column(raw):
        header, *rest = raw.split(b"\n")
        return b"\n".join([header.rsplit(b",", 1)[0], *rest])

    faults = []
    for how, edit in {**_FILE_EDITS, "header": without_last_column}.items():
        restore = _swap(path, edit)
        try:
            rc, err, read = _main(capfd, ["report", str(tmp_path)])
        finally:
            restore()
        if not (rc == 1 and path in err or rc == 0 and repr(read) == repr(base)):
            faults.append(f"{how}: exit {rc}: {err.strip()}")
    assert faults == []
