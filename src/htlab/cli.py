"""Config-driven experiment runner.

Subcommands:

    gen     materialize a scenario directory; its flags are the [scenario]
            keys (--source-per-class for source_per_class, ...). With
            --force over an earlier directory, its meta goes first and the
            new one is written last, so a cut gen leaves no meta
    run     execute a protocol x seed grid from an INI config, writing
            curves.csv (one row per epoch) and summary.csv (final rows)
    report  aggregate summary.csv across seeds into a table and JSON,
            with the sha256 of the summary.csv bytes it read

The config file is INI-style: named sections with key = value lines; see
configs/reference.ini for a complete example. A key states its type, default
and bound once: in a key table below, or as a field of SyntheticSpec or
PairedSpec ([scenario], by kind), SgdConfig, LolConfig, LossSpec or SwaConfig
([pretrain] defaults to the resolved [sgd]). An unknown section or key exits
1, and so does a value that does not parse or is out of bound, as
`error: [section] key = value <bound>` (`htlab gen`, --jobs and --out:
`--flag = ...`). A number parses only as numkit.parse_number spells it:
ASCII digits, `-` the only sign, so `1_0`, `+2` or a non-ASCII digit does
not. A value is read as written, with no `%` interpolation. The config, like a
scenario's meta and summary.csv, is read by data.read_text, so one that is
missing, a directory or not UTF-8 exits 1 naming it; so does an output
directory that cannot be made, by the flag or key that set it. The HTLAB_SEED
environment variable (comma-separated integers) overrides the configured seed
list, and is reported as `HTLAB_SEED = value <bound>`.

CSV schemas. _SCHEMAS describes both files once, for the writer and the one
reader: curves.csv is scenario_id, protocol, seed, epoch (0 is the source
model), then the METRICS and sv_1..sv_k; summary.csv leads with status (ok
or FAILED) and has no epoch. With ensembles each trained protocol also gets
<protocol>+SE@0.5 and <protocol>+WiSE@0.5 rows, FAILED when its own is.
Floats have 17 significant digits, so they read back exactly; absent values
are nan. A scenario_id outside [A-Za-z0-9._+-]+ is refused as its scenario
loads, and report refuses a summary.csv of two scenario_ids. Exit codes: 0
success, 1 validation error, 2 runtime failure.

The source model is trained once per seed and cached as a checkpoint in
the output directory (source_seed<seed>.ckpt); every protocol for that seed
starts from the same file. A checkpoint is its cache key and its parameter
buffer: the key hashes the cache format version, the scenario id, the
source training data, the model spec, the [pretrain] settings and the seed,
and the buffer is loaded into the spec [model] describes, never one the
file states. A file that is not exactly the checkpoint of that key and of
that spec's size (another key, an older format or a cut-short write) is
retrained and overwritten, with a note on stderr. Every file that gen, run
and report write goes through data.write_file: it is written beside its
name and renamed over it, so a command killed while writing leaves no
partial file under the name. Once its config is valid, a run first removes
the curves.csv, summary.csv and report.json an earlier run left, and the
<name>.<pid>.tmp of each that a killed run left; its checkpoints stay.

A task is a protocol and the seeds that train together as one stack, one
run_protocol call, at any --jobs (transfer.Protocol.seed_groups): all the
seeds of a protocol, bn_stats_only's included, or one seed of a leave-out
protocol. A seed whose pretrain diverged stays in its task but out of its
stack, and fails with its pretrain's error; a seed that fails in a task
leaves its stack-mates' rows as they would be without it. With --jobs N the
tasks run in min(N, tasks) worker processes forked from this one, or in this
one when that is 1. Once the sources exist the scenario is dropped, and the
source split with it, before any task: the tasks, and the workers, which
inherit what they read, get the target training split, the test EvalSet,
the scenario id and the source params, so each task carries only its
protocol and seeds. At any --jobs the pretrains and tasks run with numpy's
OpenBLAS capped at one thread, which the workers inherit, unless the caller
set OPENBLAS_NUM_THREADS or OMP_NUM_THREADS; the pool's modules load only
when a pool starts. Every row of a cell, FAILED ones too, is made as encoded
bytes in the process that ran its task (_cell), so only those bytes and
error text reach this one. A task that fails as a whole fails each of its
cells; a fault in making those FAILED rows, or one of this process or of a
worker's, fails the run (exit 2), and the tasks not yet started never run.
Results arrive in task order at every --jobs, and the tasks cover the
grid's cells in configured order, so each task's curves.csv rows stream
into the file's temporary as the task returns and are not kept; each
cell's summary.csv rows and error text are kept until summary.csv is
written, after the last task. Each file is its header and then each cell's
rows in configured order, so the output is byte-identical at every --jobs.
"""

from __future__ import annotations

import argparse
import configparser
import ctypes
import glob
import hashlib
import json
import os
import sys
from contextlib import suppress
from dataclasses import fields

import numpy as np
from numpy.linalg import _umath_linalg

from .data import (
    PairedSpec,
    SyntheticSpec,
    gen_paired_toxicity_scenario,
    gen_synthetic_scenario,
    load_scenario,
    read_text,
    save_scenario,
    write_file,
)
from .losses import LossSpec
from .metrics import METRICS, EvalReport, EvalSet, aggregate_seeds, evaluate, report_from_scores
from .model import _WEIGHTS, BadCheckpoint, MlpSpec, _Layout, load_checkpoint, save_checkpoint
from .numkit import _MAX_VALUES, _SEED, Rng, _at_least, _check, _one_of, parse_number
from .optim import LolConfig, SgdConfig, SwaConfig
from .transfer import (DivergenceError, Protocol, _check_model, pretrain_source,
                       run_protocol, se_predict, wise_merge)

ENSEMBLE_ALPHA = 0.5

# each results file as (its leading columns, those that name a row); the
# METRICS and sv_1..sv_k follow. status leads, so a reader may take it by position
_SCHEMAS = {"curves.csv": (("scenario_id", "protocol", "seed", "epoch"),
                           ("protocol", "seed", "epoch")),
            "summary.csv": (("status", "scenario_id", "protocol", "seed"), ("protocol", "seed"))}


def _columns(name: str, k: int) -> list:
    """The columns of results file `name` with a spectrum of k values."""
    return [*_SCHEMAS[name][0], *METRICS, *(f"sv_{i}" for i in range(1, k + 1))]


# ----------------------------------------------------------- config parsing

def _keys(config) -> dict:
    """key -> (default, bound) of the fields of a config dataclass or instance."""
    return {f.name: (getattr(config, f.name, f.default), f.metadata.get("bound"))
            for f in fields(config)}


# key -> (default, bound), per section and [scenario] kind. A value parses as
# its default's type and is held to its bound (numkit._check); a callable
# bound is made from the section's values, and None leaves the key free.
_COUNT = _at_least(1)
_SCENARIO_KEYS = {"synthetic": _keys(SyntheticSpec), "paired": _keys(PairedSpec),
                  "import": {"path": ("", (bool, "must name a scenario directory"))}}
_GEN_KEYS = {**_SCENARIO_KEYS["synthetic"], **_SCENARIO_KEYS["paired"]}  # htlab gen's flags


def _items(text: str, parse=str, distinct=True) -> list:
    """The entries `text` lists by commas, each parsed; none unless each
    parses and, if `distinct`, none is listed twice."""
    try:
        items = [parse(x.strip()) for x in text.split(",") if x.strip()]
    except ValueError:
        return []
    return items if not distinct or len(set(items)) == len(items) else []


def _widths(text: str) -> list:
    """The widths `text` lists by commas; none unless each is at least 1 and
    a model of them, one wide in and out, is within MlpSpec's cap."""
    widths = _items(text, parse_number, distinct=False)
    return widths if all(w > 0 for w in widths) and _WEIGHTS[0]((1, *widths, 1)) else []


_MODEL_KEYS = {"hidden": ("64,64", (_widths, "must list widths of at least 1 whose layers "
                                              "hold at most 2**27 weights and biases")),
               "activation": _keys(MlpSpec)["activation"], "batchnorm": (False, None),
               "in_adapter": (False, None)}
_PROTOCOLS_KEYS = {"names": ("", (_items, "must list one or more protocols, each once"))}
_RUN_KEYS = {"seeds": ("", None), "output_dir": ("htlab-out", (bool, "must name a directory")),
             "k_spectrum": (20, _COUNT), "ensembles": (False, None)}
_SECTIONS = ("scenario", "model", "protocols", "pretrain", "sgd", "lol", "loss", "swa", "run")
_BOOLEANS = configparser.ConfigParser.BOOLEAN_STATES


def _read(section: str, raw, keys: dict, name=None) -> dict:
    """The defaults of `keys` overridden by the texts of `raw`, each parsed as
    the type of its default (parse_number's) and held to its bound; a key
    `keys` lacks is an error. A message names a key `name(key)`, by default
    `[section] key`."""
    name = name or (lambda key: f"[{section}] {key}")
    out = {key: default for key, (default, _) in keys.items()}
    for key, value in raw.items():
        if key not in keys:
            raise ValueError(f"unknown key {name(key)}")
        parse = type(keys[key][0])
        try:
            out[key] = (_BOOLEANS[value.lower()] if parse is bool else
                        parse_number(value, parse) if parse in (int, float) else value)
        except (KeyError, ValueError):
            raise ValueError(f"{name(key)} = {value!r} must be {parse.__name__}") from None
    for key, (_, bound) in keys.items():
        if bound is not None:
            _check(name(key), out[key], bound(out) if callable(bound) else bound)
    return out


def _resolve_scenario(scn, name=None) -> dict:
    kind = scn.get("kind", "synthetic")
    _check("[scenario] kind", kind, _one_of(*_SCENARIO_KEYS))
    return _read("scenario", scn, {"kind": (kind, None), **_SCENARIO_KEYS[kind]}, name)


def load_config(path: str) -> dict:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    cp.read_file(read_text(path).splitlines(), source=path)
    if not cp.has_section("scenario") or not cp.has_section("run"):
        raise ValueError("config needs [scenario] and [run] sections")
    for name in cp.sections():
        if name not in _SECTIONS:
            raise ValueError(f"unknown section [{name}]")

    def read(section, keys):
        return _read(section, cp[section] if cp.has_section(section) else {}, keys)

    def load(section, base):
        return type(base)(**read(section, _keys(base)))

    sgd = load("sgd", SgdConfig())
    model = read("model", _MODEL_KEYS)
    run = read("run", _RUN_KEYS)

    names = _items(read("protocols", _PROTOCOLS_KEYS)["names"])
    env = os.environ.get("HTLAB_SEED", "").strip()
    seeds_from, seeds_raw = ("HTLAB_SEED", env) if env else ("[run] seeds", run["seeds"])
    seeds = _items(seeds_raw, parse_number)
    # [run] seeds is free text in _RUN_KEYS, since HTLAB_SEED overrides it; each
    # seed is held to [scenario] seed's bound, as Rng reduces a seed mod 2**64
    _check(seeds_from, seeds_raw, (lambda v: seeds and all(map(_SEED[0], seeds)),
                                   "must list one or more integers in [0, 2**64), each once"))

    model["hidden"] = _widths(model["hidden"])
    bases = {"pretrain": sgd, "lol": LolConfig(), "loss": LossSpec(),
             "swa": SwaConfig(start_epoch=sgd.epochs // 2)}
    return {"scenario": _resolve_scenario(cp["scenario"]), "model": model,
            "protocol_names": names, **run, "seeds": seeds, "seeds_from": seeds_from, "sgd": sgd,
            **{section: load(section, base) for section, base in bases.items()}}


def build_scenario(scn: dict):
    """The scenario a resolved `[scenario]` dict (_resolve_scenario's) describes."""
    s = {key: v for key, v in scn.items() if key != "kind"}
    if scn["kind"] == "import":
        return load_scenario(scn["path"])
    if scn["kind"] == "paired":
        return gen_paired_toxicity_scenario(PairedSpec(**s))
    return gen_synthetic_scenario(SyntheticSpec(**s))


# ----------------------------------------------------------- the run command

# part of every source cache key; bump it when pretraining changes in a way
# the other parts of the key do not show
_SOURCE_CACHE_VERSION = 1


def _source_key(scenario, spec: MlpSpec, pretrain: SgdConfig, seed: int) -> str:
    """Hash of everything the source model of `seed` depends on."""
    src = scenario.source_train
    h = hashlib.blake2b(digest_size=16)
    for part in (_SOURCE_CACHE_VERSION, scenario.scenario_id, spec, pretrain, seed,
                 src.num_classes, src.X.shape):
        h.update(repr(part).encode() + b"\0")
    h.update(np.ascontiguousarray(src.X, dtype="<f8").tobytes())
    h.update(np.ascontiguousarray(src.y, dtype="<i8").tobytes())
    return h.hexdigest()


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

# what every cell of the run in progress reads: the target training split
# and the scenario id, _sources' dict, the test EvalSet and sv_count its
# run_protocol call and rows take, and ensembles; never the source split. Set
# by _run_tasks, and inherited by the pool workers it forks
_SHARED: dict = {}


def _cell(task):
    """The cells of one task, a protocol and the seeds it covers, over the
    _SHARED state: per seed, _cell_rows of its run, of the error it failed
    with, of its pretrain's DivergenceError (it trains in no stack), or of
    a fault of the task as a whole, in making its rows too. So only bytes
    and error text leave the process that ran it; a fault in making FAILED
    rows raises. Module-level so worker processes can run it."""
    protocol, seeds = task
    sources, test, k = _SHARED["sources"], _SHARED["test"], _SHARED["sv_count"]
    trained = [seed for seed in seeds if not isinstance(sources[seed], Exception)]

    def rows(results):
        return [_cell_rows(protocol, seed, result, _SHARED["scenario_id"], sources[seed], test,
                           k, _SHARED["ensembles"]) for seed, result in zip(seeds, results)]

    try:
        runs = dict(zip(trained, run_protocol(_SHARED["target_train"], test, k,
                                              [sources[s] for s in trained], protocol, trained)
                        if trained else ()))
        return rows([runs.get(seed, sources[seed]) for seed in seeds])
    except Exception as e:  # noqa: BLE001 - cell isolation
        return rows([e if seed in trained else sources[seed] for seed in seeds])


def _one_blas_thread():
    """Caps numpy's BLAS at one thread, which processes forked later inherit,
    and returns the call that restores its thread count. Leaves the count as
    it is when the caller set one of _BLAS_THREAD_VARS, or where numpy's BLAS
    is not the scipy-openblas build, whose run-time setter this calls."""
    lib = ctypes.CDLL(_umath_linalg.__file__)  # dlsym also searches its dependencies
    get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
    set_ = getattr(lib, "scipy_openblas_set_num_threads64_", None)
    if get is None or set_ is None or any(v in os.environ for v in _BLAS_THREAD_VARS):
        return lambda: None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    before = get()
    set_(1)
    return lambda: set_(before)


def _run_tasks(tasks: list, jobs: int, shared: dict):
    """Yields (task, _cell(task)) for each task, in task order as it
    arrives, with `shared` as _SHARED until the last is taken; the caller
    keeps what it needs of each. With more than one worker the tasks run in
    forked processes, which inherit _SHARED and the BLAS thread count and
    send back only the rows, and a fault stops the pool, cancelling the
    tasks not yet started; else here, with no pool, each as the one before
    it has been taken."""
    workers = min(jobs, len(tasks))
    _SHARED.update(shared)
    try:
        if workers <= 1:
            yield from zip(tasks, map(_cell, tasks))
            return
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        # a fork-context pool forks all its workers at the first submit,
        # before it starts a thread of its own
        pool = ProcessPoolExecutor(max_workers=workers,
                                   mp_context=multiprocessing.get_context("fork"))
        try:
            yield from zip(tasks, pool.map(_cell, tasks))
        finally:
            pool.shutdown(cancel_futures=True)
    finally:
        _SHARED.clear()


def _sources(scenario, spec: MlpSpec, pretrain: SgdConfig, seeds: list, out_dir: str) -> dict:
    """Per seed, its source params, loaded from its checkpoint or pretrained
    and saved there, or the DivergenceError its pretrain raised."""
    sources = {}
    for seed in seeds:
        ckpt = os.path.join(out_dir, f"source_seed{seed}.ckpt")
        key = _source_key(scenario, spec, pretrain, seed)
        if os.path.exists(ckpt):
            try:
                sources[seed] = load_checkpoint(ckpt, spec, key)
                continue
            except BadCheckpoint as e:
                print(f"note: {e}; retraining it", file=sys.stderr)
        try:
            sources[seed] = pretrain_source(scenario, spec, pretrain,
                                            Rng(seed).derive("source"))
            save_checkpoint(sources[seed], ckpt, key)
        except DivergenceError as e:
            print(f"runtime failure: {e}", file=sys.stderr)
            sources[seed] = e.with_traceback(None)  # its frames hold the scenario
    return sources


def _cell_rows(proto, seed, run, scenario_id, source, test: EvalSet, k: int, ensembles: bool):
    """The curves.csv and summary.csv rows, with columns sv_1..sv_k, of the
    cell (proto, seed) of scenario `scenario_id` as encoded bytes, from its
    run or the error it failed with, and that error's text or None. With
    `ensembles` its summary rows go on with its SE and WiSE rows over
    `test`, made from its `source` params."""
    def row(name, rep=None, protocol=proto.kind, **cells):
        # the cells of the file's leading columns (_SCHEMAS), then the metrics
        # and sv_1..sv_k; nan past the spectrum or without a report
        cells.update(scenario_id=scenario_id, protocol=protocol, seed=seed)
        vals = [] if rep is None else [*(getattr(rep, m) for m in METRICS), *rep.sv.tolist()]
        vals += [None] * (len(METRICS) + k - len(vals))
        return ",".join([*(str(cells[c]) for c in _SCHEMAS[name][0]),
                         *("nan" if v is None else "%.17g" % v for v in vals)]) + "\n"

    names = [proto.kind]
    if ensembles and proto.kind != "source_only":
        names += [f"{proto.kind}+{e}@{ENSEMBLE_ALPHA:g}" for e in ("SE", "WiSE")]
    if isinstance(run, Exception):
        failed = "".join(row("summary.csv", status="FAILED", protocol=n) for n in names)
        return b"", failed.encode(), str(run)
    curves = "".join(row("curves.csv", rep, epoch=epoch) for epoch, rep in enumerate(run.curve))
    reports = [run.curve[-1]]
    if len(names) > 1:
        final = run.final_params
        probs = se_predict(source, final, test.data.X, ENSEMBLE_ALPHA)
        merged = wise_merge(source, final, ENSEMBLE_ALPHA)
        reports += [report_from_scores(probs, test), evaluate(merged, test, k)]
    summary = "".join(row("summary.csv", rep, status="ok", protocol=n)
                      for n, rep in zip(names, reports))
    return curves.encode(), summary.encode(), None


def _make_dir(path: str, name: str):
    """Make the directory `path`, named `name` by the flag or key that set
    it, unless it exists. One that cannot be made raises a ValueError."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as e:
        raise ValueError(f"{name} = {path!r} cannot be made a directory: "
                         f"{e.strerror or e}") from None


def cmd_run(args) -> int:
    given = {key: v for key, v in (("jobs", args.jobs), ("out", args.out)) if v is not None}
    flags = _read("run", given, {"jobs": (1, _COUNT), "out": _RUN_KEYS["output_dir"]},
                  lambda key: "--" + key)
    cfg = load_config(args.config)
    out_dir = cfg["output_dir"] if args.out is None else flags["out"]
    # before the scenario is built, so a bad combination costs no generation
    protocols = [Protocol(kind=n, loss=cfg["loss"], sgd=cfg["sgd"], lol=cfg["lol"],
                          swa=cfg["swa"]) for n in cfg["protocol_names"]]
    scenario = build_scenario(cfg["scenario"])
    spec = MlpSpec((scenario.dim, *cfg["model"]["hidden"], scenario.num_classes),
                   activation=cfg["model"]["activation"],
                   use_batchnorm=cfg["model"]["batchnorm"],
                   use_in_adapter=cfg["model"]["in_adapter"])
    n_classes = scenario.target_train.classes_present().size
    # the arrays the run allocates past the model, each held to the cap;
    # width is one run's buffer
    width, rows = _Layout.of(spec).size, len(scenario.target_test)
    _check("[model] hidden", cfg["model"]["hidden"], (
        lambda v: rows * max(v) <= _MAX_VALUES and v[-1] ** 2 <= _MAX_VALUES, (
            f"must keep the eval forward's ({rows} target_test rows, widest layer) activations "
            "and its features' (last, last) Gram within 2**27 float64 values")))
    if not all(p.local_sgd for p in protocols):
        _check(cfg["seeds_from"], len(cfg["seeds"]), (lambda v: v * width <= _MAX_VALUES, (
            f"seeds must keep the (seeds, {width}) stack of the protocols other than the "
            "leave-out ones within 2**27 float64 values")))
    if any(p.local_sgd for p in protocols):
        _check("[lol] leave_k", cfg["lol"].leave_k, (lambda v: v < n_classes, (
            f"must be below the {n_classes} classes of the target training split")))
        _check("[lol] subsets", cfg["lol"].subsets, (lambda v: v * width <= _MAX_VALUES, (
            f"must keep the round's (subsets, {width}) stack within 2**27 float64 values")))
    for proto in protocols:  # a protocol the model cannot run, before any work
        _check_model(proto.kind, spec)
    _make_dir(out_dir, "[run] output_dir" if args.out is None else "--out")
    # what an earlier run left, and the temporaries of one cut while writing
    # them; its checkpoints stay, guarded by their cache key
    for name in (*_SCHEMAS, "report.json"):
        path = os.path.join(out_dir, name)
        for stale in (path, *glob.glob(glob.escape(path) + ".*.tmp")):
            with suppress(FileNotFoundError):
                os.unlink(stale)

    sv_count = min(cfg["k_spectrum"], len(scenario.target_test), spec.layer_widths[-2])
    test = EvalSet(scenario.target_test, scenario.seen_mask, scenario.toxicity)
    target_train, scenario_id = scenario.target_train, scenario.scenario_id

    def header(name):
        return (",".join(_columns(name, sv_count)) + "\n").encode()

    def curves():
        # curves.csv's header, then each task's curves rows as it returns;
        # the tasks cover the grid's cells in configured order
        yield header("curves.csv")
        for (proto, seeds), result in _run_tasks(tasks, flags["jobs"], shared):
            for seed, (curve, summary, error) in zip(seeds, result):
                cells.append(((proto, seed), (summary, error)))
                yield curve

    restore = _one_blas_thread()  # for the pretrains and every cell, at any --jobs
    try:
        sources = _sources(scenario, spec, cfg["pretrain"], cfg["seeds"], out_dir)
        del scenario  # and with it the source split, before any task
        tasks = [(proto, tuple(group)) for proto in protocols
                 for group in proto.seed_groups(cfg["seeds"])]
        cells = []  # ((protocol, seed), (its summary rows, its error text)), in configured order
        shared = {"target_train": target_train, "scenario_id": scenario_id,
                  "sources": sources, "test": test, "sv_count": sv_count,
                  "ensembles": cfg["ensembles"]}
        write_file(os.path.join(out_dir, "curves.csv"), curves())
    finally:
        restore()
    write_file(os.path.join(out_dir, "summary.csv"),
               [header("summary.csv"), *(summary for _, (summary, _) in cells)])

    failed = [(cell, error) for cell, (_, error) in cells if error is not None]
    for (proto, seed), err in failed:
        print(f"FAILED {proto.kind} seed={seed}: {err}", file=sys.stderr)
    print(f"{len(cells) - len(failed)}/{len(cells)} runs completed -> {out_dir}/summary.csv")
    return 2 if failed else 0


# ----------------------------------------------------------- gen and report

def cmd_gen(args) -> int:
    scn = {k: v for k, v in vars(args).items() if k in _GEN_KEYS and v is not None}
    pairs = scn.pop("pairs", "0")
    if pairs != "0":  # 0, the default, generates a synthetic scenario
        scn.update(kind="paired", pairs=pairs)
    name = lambda key: "--" + key.replace("_", "-")  # noqa: E731
    # a flag the kind does not read is an unknown key; the labels that
    # save_scenario writes are u8, so at most 256 classes, two a pair
    key, most = ("pairs", 128) if "pairs" in scn else ("classes", 256)
    scn = _resolve_scenario(scn, name)
    _check(name(key), scn[key],
           (lambda v: v <= most, f"must be at most {most}, as gen writes u8 labels"))
    scenario = build_scenario(scn)
    _make_dir(args.out, "--out")
    save_scenario(scenario, args.out, force=args.force)
    print(f"{scenario.scenario_id}: {scenario.num_classes} classes "
          f"({int(scenario.seen_mask.sum())} seen), dim {scenario.dim}, "
          f"{len(scenario.source_train)}/{len(scenario.target_train)}/"
          f"{len(scenario.target_test)} samples -> {args.out}")
    return 0


def _read_rows(path: str, text: str) -> list:
    """The rows of `text`, the results file at `path` (named as in _SCHEMAS),
    each as its leading cells by column, seed and epoch as ints, and its
    EvalReport, None in a FAILED row; fnr reads as nan where it was None.
    Checks that the header has each of _columns once, the width of every
    row, that no two rows share a key, the status (`ok` or `FAILED`), that
    all rows have one scenario_id, that the metric and spectrum cells of a
    report are numbers, and that seed and epoch are integers in their bounds."""
    name = os.path.basename(path)
    lead, key = _SCHEMAS[name]
    lines = [(n, ln.split(",")) for n, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines:
        raise ValueError(f"{path} is empty")
    header = lines[0][1]
    columns = _columns(name, len({c for c in header if c.startswith("sv_")}))
    for fault, bad in (("lacks", [c for c in columns if c not in header]),
                       ("repeats", [c for i, c in enumerate(header) if c in header[:i]])):
        if bad:
            raise ValueError(f"{path}: header {fault} {', '.join(bad)}")

    def number(n: int, row: dict, column: str, kind, bound=(lambda v: True, None)):
        try:
            value = parse_number(row[column], kind)
        except ValueError:
            raise ValueError(f"{path}:{n}: {column} = {row[column]!r} is not a number") from None
        _check(f"{path}:{n}: {column}", value, bound)
        return value

    out, keys = [], set()
    ints = {"seed": _SEED, "epoch": _at_least(0)}  # the bounds of what `htlab run` writes
    for n, fields in lines[1:]:
        if len(fields) != len(header):
            raise ValueError(f"{path}:{n}: {len(fields)} fields, header has {len(header)}")
        row = dict(zip(header, fields))
        cells = {c: number(n, row, c, int, ints[c]) if c in ints else row[c] for c in lead}
        named = tuple(cells[c] for c in key)
        if named in keys:
            raise ValueError(f"{path}:{n}: repeats " + " ".join(f"{c} {cells[c]}" for c in key))
        keys.add(named)
        if cells.get("status", "ok") not in ("ok", "FAILED"):
            raise ValueError(f"{path}:{n}: status = {row['status']!r} is not ok or FAILED")
        if out and cells["scenario_id"] != out[0][0]["scenario_id"]:
            raise ValueError(f"{path}:{n}: scenario_id = {row['scenario_id']!r} is not "
                             f"{out[0][0]['scenario_id']!r}, as on line {lines[1][0]}")
        rep = None
        if cells.get("status") != "FAILED":
            vals = [number(n, row, c, float) for c in columns[len(lead):]]
            rep = EvalReport(**dict(zip(METRICS, vals)), sv=np.array(vals[len(METRICS):]))
        out.append((cells, rep))
    return out


def cmd_report(args) -> int:
    path = os.path.join(args.results_dir, "summary.csv")
    text = read_text(path)
    parsed = _read_rows(path, text)
    rows = [(c["protocol"], c["seed"], {m: getattr(rep, m) for m in METRICS})
            for c, rep in parsed if rep is not None]
    if not rows:
        raise ValueError(f"{path} has no ok rows")
    table = aggregate_seeds(rows)
    # each protocol against naive_ft seed by seed, over the seeds both have ok rows for
    base = {seed: values for name, seed, values in rows if name == "naive_ft"}
    diffs = [(name, seed, {m: values[m] - base[seed][m] for m in METRICS})
             for name, seed, values in rows if name != "naive_ft" and seed in base]
    deltas = aggregate_seeds(diffs)
    for name, seed, diff in diffs:
        deltas[name].setdefault("per_seed", {})[seed] = {m: diff[m] for m in deltas[name]
                                                         if m in METRICS}
    best_delta = {}
    for m in METRICS:
        vals = {n: d[m]["mean"] for n, d in deltas.items() if m in d}
        if vals:
            best = max(vals, key=vals.get)
            best_delta[m] = {"protocol": best, "delta": vals[best]}

    report = {"protocols": table, "delta_vs_naive_ft": deltas,
              "best_delta_vs_naive_ft": best_delta,
              # strict UTF-8 round-trips, so these are the bytes read
              "summary_sha256": hashlib.sha256(text.encode()).hexdigest()}
    out_path = os.path.join(args.results_dir, "report.json")
    write_file(out_path, [json.dumps(report, indent=2, sort_keys=True).encode()])

    width = max(len(n) for n in table) + 2
    print("protocol".ljust(width) + "".join(m.rjust(15) for m in METRICS))
    for name, entry in table.items():
        shown = ("%.4f" % entry[m]["mean"] if m in entry else "-" for m in METRICS)
        print(name.ljust(width) + "".join(c.rjust(15) for c in shown))
    ok = {(name, seed) for name, seed, _ in rows}
    seeds = sorted({c["seed"] for c, _ in parsed})
    for name in dict.fromkeys(c["protocol"] for c, _ in parsed):
        missing = [s for s in seeds if (name, s) not in ok]
        if missing:
            print(f"note: {name} has no ok row for seed {', '.join(map(str, missing))}")
    if deltas:
        print("\ndelta vs naive_ft (mean over the seeds both have ok rows for):")
        for name, d in deltas.items():
            if "overall" in d and "unseen" in d:
                print(f"  {name}: overall {d['overall']['mean']:+.4f}, "
                      f"unseen {d['unseen']['mean']:+.4f}")
    print(f"\nwritten: {out_path}")
    return 0


# ----------------------------------------------------------- entry point

def make_parser():
    p = argparse.ArgumentParser(prog="htlab", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="materialize a scenario directory")
    for key, (default, _) in _GEN_KEYS.items():
        g.add_argument("--" + key.replace("_", "-"), default=None,
                       help="N > 0 generates a paired scenario of N pairs" if key == "pairs"
                       else f"default {default}")
    g.add_argument("--out", required=True, help="output directory")
    g.add_argument("--force", action="store_true")
    g.set_defaults(func=cmd_gen)

    r = sub.add_parser("run", help="run a protocol x seed grid")
    r.add_argument("--config", required=True)
    r.add_argument("--out", default=None, help="override the configured output dir")
    r.add_argument("--jobs", default="1", metavar="N",
                   help="run the tasks in up to N forked worker processes; output is "
                        "byte-identical to --jobs 1")
    r.set_defaults(func=cmd_run)

    rep = sub.add_parser("report", help="aggregate a results directory")
    rep.add_argument("results_dir")
    rep.set_defaults(func=cmd_report)
    return p


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except (configparser.Error, ValueError, FileNotFoundError, FileExistsError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # noqa: BLE001 - runtime failures exit 2
        print(f"runtime failure: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
