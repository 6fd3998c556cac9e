"""Config-driven experiment runner.

Subcommands:

    gen     materialize a scenario directory; its flags are the [scenario]
            keys (--source-per-class for source_per_class, ...)
    run     execute a protocol x seed grid from an INI config, writing
            curves.csv (one row per epoch) and summary.csv (final rows)
    report  aggregate summary.csv across seeds into a table and JSON

The config file is INI-style: named sections with key = value lines; see
configs/reference.ini for a complete example. Each section has a fixed set
of keys, and an unknown section or key, or a boolean that is not one of
configparser's boolean words, is a validation error. Defaults come from the
config dataclasses (SgdConfig, LolConfig, LossSpec, SwaConfig; [pretrain]
defaults to the resolved [sgd]) and from one key table per scenario kind.
The HTLAB_SEED environment variable (comma-separated integers) overrides
the configured seed list.

CSV schemas. curves.csv: scenario_id, protocol, seed, epoch, overall, seen,
unseen, seen_chopped, fnr, effective_rank, sv_1..sv_k. summary.csv: the
same columns minus epoch, plus a leading status column ("ok" or "FAILED");
when ensembles are enabled each trained protocol also gets rows named
<protocol>+SE@0.5 and <protocol>+WiSE@0.5. Floats are serialized with 17
significant digits so round-trips are exact; absent values are written as
nan. Exit codes: 0 success, 1 validation error, 2 runtime failure.

The source model is trained once per seed and cached as a checkpoint in
the output directory (source_seed<seed>.ckpt); every protocol for that seed
starts from the same file. The checkpoint header holds a key hashing the
cache format version, the scenario id, the source training data, the model
spec, the [pretrain] settings and the seed; a checkpoint with another key,
or none, is retrained and overwritten, with a note on stderr; so is a
file that is not a whole checkpoint. A checkpoint is written beside its
name and renamed over it, so a run killed while writing leaves no partial
file under the name.

When the cells run in one process (min(N, cells) == 1 for --jobs N), a
protocol and all its seeds are one task, and the seeds of an SGD-trained
protocol train stacked (see transfer.run_protocol); a seed that fails
leaves its stack-mates' rows as they would be without it. Otherwise the
independent (protocol, seed) cells run in min(N, cells) spawned worker
processes, one cell per task. The workers start together; once spawned,
each reads the scenario and the source params once from a queue, and each
task carries only its protocol and seed. Workers start with
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS set to
max(1, usable CPUs // workers), unless the caller set them. Rows are merged
in configured order, so the output is byte-identical to --jobs 1.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict

import numpy as np

from .data import (
    StyleTransform,
    gen_paired_toxicity_scenario,
    gen_synthetic_scenario,
    load_scenario,
    save_scenario,
)
from .losses import LossSpec
from .metrics import EvalSet, aggregate_seeds, evaluate, report_from_scores
from .model import (BadCheckpoint, MlpSpec, StaleCheckpoint, load_checkpoint,
                    save_checkpoint)
from .numkit import Rng
from .optim import LolConfig, SgdConfig, SwaConfig
from .transfer import (DivergenceError, Protocol, pretrain_source, run_protocol,
                       se_predict, wise_merge)

ENSEMBLE_ALPHA = 0.5

_METRICS = ["overall", "seen", "unseen", "seen_chopped", "fnr", "effective_rank"]
CURVE_COLUMNS = ["scenario_id", "protocol", "seed", "epoch", *_METRICS]
SUMMARY_COLUMNS = ["status", "scenario_id", "protocol", "seed", *_METRICS]


def _fmt(x) -> str:
    if x is None:
        return "nan"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return "%.17g" % float(x)


class ConfigError(Exception):
    pass


# ----------------------------------------------------------- config parsing

# [scenario] keys and defaults per kind; `htlab gen` derives its flags from
# the synthetic and paired tables
_GENERATED = {"seed": 0, "dim": 16, "source_per_class": 200, "train_per_class": 60,
              "test_per_class": 40, "cluster_sep": 6.0}
_SCENARIO_KEYS = {
    "synthetic": {**_GENERATED, "classes": 10, "seen": 6, "style_angle": 0.0,
                  "style_shift": 0.0, "style_noise": 0.0},
    "paired": {**_GENERATED, "pairs": 6, "overlap": 0.6},
    "import": {"path": ""},
}
_GEN_KEYS = {**_SCENARIO_KEYS["synthetic"], **_SCENARIO_KEYS["paired"]}
_MODEL_KEYS = {"hidden": "64,64", "activation": "relu", "batchnorm": False,
               "in_adapter": False}
_RUN_KEYS = {"seeds": "", "output_dir": "htlab-out", "k_spectrum": 20, "ensembles": False}
_SECTIONS = ("scenario", "model", "protocols", "pretrain", "sgd", "lol", "loss", "swa",
             "run")


def _read(section: str, raw, defaults: dict) -> dict:
    """`defaults` overridden by `raw`, each value parsed as the type of its
    default; a key `defaults` lacks is an error."""
    out = dict(defaults)
    for key, value in raw.items():
        if key not in defaults:
            raise ConfigError(f"unknown key [{section}] {key}")
        parse = type(defaults[key])
        if parse is bool:
            state = configparser.ConfigParser.BOOLEAN_STATES.get(str(value).lower())
            if state is None:
                raise ConfigError(f"[{section}] {key} must be a boolean, got {value!r}")
            out[key] = state
        else:
            try:
                out[key] = parse(value)
            except ValueError as e:
                raise ConfigError(f"[{section}] {key}: {e}") from e
    return out


def _resolve_scenario(scn) -> dict:
    kind = scn.get("kind", "synthetic")
    if kind not in _SCENARIO_KEYS:
        raise ConfigError(f"unknown scenario kind {kind!r}")
    return _read("scenario", scn, {"kind": kind, **_SCENARIO_KEYS[kind]})


def load_config(path: str) -> dict:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    cp.read(path)
    if not cp.has_section("scenario") or not cp.has_section("run"):
        raise ConfigError("config needs [scenario] and [run] sections")
    for name in cp.sections():
        if name not in _SECTIONS:
            raise ConfigError(f"unknown section [{name}]")

    def read(section, defaults):
        return _read(section, cp[section] if cp.has_section(section) else {}, defaults)

    def load(section, base):
        return type(base)(**read(section, asdict(base)))

    sgd = load("sgd", SgdConfig())
    model = read("model", _MODEL_KEYS)
    run = read("run", _RUN_KEYS)

    names = [n.strip() for n in read("protocols", {"names": ""})["names"].split(",")
             if n.strip()]
    if not names:
        raise ConfigError("config needs [protocols] names = ...")

    seeds_raw = os.environ.get("HTLAB_SEED", "").strip() or run["seeds"]
    try:
        seeds = [int(s) for s in seeds_raw.split(",") if s.strip()]
    except ValueError as e:
        raise ConfigError(f"bad seed list {seeds_raw!r}") from e
    if not seeds:
        raise ConfigError("need at least one seed")
    for what, items in (("protocol", names), ("seed", seeds)):
        repeated = [x for x in items if items.count(x) > 1]
        if repeated:
            raise ConfigError(f"{what} {repeated[0]} is listed more than once")

    if run["k_spectrum"] < 1:
        raise ConfigError(f"[run] k_spectrum must be at least 1, got {run['k_spectrum']}")
    model["hidden"] = [int(w) for w in model["hidden"].split(",") if w.strip()]
    return {
        "scenario": _resolve_scenario(cp["scenario"]),
        "model": model,
        "protocol_names": names,
        "sgd": sgd,
        "pretrain": load("pretrain", sgd),
        "lol": load("lol", LolConfig()),
        "loss": load("loss", LossSpec()),
        "swa": load("swa", SwaConfig(start_epoch=sgd.epochs // 2)),
        **run,
        "seeds": seeds,
    }


def build_scenario(scn: dict):
    """The scenario a `[scenario]` dict describes; missing keys take the
    _SCENARIO_KEYS defaults of its kind."""
    s = _resolve_scenario(scn)
    if s["kind"] == "import":
        if not s["path"]:
            raise ConfigError("import scenario needs path = DIR")
        return load_scenario(s["path"])
    per_class = (s["source_per_class"], s["train_per_class"], s["test_per_class"])
    if s["kind"] == "paired":
        scenario, _ = gen_paired_toxicity_scenario(
            num_pairs=s["pairs"], dim=s["dim"], per_class=per_class,
            pair_overlap=s["overlap"], seed=s["seed"], cluster_sep=s["cluster_sep"])
        return scenario
    style = StyleTransform.rotation_shift(s["dim"], angle=s["style_angle"],
                                          shift=s["style_shift"],
                                          noise_sigma=s["style_noise"])
    return gen_synthetic_scenario(
        num_classes=s["classes"], num_seen=s["seen"], dim=s["dim"],
        per_class=per_class, cluster_sep=s["cluster_sep"], style=style, seed=s["seed"])


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


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# what every cell of the run in progress reads: the scenario, the source
# params per seed and k_spectrum; set once per worker process by _share
_SHARED: dict = {}


def _share(scenario, sources: dict, k_spectrum: int):
    _SHARED.update(scenario=scenario, sources=sources, k_spectrum=k_spectrum)


def _share_from(queue):
    """Pool worker initializer: _share the state the parent puts on `queue`."""
    _share(*queue.get())


def _cell(task):
    """The runs of one task, a protocol and the seeds it covers, over the
    _SHARED state: per seed its TransferRun or the exception it failed
    with. Module-level so worker processes can run it."""
    protocol, seeds = task
    scenario, sources = _SHARED["scenario"], _SHARED["sources"]
    # a seed whose pretrain diverged has that error in place of a source
    trained = [s for s in seeds if not isinstance(sources[s], DivergenceError)]
    try:
        runs = run_protocol(scenario.target_train, scenario.target_test,
                            scenario.seen_mask, [sources[s] for s in trained], protocol,
                            trained, toxicity=scenario.toxicity,
                            k_spectrum=_SHARED["k_spectrum"],
                            scenario_id=scenario.scenario_id)
    except Exception as e:  # noqa: BLE001 - fails every seed it trains
        runs = [e] * len(trained)
    done = dict(zip(trained, runs))
    return [done.get(s, sources[s]) for s in seeds]


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def _worker_env(environ, jobs: int, cells: int, usable_cpus: int) -> dict:
    """The BLAS thread variables each of the min(jobs, cells) pool workers
    starts with: the usable CPUs split evenly over the workers, at least 1
    each. A variable already set in `environ` is left to its caller's value."""
    threads = str(max(1, usable_cpus // min(jobs, cells)))
    return {v: threads for v in _BLAS_THREAD_VARS if v not in environ}


@contextmanager
def _added_env(env: dict):
    """os.environ with the variables of `env`, which it must lack, added for
    the duration of the block; spawned processes inherit them."""
    os.environ.update(env)
    try:
        yield
    finally:
        for var in env:
            os.environ.pop(var, None)


def _run_tasks(tasks: list, jobs: int, shared: tuple) -> list:
    """The result of each task, or the exception it raised, in task order.
    With more than one worker the tasks run in spawned processes that each
    read `shared` once from a queue; otherwise they run here."""
    def attempt(call, *args):
        try:
            return call(*args)
        except Exception as e:  # noqa: BLE001 - cell isolation
            return e

    workers = min(jobs, len(tasks))
    if workers == 1:
        _share(*shared)
        try:
            return [attempt(_cell, t) for t in tasks]
        finally:
            _SHARED.clear()
    # spawned, not forked: a forked child keeps the BLAS thread pool the
    # parent already started, whatever the environment says
    spawn = multiprocessing.get_context("spawn")
    # the shared state goes over a queue, not in initargs: initargs travel
    # in each worker's bootstrap pipe, and past the pipe's capacity `submit`
    # blocks until that worker has imported htlab, so workers start in turn
    queue = spawn.Queue()
    with (_added_env(_worker_env(os.environ, jobs, len(tasks), _usable_cpus())),
          ProcessPoolExecutor(max_workers=workers, mp_context=spawn,
                              initializer=_share_from, initargs=(queue,)) as pool):
        futures = [pool.submit(_cell, t) for t in tasks]
        for _ in range(workers):
            queue.put(shared)
        try:
            return [attempt(f.result) for f in futures]
        finally:
            # an item a dead worker never read must not hold up our exit
            queue.close()
            queue.cancel_join_thread()


def _run_cells(cells: list, jobs: int, shared: tuple) -> list:
    """The TransferRun of each (protocol, seed) cell, or the exception it
    failed with, in cell order. When the cells run in one process a task is
    a protocol with all its seeds, which then train stacked; with more
    workers each cell is a task of its own."""
    if min(jobs, len(cells)) == 1:
        seeds: dict = {}  # protocol -> its seeds, in cell order
        for protocol, seed in cells:
            seeds.setdefault(protocol, []).append(seed)
        tasks = [(protocol, tuple(s)) for protocol, s in seeds.items()]
    else:
        tasks = [(protocol, (seed,)) for protocol, seed in cells]
    done = {}
    for (protocol, task_seeds), runs in zip(tasks, _run_tasks(tasks, jobs, shared)):
        for j, seed in enumerate(task_seeds):
            # a task that failed as a whole fails each of its cells
            done[protocol, seed] = runs if isinstance(runs, Exception) else runs[j]
    return [done[c] for c in cells]


def _fields(rep, k: int) -> list:
    """The metric cells of one row, then sv_1..sv_k (nan past the spectrum)."""
    vals = [rep.overall_acc, rep.seen_acc, rep.unseen_acc, rep.seen_chopped_acc,
            rep.false_negative_rate, rep.effective_rank, *rep.spectrum.values]
    return [_fmt(v) for v in vals] + ["nan"] * (len(_METRICS) + k - len(vals))


def cmd_run(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    cfg = load_config(args.config)
    out_dir = args.out or cfg["output_dir"]
    scenario = build_scenario(cfg["scenario"])
    spec = MlpSpec((scenario.dim, *cfg["model"]["hidden"], scenario.num_classes),
                   activation=cfg["model"]["activation"],
                   use_batchnorm=cfg["model"]["batchnorm"],
                   use_in_adapter=cfg["model"]["in_adapter"])
    protocols = [Protocol(kind=n, loss=cfg["loss"], sgd=cfg["sgd"], lol=cfg["lol"],
                          swa=cfg["swa"]) for n in cfg["protocol_names"]]
    n_classes = scenario.target_train.classes_present().size
    if cfg["lol"].leave_k >= n_classes and any(p.local_sgd for p in protocols):
        raise ConfigError(f"[lol] leave_k = {cfg['lol'].leave_k} must be below the "
                          f"{n_classes} classes of the target training split")
    os.makedirs(out_dir, exist_ok=True)

    # one cached source model per seed (or the error its pretrain diverged
    # with); every protocol starts from it
    sources = {}
    for seed in cfg["seeds"]:
        ckpt = os.path.join(out_dir, f"source_seed{seed}.ckpt")
        key = _source_key(scenario, spec, cfg["pretrain"], seed)
        if os.path.exists(ckpt):
            try:
                sources[seed] = load_checkpoint(ckpt, key)
                continue
            except StaleCheckpoint:
                print(f"note: {ckpt} was pretrained under another configuration; "
                      f"retraining it", file=sys.stderr)
            except BadCheckpoint as e:
                print(f"note: {e}; retraining it", file=sys.stderr)
        try:
            sources[seed] = pretrain_source(scenario, spec, cfg["pretrain"],
                                            Rng(seed).derive("source"))
        except DivergenceError as e:
            print(f"runtime failure: {e}", file=sys.stderr)
            sources[seed] = e
            continue
        save_checkpoint(sources[seed], ckpt, key)

    k = cfg["k_spectrum"]
    sv_count = min(k, len(scenario.target_test), spec.layer_widths[-2])
    cells = [(proto, seed) for proto in protocols for seed in cfg["seeds"]]
    runs = _run_cells(cells, args.jobs, (scenario, sources, k))

    sv_columns = [f"sv_{i+1}" for i in range(sv_count)]
    curve_lines = [",".join(CURVE_COLUMNS + sv_columns)]
    summary_lines = [",".join(SUMMARY_COLUMNS + sv_columns)]

    def curve_row(protocol_name, seed, epoch, rep):
        return ",".join([scenario.scenario_id, protocol_name, str(seed), str(epoch)]
                        + _fields(rep, sv_count))

    def summary_row(protocol_name, seed, rep):
        return ",".join(["ok", scenario.scenario_id, protocol_name, str(seed)]
                        + _fields(rep, sv_count))

    failed = []
    # the test set of the ensemble rows
    test = EvalSet(scenario.target_test, scenario.seen_mask, scenario.toxicity)
    for (proto, seed), run in zip(cells, runs):
        if isinstance(run, Exception):
            failed.append((proto.kind, seed, str(run)))
            summary_lines.append(",".join(
                ["FAILED", scenario.scenario_id, proto.kind, str(seed)]
                + ["nan"] * (len(_METRICS) + sv_count)))
            continue
        for epoch, rep in enumerate(run.curve):
            curve_lines.append(curve_row(proto.kind, seed, epoch, rep))
        summary_lines.append(summary_row(proto.kind, seed, run.curve[-1]))
        if cfg["ensembles"] and proto.kind != "source_only":
            src = sources[seed]
            probs = se_predict(src, run.final_params, scenario.target_test.X,
                               ENSEMBLE_ALPHA)
            se_rep = report_from_scores(probs, test)
            summary_lines.append(summary_row(
                f"{proto.kind}+SE@{ENSEMBLE_ALPHA:g}", seed, se_rep))
            merged = wise_merge(src, run.final_params, ENSEMBLE_ALPHA)
            wise_rep = evaluate(merged, test, k)
            summary_lines.append(summary_row(
                f"{proto.kind}+WiSE@{ENSEMBLE_ALPHA:g}", seed, wise_rep))

    with open(os.path.join(out_dir, "curves.csv"), "w", newline="") as f:
        f.write("\n".join(curve_lines) + "\n")
    with open(os.path.join(out_dir, "summary.csv"), "w", newline="") as f:
        f.write("\n".join(summary_lines) + "\n")

    for kind, seed, msg in failed:
        print(f"FAILED {kind} seed={seed}: {msg}", file=sys.stderr)
    done = len(cells) - len(failed)
    print(f"{done}/{len(cells)} runs completed -> {out_dir}/summary.csv")
    return 2 if failed else 0


# ----------------------------------------------------------- gen and report

def cmd_gen(args) -> int:
    scn = {k: v for k, v in vars(args).items() if k in _GEN_KEYS and v is not None}
    if scn.get("pairs", 0) > 0:
        scn["kind"] = "paired"
    else:
        scn.pop("pairs", None)
    scenario = build_scenario(scn)  # a flag the kind does not read is an unknown key
    out = args.out
    save_scenario(scenario, out, force=args.force)
    print(f"{scenario.scenario_id}: {scenario.num_classes} classes "
          f"({int(scenario.seen_mask.sum())} seen), dim {scenario.dim}, "
          f"{len(scenario.source_train)}/{len(scenario.target_train)}/"
          f"{len(scenario.target_test)} samples -> {out}")
    return 0


def _parse_summary(path: str) -> list:
    """The `ok` rows of a summary.csv, after checking its header and the
    width of every row."""
    with open(path) as f:
        lines = [(n, ln.rstrip("\n").split(",")) for n, ln in enumerate(f, 1) if ln.strip()]
    if not lines:
        raise ConfigError(f"{path} is empty")
    header = lines[0][1]
    missing = [c for c in SUMMARY_COLUMNS if c not in header]
    if missing:
        raise ConfigError(f"{path}: header lacks {', '.join(missing)}")
    rows = []
    seen = set()
    for n, fields in lines[1:]:
        if len(fields) != len(header):
            raise ConfigError(f"{path}:{n}: {len(fields)} fields, header has {len(header)}")
        row = dict(zip(header, fields))
        cell = (row["protocol"], row["seed"])
        if cell in seen:
            raise ConfigError(f"{path}:{n}: repeats protocol {cell[0]} seed {cell[1]}")
        seen.add(cell)
        rows.append(row)
    ok = [r for r in rows if r["status"] == "ok"]
    if not ok:
        raise ConfigError(f"{path} has no ok rows")
    return ok


def cmd_report(args) -> int:
    path = os.path.join(args.results_dir, "summary.csv")
    if not os.path.exists(path):
        print(f"missing {path}", file=sys.stderr)
        return 1
    table = aggregate_seeds((r["protocol"], int(r["seed"]), {m: float(r[m]) for m in _METRICS})
                            for r in _parse_summary(path))

    baseline = table.get("naive_ft")
    deltas = {}
    best_delta = {}
    if baseline is not None:
        for name in table:
            if name == "naive_ft":
                continue
            deltas[name] = {
                m: table[name][m]["mean"] - baseline[m]["mean"]
                for m in _METRICS if m in table[name] and m in baseline
            }
        for m in _METRICS:
            vals = {n: d[m] for n, d in deltas.items() if m in d}
            if vals:
                best = max(vals, key=vals.get)
                best_delta[m] = {"protocol": best, "delta": vals[best]}

    report = {"protocols": table, "delta_vs_naive_ft": deltas,
              "best_delta_vs_naive_ft": best_delta}
    out_path = os.path.join(args.results_dir, "report.json")
    with open(out_path, "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)

    width = max(len(n) for n in table) + 2
    head = "protocol".ljust(width) + "".join(m.rjust(15) for m in _METRICS)
    print(head)
    for name, entry in table.items():
        cells = ("%.4f" % entry[m]["mean"] if m in entry else "-" for m in _METRICS)
        print(name.ljust(width) + "".join(c.rjust(15) for c in cells))
    if deltas:
        print("\ndelta vs naive_ft (mean):")
        for name, d in deltas.items():
            if "overall" in d and "unseen" in d:
                print(f"  {name}: overall {d['overall']:+.4f}, unseen {d['unseen']:+.4f}")
    print(f"\nwritten: {out_path}")
    return 0


# ----------------------------------------------------------- entry point

def make_parser():
    p = argparse.ArgumentParser(prog="htlab", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="materialize a scenario directory")
    for key, default in _GEN_KEYS.items():
        g.add_argument("--" + key.replace("_", "-"), type=type(default), default=None,
                       help="N > 0 generates a paired scenario of N pairs" if key == "pairs"
                       else f"default {default}")
    g.add_argument("--out", required=True, help="output directory")
    g.add_argument("--force", action="store_true")
    g.set_defaults(func=cmd_gen)

    r = sub.add_parser("run", help="run a protocol x seed grid")
    r.add_argument("--config", required=True)
    r.add_argument("--out", default=None, help="override the configured output dir")
    r.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="run cells in up to N spawned worker processes, each with "
                        "usable CPUs // workers BLAS threads unless the *_NUM_THREADS "
                        "variables are set; output is byte-identical to --jobs 1")
    r.set_defaults(func=cmd_run)

    rep = sub.add_parser("report", help="aggregate a results directory")
    rep.add_argument("results_dir")
    rep.set_defaults(func=cmd_report)
    return p


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, configparser.Error, ValueError, FileNotFoundError,
            FileExistsError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # noqa: BLE001 - runtime failures exit 2
        print(f"runtime failure: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
