"""Config-driven experiment runner.

Subcommands:

    gen     materialize a scenario directory from generator flags
    run     execute a protocol x seed grid from an INI config, writing
            curves.csv (one row per epoch) and summary.csv (final rows)
    report  aggregate summary.csv across seeds into a table and JSON

The config file is INI-style: named sections with key = value lines; see
configs/reference.ini for a complete example. The HTLAB_SEED environment
variable (comma-separated integers) overrides the configured seed list.

CSV schemas. curves.csv: scenario_id, protocol, seed, epoch, overall, seen,
unseen, seen_chopped, fnr, effective_rank, sv_1..sv_k. summary.csv: the
same columns minus epoch, plus a leading status column ("ok" or "FAILED");
when ensembles are enabled each trained protocol also gets rows named
<protocol>+SE@0.5 and <protocol>+WiSE@0.5. Floats are serialized with 17
significant digits so round-trips are exact; absent values are written as
nan. Exit codes: 0 success, 1 validation error, 2 runtime failure.

The source model is trained once per seed and cached as a checkpoint in
the output directory; every protocol for that seed starts from the same
file. Independent (protocol, seed) cells may run in worker processes
(--jobs N); rows are merged in configured order, so the output is
byte-identical regardless of scheduling.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .data import (
    StyleTransform,
    gen_paired_toxicity_scenario,
    gen_synthetic_scenario,
    load_scenario,
    save_scenario,
)
from .losses import LossSpec
from .metrics import aggregate_seeds, evaluate, report_from_scores
from .model import MlpSpec, load_checkpoint, save_checkpoint
from .numkit import Rng
from .optim import LolConfig, SgdConfig, SwaConfig
from .transfer import Protocol, pretrain_source, run_protocol, se_predict, wise_merge

ENSEMBLE_ALPHA = 0.5

CURVE_COLUMNS = ["scenario_id", "protocol", "seed", "epoch", "overall", "seen",
                 "unseen", "seen_chopped", "fnr", "effective_rank"]
SUMMARY_COLUMNS = ["status", "scenario_id", "protocol", "seed", "overall", "seen",
                   "unseen", "seen_chopped", "fnr", "effective_rank"]


def _fmt(x) -> str:
    if x is None:
        return "nan"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return "%.17g" % float(x)


class ConfigError(Exception):
    pass


# ----------------------------------------------------------- config parsing

def _section(cp, name):
    return cp[name] if cp.has_section(name) else {}


def load_config(path: str) -> dict:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    cp.read(path)
    if not cp.has_section("scenario") or not cp.has_section("run"):
        raise ConfigError("config needs [scenario] and [run] sections")

    scn = dict(cp["scenario"])
    model = _section(cp, "model")
    sgd = _section(cp, "sgd")
    pre = _section(cp, "pretrain")
    lol = _section(cp, "lol")
    loss = _section(cp, "loss")
    swa = _section(cp, "swa")
    run = dict(cp["run"])

    def fget(sec, key, default):
        return float(sec.get(key, default))

    def iget(sec, key, default):
        return int(sec.get(key, default))

    def bget(sec, key, default):
        return str(sec.get(key, default)).strip().lower() in ("1", "true", "yes", "on")

    sgd_cfg = SgdConfig(
        lr=fget(sgd, "lr", 0.01), momentum=fget(sgd, "momentum", 0.9),
        weight_decay=fget(sgd, "weight_decay", 0.0),
        batch_size=iget(sgd, "batch_size", 32), epochs=iget(sgd, "epochs", 20))
    pretrain_cfg = SgdConfig(
        lr=fget(pre, "lr", sgd_cfg.lr), momentum=fget(pre, "momentum", sgd_cfg.momentum),
        weight_decay=fget(pre, "weight_decay", sgd_cfg.weight_decay),
        batch_size=iget(pre, "batch_size", sgd_cfg.batch_size),
        epochs=iget(pre, "epochs", sgd_cfg.epochs))
    lol_cfg = LolConfig(
        subsets=iget(lol, "subsets", 10), leave_k=iget(lol, "leave_k", 3),
        local_budget=fget(lol, "local_budget", 0.0),
        outer_step=fget(lol, "outer_step", 1.0), rounds=iget(lol, "rounds", 0))
    loss_spec = LossSpec(
        lambda_distill=fget(loss, "lambda_distill", 0.0),
        lambda_rank=fget(loss, "lambda_rank", 0.0),
        rank_sign=iget(loss, "rank_sign", 1))
    swa_cfg = SwaConfig(
        start_epoch=iget(swa, "start_epoch", max(0, sgd_cfg.epochs // 2)),
        cadence=swa.get("cadence", "per_epoch"))

    names = [n.strip() for n in _section(cp, "protocols").get("names", "").split(",")
             if n.strip()]
    if not names:
        raise ConfigError("config needs [protocols] names = ...")

    seeds_env = os.environ.get("HTLAB_SEED", "").strip()
    seeds_raw = seeds_env if seeds_env else run.get("seeds", "")
    try:
        seeds = [int(s) for s in seeds_raw.split(",") if s.strip()]
    except ValueError as e:
        raise ConfigError(f"bad seed list {seeds_raw!r}") from e
    if not seeds:
        raise ConfigError("need at least one seed")

    hidden = [int(w) for w in str(model.get("hidden", "64,64")).split(",") if w.strip()]
    cfg = {
        "scenario": scn,
        "model": {
            "hidden": hidden,
            "activation": model.get("activation", "relu"),
            "batchnorm": bget(model, "batchnorm", False),
            "in_adapter": bget(model, "in_adapter", False),
        },
        "protocol_names": names,
        "sgd": sgd_cfg,
        "pretrain": pretrain_cfg,
        "lol": lol_cfg,
        "loss": loss_spec,
        "swa": swa_cfg,
        "seeds": seeds,
        "output_dir": run.get("output_dir", "htlab-out"),
        "k_spectrum": iget(run, "k_spectrum", 20),
        "ensembles": bget(run, "ensembles", False),
    }
    return cfg


def build_scenario(scn: dict):
    kind = scn.get("kind", "synthetic")
    if kind == "import":
        if "path" not in scn:
            raise ConfigError("import scenario needs path = DIR")
        return load_scenario(scn["path"])
    seed = int(scn.get("seed", 0))
    per_class = (int(scn.get("source_per_class", 200)),
                 int(scn.get("train_per_class", 60)),
                 int(scn.get("test_per_class", 40)))
    if kind == "synthetic":
        dim = int(scn.get("dim", 16))
        style = StyleTransform.rotation_shift(
            dim, angle=float(scn.get("style_angle", 0.0)),
            shift=float(scn.get("style_shift", 0.0)),
            noise_sigma=float(scn.get("style_noise", 0.0)))
        return gen_synthetic_scenario(
            num_classes=int(scn.get("classes", 10)),
            num_seen=int(scn.get("seen", 6)), dim=dim, per_class=per_class,
            cluster_sep=float(scn.get("cluster_sep", 6.0)), style=style, seed=seed)
    if kind == "paired":
        scenario, _ = gen_paired_toxicity_scenario(
            num_pairs=int(scn.get("pairs", 6)), dim=int(scn.get("dim", 16)),
            per_class=per_class, pair_overlap=float(scn.get("overlap", 0.6)),
            seed=seed, cluster_sep=float(scn.get("cluster_sep", 6.0)))
        return scenario
    raise ConfigError(f"unknown scenario kind {kind!r}")


def _protocol_for(name: str, cfg: dict) -> Protocol:
    return Protocol(kind=name, loss=cfg["loss"], sgd=cfg["sgd"], lol=cfg["lol"],
                    swa=cfg["swa"])


# ----------------------------------------------------------- the run command

def _cell(args):
    """One (protocol, seed) cell; module-level so worker processes can run it."""
    scenario, source, protocol, seed, k_spectrum = args
    return run_protocol(scenario.target_train, scenario.target_test,
                        scenario.seen_mask, source, protocol, seed,
                        toxicity=scenario.toxicity, k_spectrum=k_spectrum,
                        scenario_id=scenario.scenario_id)


def _metric_fields(rep) -> list:
    return [_fmt(rep.overall_acc), _fmt(rep.seen_acc), _fmt(rep.unseen_acc),
            _fmt(rep.seen_chopped_acc), _fmt(rep.false_negative_rate),
            _fmt(rep.effective_rank)]


def _sv_fields(rep, k: int) -> list:
    vals = list(rep.spectrum.values)
    return [_fmt(v) for v in vals] + ["nan"] * (k - len(vals))


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    out_dir = args.out or cfg["output_dir"]
    os.makedirs(out_dir, exist_ok=True)
    scenario = build_scenario(cfg["scenario"])
    spec = MlpSpec((scenario.dim, *cfg["model"]["hidden"], scenario.num_classes),
                   activation=cfg["model"]["activation"],
                   use_batchnorm=cfg["model"]["batchnorm"],
                   use_in_adapter=cfg["model"]["in_adapter"])
    protocols = [_protocol_for(n, cfg) for n in cfg["protocol_names"]]

    # one cached source model per seed; every protocol starts from it
    sources = {}
    for seed in cfg["seeds"]:
        ckpt = os.path.join(out_dir, f"source_seed{seed}.ckpt")
        if os.path.exists(ckpt):
            sources[seed] = load_checkpoint(ckpt)
        else:
            sources[seed] = pretrain_source(scenario, spec, cfg["pretrain"],
                                            Rng(seed).derive("source"))
            save_checkpoint(sources[seed], ckpt)

    k = cfg["k_spectrum"]
    sv_count = min(k, len(scenario.target_test), spec.layer_widths[-2])
    cells = [(proto, seed) for proto in protocols for seed in cfg["seeds"]]
    tasks = [(scenario, sources[seed], proto, seed, k) for proto, seed in cells]
    results = {}
    failed = []
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            futures = {i: pool.submit(_cell, t) for i, t in enumerate(tasks)}
            for i, fut in futures.items():
                proto, seed = cells[i]
                try:
                    results[(proto.kind, seed)] = fut.result()
                except Exception as e:  # noqa: BLE001 - cell isolation
                    failed.append((proto.kind, seed, str(e)))
    else:
        for i, task in enumerate(tasks):
            proto, seed = cells[i]
            try:
                results[(proto.kind, seed)] = _cell(task)
            except Exception as e:  # noqa: BLE001 - cell isolation
                failed.append((proto.kind, seed, str(e)))

    curve_lines = [",".join(CURVE_COLUMNS + [f"sv_{i+1}" for i in range(sv_count)])]
    summary_lines = [",".join(SUMMARY_COLUMNS + [f"sv_{i+1}" for i in range(sv_count)])]

    def curve_row(protocol_name, seed, epoch, rep):
        return ",".join([scenario.scenario_id, protocol_name, str(seed), str(epoch)]
                        + _metric_fields(rep) + _sv_fields(rep, sv_count))

    def summary_row(protocol_name, seed, rep, status="ok"):
        return ",".join([status, scenario.scenario_id, protocol_name, str(seed)]
                        + _metric_fields(rep) + _sv_fields(rep, sv_count))

    for proto, seed in cells:
        run = results.get((proto.kind, seed))
        if run is None:
            summary_lines.append(",".join(
                ["FAILED", scenario.scenario_id, proto.kind, str(seed)]
                + ["nan"] * (6 + sv_count)))
            continue
        for epoch, rep in enumerate(run.curve):
            curve_lines.append(curve_row(proto.kind, seed, epoch, rep))
        summary_lines.append(summary_row(proto.kind, seed, run.curve[-1]))
        if cfg["ensembles"] and proto.kind != "source_only":
            src = sources[seed]
            probs = se_predict(src, run.final_params, scenario.target_test.X,
                               ENSEMBLE_ALPHA)
            se_rep = report_from_scores(probs, scenario.target_test,
                                        scenario.seen_mask, scenario.toxicity)
            summary_lines.append(summary_row(
                f"{proto.kind}+SE@{ENSEMBLE_ALPHA:g}", seed, se_rep))
            merged = wise_merge(src, run.final_params, ENSEMBLE_ALPHA)
            wise_rep = evaluate(merged, scenario.target_test, scenario.seen_mask,
                                scenario.toxicity, k)
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
    out = args.out
    if args.pairs > 0:
        scenario, _ = gen_paired_toxicity_scenario(
            num_pairs=args.pairs, dim=args.dim,
            per_class=(args.source_per_class, args.train_per_class, args.test_per_class),
            pair_overlap=args.overlap, seed=args.seed, cluster_sep=args.cluster_sep)
    else:
        style = StyleTransform.rotation_shift(args.dim, angle=args.style_angle,
                                              shift=args.style_shift,
                                              noise_sigma=args.style_noise)
        scenario = gen_synthetic_scenario(
            num_classes=args.classes, num_seen=args.seen, dim=args.dim,
            per_class=(args.source_per_class, args.train_per_class, args.test_per_class),
            cluster_sep=args.cluster_sep, style=style, seed=args.seed)
    save_scenario(scenario, out, force=args.force)
    print(f"{scenario.scenario_id}: {scenario.num_classes} classes "
          f"({int(scenario.seen_mask.sum())} seen), dim {scenario.dim}, "
          f"{len(scenario.source_train)}/{len(scenario.target_train)}/"
          f"{len(scenario.target_test)} samples -> {out}")
    return 0


def _parse_summary(path: str):
    with open(path) as f:
        lines = [ln.rstrip("\n") for ln in f if ln.strip()]
    header = lines[0].split(",")
    rows = []
    for ln in lines[1:]:
        rows.append(dict(zip(header, ln.split(","))))
    return rows


def cmd_report(args) -> int:
    path = os.path.join(args.results_dir, "summary.csv")
    if not os.path.exists(path):
        print(f"missing {path}", file=sys.stderr)
        return 1
    metrics = ["overall", "seen", "unseen", "seen_chopped", "fnr", "effective_rank"]
    table = aggregate_seeds((r["protocol"], int(r["seed"]), {m: float(r[m]) for m in metrics})
                            for r in _parse_summary(path) if r["status"] == "ok")

    baseline = table.get("naive_ft")
    deltas = {}
    best_delta = {}
    if baseline is not None:
        for name in table:
            if name == "naive_ft":
                continue
            deltas[name] = {
                m: table[name][m]["mean"] - baseline[m]["mean"]
                for m in metrics if m in table[name] and m in baseline
            }
        for m in metrics:
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
    head = "protocol".ljust(width) + "".join(m.rjust(15) for m in metrics)
    print(head)
    for name in table:
        cells = []
        for m in metrics:
            if m in table[name]:
                cells.append(("%.4f" % table[name][m]["mean"]).rjust(15))
            else:
                cells.append("-".rjust(15))
        print(name.ljust(width) + "".join(cells))
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
    g.add_argument("--classes", type=int, default=10)
    g.add_argument("--seen", type=int, default=6)
    g.add_argument("--dim", type=int, default=16)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--source-per-class", type=int, default=200)
    g.add_argument("--train-per-class", type=int, default=60)
    g.add_argument("--test-per-class", type=int, default=40)
    g.add_argument("--cluster-sep", type=float, default=6.0)
    g.add_argument("--style-angle", type=float, default=0.0)
    g.add_argument("--style-shift", type=float, default=0.0)
    g.add_argument("--style-noise", type=float, default=0.0)
    g.add_argument("--pairs", type=int, default=0,
                   help="generate a confusable-pair scenario with this many pairs")
    g.add_argument("--overlap", type=float, default=0.6)
    g.add_argument("--out", required=True, help="output directory")
    g.add_argument("--force", action="store_true")
    g.set_defaults(func=cmd_gen)

    r = sub.add_parser("run", help="run a protocol x seed grid")
    r.add_argument("--config", required=True)
    r.add_argument("--out", default=None, help="override the configured output dir")
    r.add_argument("--jobs", type=int, default=1)
    r.set_defaults(func=cmd_run)

    rep = sub.add_parser("report", help="aggregate a results directory")
    rep.add_argument("results_dir")
    rep.set_defaults(func=cmd_report)
    return p


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, FileNotFoundError, FileExistsError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # noqa: BLE001 - runtime failures exit 2
        print(f"runtime failure: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
