"""End-to-end benchmark of `htlab run`.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout. Each measured run is a fresh
`htlab run` process on the workload's generated config, into a fresh output
directory; runs repeat until S seconds have passed. Every run's
curves.csv and summary.csv must be byte-identical to the first run's (and,
at seed 0, to the digests in digests.json), every cell must be ok, and a
warm-cache workload must load every source model from its cache. A run
that breaks any of these counts all its cells as failed.

--trace 0 reports the end-to-end metrics (medians over the runs):
wall_s, setup_s, cells_per_s and peak_rss_mb; fail_frac is printed.
--trace 1 alternates untraced and traced runs at --jobs 1 and reports the
per-layer metrics of the traced runs plus trace_overhead_frac.
--workload all runs every workload in turn.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. Details of every run go to .perfbench-out/results/. BLAS thread
variables are inherited as they are and recorded, never set.
"""

from __future__ import annotations

import argparse
import compileall
import glob
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
LAUNCH = os.path.join(HERE, "launch.py")
OUT = os.path.join(ROOT, ".perfbench-out")
DIGESTS = os.path.join(HERE, "digests.json")

sys.path.insert(0, HERE)
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

OUTPUTS = ("curves.csv", "summary.csv")
RUN_DEADLINE_S = 60  # a normal run takes 4-9 s; the whole invocation must end in 180 s
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "cells_per_s": "1/s", "peak_rss_mb": "MB"}


@dataclass
class Run:
    traced: bool
    wall_s: float
    setup_s: float
    peak_rss_mb: float
    cells: int
    failed: int
    problems: list = field(default_factory=list)
    trace: dict = None


# ------------------------------------------------------------ output gate

def digest_outputs(run_dir: str) -> dict:
    out = {}
    for name in OUTPUTS:
        path = os.path.join(run_dir, name)
        if os.path.exists(path):
            with open(path, "rb") as f:
                out[name] = hashlib.sha256(f.read()).hexdigest()
    return out


class OutputGate:
    """The CSV digests every run must reproduce: the recorded ones when
    given, else those of the first run checked."""

    def __init__(self, expected: dict = None):
        self.expected = dict(expected) if expected else None

    def check(self, digests: dict) -> list:
        missing = [f"{name} missing" for name in OUTPUTS if name not in digests]
        if missing:
            return missing
        if self.expected is None:
            self.expected = dict(digests)
            return []
        return [f"{name} sha256 {digests[name][:16]} != expected {self.expected[name][:16]}"
                for name in OUTPUTS if digests[name] != self.expected[name]]


def summary_problems(run_dir: str, workload) -> list:
    """Every summary row ok, with the row count the workload implies."""
    path = os.path.join(run_dir, "summary.csv")
    if not os.path.exists(path):
        return []  # reported by the gate
    with open(path) as f:
        rows = [ln.split(",", 1)[0] for ln in f.read().splitlines()[1:] if ln]
    problems = []
    if len(rows) != workload.summary_rows():
        problems.append(f"summary.csv has {len(rows)} rows, expected {workload.summary_rows()}")
    bad = sum(1 for status in rows if status != "ok")
    if bad:
        problems.append(f"{bad} summary rows not ok")
    return problems


def cache_problems(record: dict, seeds: int, warm: bool) -> list:
    """A warm run must load every source model and pretrain none; a cold
    one the reverse. A cold run never passes as warm."""
    hits, pretrains = record.get("cache_hits"), record.get("pretrains")
    want = (seeds, 0) if warm else (0, seeds)
    if (hits, pretrains) != want:
        return [f"source_cache_hits={hits} pretrains={pretrains}, expected "
                f"{want[0]} and {want[1]}"]
    return []


# ------------------------------------------------------------ one process

def child_env() -> dict:
    env = dict(os.environ)
    env.pop("HTLAB_SEED", None)  # would override the workload's seeds
    env["PYTHONPATH"] = SRC
    return env


def _kill_group(pgid: int):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def launch(workload, config: str, run_dir: str, jobs: int, gate: OutputGate,
           cache_from: str = None, trace_id: str = None, keep: bool = False) -> Run:
    """One `htlab run` process into a fresh `run_dir`, seeded with the
    source checkpoints in `cache_from`, timed from launch to exit. The run
    directory is removed afterwards unless `keep` or the run has problems."""
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    if cache_from:
        for ckpt in glob.glob(os.path.join(cache_from, "source_seed*.ckpt")):
            shutil.copy(ckpt, run_dir)
    record_path = os.path.join(run_dir, "record.json")
    cmd = [sys.executable, LAUNCH, "--src", SRC, "--record", record_path]
    if trace_id:
        cmd += ["--trace", trace_id]
    cmd += ["--", "run", "--config", config, "--out", run_dir, "--jobs", str(jobs)]
    with open(os.path.join(run_dir, "htlab.log"), "wb") as log:
        t0 = time.monotonic()
        # its own process group, so a hung run's pool workers die with it
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=child_env(),
                                start_new_session=True)
        killer = threading.Timer(RUN_DEADLINE_S, _kill_group, (proc.pid,))
        killer.start()
        try:
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        finally:
            killer.cancel()
        t1 = time.monotonic()
        _kill_group(proc.pid)  # stragglers; the unreaped leader keeps the id ours
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)

    problems = []
    if proc.returncode != 0:
        problems.append(f"exit code {proc.returncode}")
    try:
        with open(record_path) as f:
            record = json.load(f)
    except (OSError, ValueError):
        record = {}
        problems.append("no launch record")
    setup_end = record.get("setup_end")
    problems += gate.check(digest_outputs(run_dir))
    problems += summary_problems(run_dir, workload)
    problems += cache_problems(record, workload.seeds_per_run, bool(cache_from))
    trace = None
    if trace_id and not problems:
        trace = spans.load(record_path + ".npz")
    cells = workload.cells()
    run = Run(traced=bool(trace_id), wall_s=t1 - t0,
              setup_s=(setup_end - t0) if setup_end else float("nan"),
              peak_rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
              cells=cells, failed=cells if problems else 0, problems=problems,
              trace=trace)
    if not problems and not keep:
        shutil.rmtree(run_dir)
    return run


# ------------------------------------------------------------ one workload

def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    base = os.path.join(OUT, f"{workload.name}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(base, ignore_errors=True)
    os.makedirs(base)
    config = os.path.join(base, "config.ini")
    with open(config, "w") as f:
        f.write(workload.config_text(seed))
    recorded = None
    if seed == 0:
        with open(DIGESTS) as f:
            recorded = json.load(f)[workload.name]
    gate = OutputGate(recorded)

    labelled = []  # (label, Run) of every process launched
    cache_from = None
    if workload.warm_cache:
        # untimed warm-up of the same code fills the source-checkpoint cache
        cache_from = os.path.join(base, "cache")
        warm = launch(workload, config, cache_from, workload.jobs, gate, keep=True)
        labelled.append(("warm-up", warm))

    jobs = 1 if trace else workload.jobs
    measured = []
    start = time.monotonic()
    while True:
        # with --trace 1, odd runs are traced and even runs give the untraced baseline
        run_id = (f"{workload.name}-seed{seed}-run{len(measured)}"
                  if trace and len(measured) % 2 else None)
        measured.append(launch(workload, config, os.path.join(base, f"run{len(measured)}"),
                               jobs, gate, cache_from=cache_from, trace_id=run_id))
        if time.monotonic() - start >= seconds and (len(measured) >= 2 or not trace):
            break
    labelled += [(f"run {i}", r) for i, r in enumerate(measured)]
    if cache_from and not warm.problems:
        shutil.rmtree(cache_from)

    problems = [f"{label}: {p}" for label, r in labelled for p in r.problems]
    ok = [r for r in measured if not r.problems]  # metrics only from checked runs
    if trace:
        plain = [r.wall_s for r in ok if not r.traced]
        traced = [r for r in ok if r.traced]
        counts = [spans.call_counts(r.trace) for r in traced]
        if any(c != counts[0] for c in counts[1:]):
            problems.append("traced call counts differ between repeats")
        for name in (spans.over_hot_limit(traced[0].trace) if traced else []):
            print(f"warning: {name} is spanned but called more than "
                  f"{spans.HOT_LIMIT} times; add it to spans.HOT_CALLS", file=sys.stderr)
        per_run = [spans.layer_metrics(r.trace) for r in traced]
        samples = {name: [m[name] for m in per_run] for name in per_run[0]} if per_run else {}
        if traced and plain:
            samples["trace_overhead_frac"] = [
                statistics.median(r.wall_s for r in traced) / statistics.median(plain) - 1]
    else:
        samples = {
            "wall_s": [r.wall_s for r in ok],
            "setup_s": [r.setup_s for r in ok],
            "cells_per_s": [r.cells / (r.wall_s - r.setup_s) for r in ok],
            "peak_rss_mb": [r.peak_rss_mb for r in ok],
        }
        samples = {k: v for k, v in samples.items() if v}
    attempted = sum(r.cells for _, r in labelled)
    failed = sum(r.failed for _, r in labelled)
    if problems and not failed:
        failed = attempted
    return {
        "workload": workload.name, "seed": seed, "trace": trace, "jobs": jobs,
        "runs": len(measured), "samples": samples,
        "attempted": attempted, "failed": failed, "problems": problems,
        "output_digests": gate.expected,
        "run_walls_s": [r.wall_s for r in measured],
    }


# ------------------------------------------------------------ reporting

def machine_facts() -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_desc = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_desc = "unknown"
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = out.stdout.strip() or commit
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "htlab", "*.py"))):
        with open(path, "rb") as f:
            h.update(os.path.basename(path).encode() + b"\0" + f.read())
    facts = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_desc,
        "git_commit": commit,
        "src_sha256": h.hexdigest(),
    }
    facts.update({v: os.environ.get(v) for v in THREAD_VARS})
    return facts


def metrics_of(result: dict) -> dict:
    out = {}
    for name, values in result["samples"].items():
        unit = E2E_UNITS.get(name) or spans.unit_of(name)
        out[name] = {"value": statistics.median(values), "unit": unit}
    return out


def print_table(result: dict):
    print(f"== {result['workload']}  seed {result['seed']}  trace {int(result['trace'])}"
          f"  jobs {result['jobs']}  runs {result['runs']}")
    print(f"{'metric':40s} {'median':>14s} {'q1':>12s} {'q3':>12s} {'unit':>6s} {'n':>3s}")
    for name, values in result["samples"].items():
        q1, med, q3 = quartiles(values)
        unit = E2E_UNITS.get(name) or spans.unit_of(name)
        print(f"{name:40s} {med:14.6g} {q1:12.6g} {q3:12.6g} {unit:>6s} {len(values):3d}")
    frac = result["failed"] / result["attempted"] if result["attempted"] else float("nan")
    print(f"{'fail_frac':40s} {frac:14.6g} {'':12s} {'':12s} {'ratio':>6s} "
          f"{result['attempted']:3d}")
    for p in result["problems"]:
        print(f"problem: {p}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "htlab", "cli.py")):
        print(f"error: no htlab sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    compileall.compile_dir(SRC, quiet=1)

    facts = machine_facts()
    print("machine: " + json.dumps(facts, sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        result["machine"] = facts
        results.append(result)
        print_table(result)
        os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
        path = os.path.join(OUT, "results",
                            f"{name}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w") as f:
            json.dump(result, f, indent=1, sort_keys=True)

    if len(results) == 1:
        metrics = metrics_of(results[0])
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in metrics_of(r).items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = failed == 0 and not any(r["problems"] for r in results)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
