"""Outside-in tracing of the htlab package.

`install` wraps the public functions of every htlab module, plus a few
methods, from outside: nothing under src/ is edited. A function bound by
name in several modules (`forward` is imported by model, optim, losses,
metrics and transfer) is rebound in every module that holds it, so no call
escapes the trace.

Each wrapped call becomes a span: name, start, end and parent, kept in
memory and written out when the run ends together with the run id.
Functions called more than HOT_LIMIT times per run (HOT_CALLS) are counted
instead of spanned, because a span there would cost more than the call.

`layer_metrics` turns one run's spans and counters into the per-layer
metrics the benchmark reports. A span's self time is its duration minus
the part of its interval that its children cover.
"""

from __future__ import annotations

import importlib
import inspect
import pickle
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

MODULES = ("cli", "transfer", "optim", "losses", "model", "metrics", "numkit", "data")

HOT_LIMIT = 100_000
# Called about 140k (reference) to 305k (bn-adapter) times per run.
HOT_CALLS = ("model.group_of",)

# (module, class, method) -> span name
METHODS = {
    ("numkit", "Rng", "derive"): "numkit.rng_derive",
    ("model", "ModelParams", "clone"): "model.clone",
    ("losses", "CompositeLoss", "__call__"): "losses.composite",
}

# Fixed here rather than read from htlab, so the reported metric names stay
# those BENCHMARK.json lists even if the program gains a protocol kind.
PROTOCOL_KINDS = (
    "source_only", "naive_ft", "frozen_ft", "lp_ft",
    "bn_affine_only", "bn_stats_only", "in_adapter_only",
    "sgd_distill", "sgd_rank",
    "lolsgd", "lolsgd_distill", "lolsgd_rank", "lolsgd_distill_rank",
    "swa", "swad_lite",
)

# calls cmd_run makes itself for the SE and WiSE ensemble rows
ENSEMBLE_CALLS = ("transfer.se_predict", "transfer.wise_merge",
                  "metrics.report_from_scores", "metrics.evaluate")


class Tracer:
    """In-memory spans and counters of one traced process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list = []
        self._name_ids: dict = {}
        self.name_idx = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack: list = []
        self.counts: Counter = Counter()
        self.source_rows = 0
        self._source_row_set: set = set()
        self.grad_elems = 0
        self.frozen_grad_elems = 0
        self.pool_task_bytes = 0
        self._mask_elems: dict = {}
        self.group_of = None  # the unwrapped model.group_of, set by install
        self.groups = ()  # model.GROUPS, set by install

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def spanned(self, fn, name=None, namer=None, before=None):
        """Wrap `fn` so each call records a span. `namer(args, kwargs)`
        picks the span name per call; `before(args, kwargs)` runs outside
        the span, for bookkeeping that must not count as the layer's time."""
        fixed = None if namer else self.name_id(name)
        name_id, clock = self.name_id, time.perf_counter_ns
        names, parents, starts, ends, stack = (
            self.name_idx, self.parent, self.start, self.end, self._stack)

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            i = len(names)
            names.append(fixed if namer is None else name_id(namer(args, kwargs)))
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, fn, name):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # --- bookkeeping run outside spans

    def note_source_forward(self, args, kwargs):
        X = np.ascontiguousarray(args[1] if len(args) > 1 else kwargs["X"])
        self.source_rows += X.shape[0]
        self._source_row_set.update(X.view(np.dtype((np.void, X.strides[0]))).ravel().tolist())

    def note_backward(self, args, kwargs):
        params = args[0]
        mask = args[3] if len(args) > 3 else kwargs["mask"]
        key = (params.spec, tuple(mask.trainable(g) for g in self.groups))
        elems = self._mask_elems.get(key)
        if elems is None:
            total = frozen = 0
            for k, v in params.values.items():
                group = self.group_of(k, params.spec)
                if group == "bn_stats":
                    continue  # running statistics get no gradient
                total += v.size
                frozen += 0 if mask.trainable(group) else v.size
            elems = self._mask_elems[key] = (total, frozen)
        self.grad_elems += elems[0]
        self.frozen_grad_elems += elems[1]

    def note_pool_task(self, args, kwargs):
        if not self.pool_task_bytes:
            self.pool_task_bytes = len(pickle.dumps(args[0], pickle.HIGHEST_PROTOCOL))

    def record(self) -> dict:
        """Everything layer_metrics needs, as plain data."""
        return {
            "run_id": self.run_id,
            "names": list(self.names),
            "name_idx": np.frombuffer(self.name_idx, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
            "counts": dict(self.counts),
            "source_rows": self.source_rows,
            "source_distinct_rows": len(self._source_row_set),
            "grad_elems": self.grad_elems,
            "frozen_grad_elems": self.frozen_grad_elems,
            "pool_task_bytes": self.pool_task_bytes,
        }


def _forward_name(args, kwargs):
    mode = args[2] if len(args) > 2 else kwargs.get("mode", "eval")
    return "model.forward_train" if mode == "train" else "model.forward_eval"


def _run_protocol_name(args, kwargs):
    protocol = args[4] if len(args) > 4 else kwargs["protocol"]
    return f"transfer.run_protocol.{protocol.kind}"


def install(tracer: Tracer):
    """Wrap every public htlab function and the METHODS in every module
    that binds them. Returns a function that restores the originals."""
    mods = {m: importlib.import_module(f"htlab.{m}") for m in MODULES}
    tracer.group_of, tracer.groups = mods["model"].group_of, mods["model"].GROUPS
    wrappers = {}  # id(original) -> wrapper
    for short, mod in mods.items():
        for attr, obj in vars(mod).items():
            if not (inspect.isfunction(obj) and obj.__module__ == mod.__name__):
                continue
            if attr.startswith("_") and (short, attr) != ("cli", "_cell"):
                continue
            name = f"{short}.{attr}"
            if name in HOT_CALLS:
                wrappers[id(obj)] = tracer.counted(obj, name)
            elif name == "model.forward":
                wrappers[id(obj)] = tracer.spanned(obj, namer=_forward_name)
            elif name == "transfer.run_protocol":
                wrappers[id(obj)] = tracer.spanned(obj, namer=_run_protocol_name)
            elif name == "model.backward":
                wrappers[id(obj)] = tracer.spanned(obj, name, before=tracer.note_backward)
            elif name == "cli._cell":
                wrappers[id(obj)] = tracer.spanned(obj, name, before=tracer.note_pool_task)
            else:
                wrappers[id(obj)] = tracer.spanned(obj, name)

    undo = []
    for short, mod in mods.items():
        for attr, obj in list(vars(mod).items()):
            wrapper = wrappers.get(id(obj))
            if wrapper is None or wrapper.__wrapped__ is not obj:
                continue
            if (short, attr) == ("losses", "forward"):
                # losses only forwards the frozen source model (distillation)
                wrapper = tracer.spanned(obj, namer=_forward_name,
                                         before=tracer.note_source_forward)
            setattr(mod, attr, wrapper)
            undo.append((mod, attr, obj))
    for (short, cls_name, meth), name in METHODS.items():
        cls = getattr(mods[short], cls_name)
        orig = cls.__dict__[meth]
        setattr(cls, meth, tracer.spanned(orig, name))
        undo.append((cls, meth, orig))

    def uninstall():
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)

    return uninstall


# ------------------------------------------------------------ arithmetic

def self_times(start, end, parent) -> list:
    """Per span: its duration minus the union of its children's intervals,
    each clipped to the span."""
    children = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[int(p)].append(i)
    out = []
    for i in range(len(start)):
        lo, hi = int(start[i]), int(end[i])
        covered, run_lo, run_hi = 0, None, None
        for c in sorted(children.get(i, ()), key=lambda c: start[c]):
            a, b = max(int(start[c]), lo), min(int(end[c]), hi)
            if a >= b:
                continue
            if run_hi is None or a > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = a, b
            else:
                run_hi = max(run_hi, b)
        if run_hi is not None:
            covered += run_hi - run_lo
        out.append(hi - lo - covered)
    return out


def layer_metrics(rec: dict) -> dict:
    """Per-layer metrics of one traced run, as {name: value}."""
    names = rec["names"]
    name_idx, parent = rec["name_idx"], rec["parent"]
    start, end = rec["start"], rec["end"]
    dur = np.asarray(end, dtype=np.int64) - np.asarray(start, dtype=np.int64)
    selfs = self_times(start, end, parent)

    calls, total_ns, self_ns = Counter(), Counter(), Counter()
    for i, n in enumerate(name_idx):
        name = names[n]
        calls[name] += 1
        total_ns[name] += int(dur[i])
        self_ns[name] += selfs[i]
    calls.update(rec["counts"])

    def parent_name(i):
        p = parent[i]
        return names[name_idx[p]] if p >= 0 else None

    ensembles_ns = sum(int(dur[i]) for i, n in enumerate(name_idx)
                       if names[n] in ENSEMBLE_CALLS and parent_name(i) == "cli.cmd_run")
    gen_ns = sum(int(dur[i]) for i, n in enumerate(name_idx)
                 if names[n].startswith("data.gen_")
                 and parent_name(i) == "cli.build_scenario")

    def s(name):
        return total_ns[name] / 1e9

    def us(name):
        return total_ns[name] / calls[name] / 1e3 if calls[name] else 0.0

    rows = rec["source_rows"]
    out = {
        "cli.source_cache_hits": calls["model.load_checkpoint"],
        "cli.pool_task_bytes": rec["pool_task_bytes"],
        "transfer.pretrain_source.s": s("transfer.pretrain_source"),
    }
    for kind in PROTOCOL_KINDS:
        out[f"transfer.run_protocol.{kind}.s"] = s(f"transfer.run_protocol.{kind}")
    out.update({
        "transfer.ensembles.s": ensembles_ns / 1e9,
        "optim.sgd_step.calls": calls["optim.sgd_step"],
        "optim.sgd_step.us": us("optim.sgd_step"),
        "optim.lolsgd_round.calls": calls["optim.lolsgd_round"],
        "optim.lolsgd_round.self_s": self_ns["optim.lolsgd_round"] / 1e9,
        "optim.train_sgd.self_s": self_ns["optim.train_sgd"] / 1e9,
        "losses.composite.us": us("losses.composite"),
        "losses.cross_entropy.us": us("losses.cross_entropy"),
        "losses.selective_distill.us": us("losses.selective_distill"),
        "losses.rank_reg.us": us("losses.rank_reg"),
        "losses.source_forward.rows": rows,
        "losses.source_forward.distinct_frac":
            rec["source_distinct_rows"] / rows if rows else 0.0,
        "model.forward_train.calls": calls["model.forward_train"],
        "model.forward_train.us": us("model.forward_train"),
        "model.forward_eval.calls": calls["model.forward_eval"],
        "model.forward_eval.us": us("model.forward_eval"),
        "model.backward.calls": calls["model.backward"],
        "model.backward.us": us("model.backward"),
        "model.backward.frozen_frac":
            rec["frozen_grad_elems"] / rec["grad_elems"] if rec["grad_elems"] else 0.0,
        "model.group_of.calls": calls["model.group_of"],
        "model.clone.calls": calls["model.clone"],
        "model.load_checkpoint.s": s("model.load_checkpoint"),
        "model.save_checkpoint.s": s("model.save_checkpoint"),
        "metrics.evaluate.calls": calls["metrics.evaluate"],
        "metrics.evaluate.us": us("metrics.evaluate"),
        "numkit.top_singular_values.calls": calls["numkit.top_singular_values"],
        "numkit.top_singular_values.us": us("numkit.top_singular_values"),
        "numkit.rng_derive.calls": calls["numkit.rng_derive"],
        "numkit.rng_derive.us": us("numkit.rng_derive"),
        "data.gen_scenario.s": gen_ns / 1e9,
    })
    return out


def unit_of(name: str) -> str:
    if name.endswith((".s", ".self_s")):
        return "s"
    if name.endswith(".us"):
        return "us"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("_bytes"):
        return "B"
    return "count"


def call_counts(rec: dict) -> dict:
    """Calls per span name plus counted calls; these repeat exactly."""
    counts = Counter(rec["names"][n] for n in rec["name_idx"])
    counts.update(rec["counts"])
    return dict(sorted(counts.items()))


def over_hot_limit(rec: dict) -> list:
    """Spanned names called more than HOT_LIMIT times: candidates for HOT_CALLS."""
    counts = Counter(rec["names"][n] for n in rec["name_idx"])
    return sorted(n for n, c in counts.items() if c > HOT_LIMIT)


def save(rec: dict, path: str):
    np.savez(path, names=np.array(rec["names"]),
             counts_keys=np.array(list(rec["counts"]), dtype=str),
             counts_vals=np.array(list(rec["counts"].values()), dtype=np.int64),
             **{k: rec[k] for k in ("name_idx", "parent", "start", "end")},
             **{k: np.array(rec[k]) for k in ("run_id", "source_rows",
                                               "source_distinct_rows", "grad_elems",
                                               "frozen_grad_elems", "pool_task_bytes")})


def load(path: str) -> dict:
    with np.load(path) as z:
        rec = {k: z[k] for k in ("name_idx", "parent", "start", "end")}
        rec["names"] = [str(n) for n in z["names"]]
        rec["counts"] = {str(k): int(v) for k, v in zip(z["counts_keys"], z["counts_vals"])}
        rec["run_id"] = str(z["run_id"])
        for k in ("source_rows", "source_distinct_rows", "grad_elems",
                  "frozen_grad_elems", "pool_task_bytes"):
            rec[k] = int(z[k])
    return rec
