"""Dense feedforward classifier with explicit forward and backward passes.

The network is a stack of linear layers with relu or tanh activations; each
hidden layer can carry batch normalization, and the input can carry an
instance-normalization adapter (per-sample standardization over the feature
axis followed by a learnable scale and shift -- the dense analogue of
inserting IN layers into a conv net). The final linear layer is the
classifier; the activations feeding it are the penultimate features used by
the diagnostics and the feature-space regularizer.

Parameters live in one f64 buffer, back to back in sorted-name (checkpoint)
order, and `values[name]` is a view into it: updates, averages and checkpoints
are buffer operations, and a change to a parameter writes into its view.
Names and their freeze groups:

    layers.{i}.W / layers.{i}.b     backbone (classifier for the last i)
    bn.{i}.gamma / bn.{i}.beta      bn_affine
    bn.{i}.mean / bn.{i}.var        bn_stats (updated by train forwards,
                                    never by gradients)
    in_adapter.scale / .shift       in_adapter

Train-mode forwards normalize with batch statistics; eval-mode forwards use
running statistics and are pure per-row functions of the parameters.

forward and backward also take M independent models at once: the buffer is
then (M, P), every array of the params carries a leading run axis
(M, *shape), X is (M, B, d) and each run m sees only params[k][m] and X[m].
Run m then goes through the same per-slice matmuls, reductions and
elementwise ops as a 2-D call on its own slice, so its results are bitwise
those of that call.
"""

from __future__ import annotations

import math
import os
from contextlib import suppress
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .data import Dataset
from .numkit import Rng

BN_EPS = 1e-5
BN_MOMENTUM = 0.1
IN_EPS = 1e-5

GROUPS = ("backbone", "classifier", "bn_affine", "bn_stats", "in_adapter")

# indexes a per-feature vector (h,), or a stack of them (M, h), as one row
# that broadcasts over the batch axis
_ROW = np.s_[..., None, :]


@dataclass(frozen=True)
class MlpSpec:
    layer_widths: tuple  # (d, h1, ..., hL, C)
    activation: str = "relu"
    use_batchnorm: bool = False
    use_in_adapter: bool = False
    bn_eps: float = BN_EPS
    bn_momentum: float = BN_MOMENTUM

    def __post_init__(self):
        object.__setattr__(self, "layer_widths", tuple(int(w) for w in self.layer_widths))
        if len(self.layer_widths) < 3:
            raise ValueError("need at least one hidden layer")
        if min(self.layer_widths) < 1:
            raise ValueError("all widths must be >= 1")
        if self.activation not in ("relu", "tanh"):
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.bn_eps <= 0 or not (0.0 < self.bn_momentum <= 1.0):
            raise ValueError("bad batchnorm settings")

    @property
    def dim(self) -> int:
        return self.layer_widths[0]

    @property
    def num_classes(self) -> int:
        return self.layer_widths[-1]

    @property
    def n_linear(self) -> int:
        return len(self.layer_widths) - 1

    @property
    def n_hidden(self) -> int:
        return self.n_linear - 1


@dataclass(frozen=True)
class FreezeMask:
    backbone: bool = True
    classifier: bool = True
    bn_affine: bool = True
    bn_stats: bool = True
    in_adapter: bool = True

    @classmethod
    def all_trainable(cls):
        return cls()

    @classmethod
    def frozen_classifier(cls):
        return cls(classifier=False)

    @classmethod
    def only(cls, *groups):
        for g in groups:
            if g not in GROUPS:
                raise ValueError(f"unknown group {g!r}")
        return cls(**{g: g in groups for g in GROUPS})

    def trainable(self, group: str) -> bool:
        return getattr(self, group)


def group_of(key: str, spec: MlpSpec) -> str:
    if key.startswith("layers."):
        i = int(key.split(".")[1])
        return "classifier" if i == spec.n_linear - 1 else "backbone"
    if key.startswith("bn."):
        return "bn_affine" if key.endswith((".gamma", ".beta")) else "bn_stats"
    if key.startswith("in_adapter."):
        return "in_adapter"
    raise KeyError(key)


class _Layout:
    """Where each parameter of a spec lives in the flat buffer: its slice,
    shape and group, in sorted-name order; the names per layer; and the
    plan of each freeze mask used so far."""

    def __init__(self, spec: MlpSpec):
        w, self.spec, self.plans = spec.layer_widths, spec, {}
        self.linear = [(f"layers.{i}.W", f"layers.{i}.b") for i in range(spec.n_linear)]
        self.bn = [tuple(f"bn.{i}.{p}" for p in ("gamma", "beta", "mean", "var"))
                   for i in range(spec.n_hidden if spec.use_batchnorm else 0)]
        shapes = {k: (w[i + 1],) for i, names in enumerate(self.bn) for k in names}
        for i, (W, b) in enumerate(self.linear):
            shapes[W], shapes[b] = (w[i], w[i + 1]), (w[i + 1],)
        if spec.use_in_adapter:
            shapes["in_adapter.scale"] = shapes["in_adapter.shift"] = (spec.dim,)
        self.keys, self.shapes, self.slices, offset = tuple(sorted(shapes)), shapes, {}, 0
        for k in self.keys:
            self.slices[k] = slice(offset, offset + math.prod(shapes[k]))
            offset = self.slices[k].stop
        self.size = offset
        self.groups = {k: group_of(k, spec) for k in self.keys}
        self.variances = [self.slices[k] for k in self.keys if k.endswith(".var")]

    @staticmethod
    @lru_cache(maxsize=None)
    def of(spec: MlpSpec) -> "_Layout":
        return _Layout(spec)

    def plan(self, mask: "FreezeMask") -> "_Plan":
        plan = self.plans.get(mask)
        if plan is None:
            plan = self.plans[mask] = _Plan(self, mask)
        return plan


def _runs(layout: _Layout, keys) -> list:
    """The slices of `keys`, adjacent ones merged."""
    runs = []
    for s in (layout.slices[k] for k in keys):
        if runs and runs[-1].stop == s.start:
            s = slice(runs.pop().start, s.stop)
        runs.append(s)
    return runs


class _Plan:
    """What a freeze mask trains in a spec's buffer. runs: the slices that
    get gradients; decay: those of weight matrices (the only parameters
    weight decay applies to); undecayed: the rest of runs. train[i]: linear
    layer i gets gradients; bn, adapter: the BN affine and adapter
    parameters do; lowest: the lowest hidden layer backward has to reach."""

    def __init__(self, layout: _Layout, mask: FreezeMask):
        spec = layout.spec
        keys = [k for k in layout.keys
                if layout.groups[k] != "bn_stats" and mask.trainable(layout.groups[k])]
        self.runs = _runs(layout, keys)
        self.decay = [layout.slices[k] for k in keys if k.endswith(".W")]
        self.undecayed = _runs(layout, [k for k in keys if not k.endswith(".W")])
        self.train = [mask.trainable(layout.groups[W]) for W, _ in layout.linear]
        self.bn = spec.use_batchnorm and mask.bn_affine
        self.adapter = spec.use_in_adapter and mask.in_adapter
        trained = [i for i in range(spec.n_hidden) if self.train[i]]
        self.lowest = 0 if self.bn or self.adapter else min(trained, default=spec.n_hidden)


class ModelParams:
    """A model's parameters: one f64 buffer `flat`, (P,) or (M, P) for M
    stacked runs, and `values`, name -> view into it, in sorted-name order.
    Setting a key writes into its view. Built from name -> array `values`
    (copied), or by from_flat around a buffer (not copied)."""

    def __init__(self, spec: MlpSpec, values: dict):
        layout = _Layout.of(spec)
        lead = np.shape(values.get("layers.0.W"))[:-2]
        if sorted(values) != list(layout.keys) or any(
                np.shape(values[k]) != lead + layout.shapes[k] for k in layout.keys):
            raise ValueError("parameter names or shapes do not match the spec")
        self._bind(spec, np.concatenate([np.reshape(values[k], lead + (-1,))
                                         for k in layout.keys], axis=-1, dtype=np.float64))

    @classmethod
    def from_flat(cls, spec: MlpSpec, flat: np.ndarray) -> "ModelParams":
        params = cls.__new__(cls)
        params._bind(spec, flat)
        return params

    def _bind(self, spec: MlpSpec, flat: np.ndarray):
        layout = _Layout.of(spec)
        if flat.dtype != np.float64 or flat.shape[-1:] != (layout.size,):
            raise ValueError(f"a buffer for this spec is f64 with {layout.size} columns")
        self.spec, self.flat, self.layout, lead = spec, flat, layout, flat.shape[:-1]
        self.values = {k: flat[..., layout.slices[k]].reshape(lead + layout.shapes[k])
                       for k in layout.keys}

    def __reduce__(self):  # pickle the buffer once, not each view
        return ModelParams.from_flat, (self.spec, self.flat)

    def keys(self):
        return list(self.layout.keys)

    def clone(self) -> "ModelParams":
        return ModelParams.from_flat(self.spec, self.flat.copy())

    def __getitem__(self, key):
        return self.values[key]

    def __setitem__(self, key, v):
        self.values[key][...] = v

    def same_spec(self, other: "ModelParams") -> bool:
        return self.spec == other.spec


def init_model(spec: MlpSpec, rng: Rng) -> ModelParams:
    """He-style init: W ~ N(0, 2/fan_in), biases zero, BN at identity with
    unit running variance, adapter at identity."""
    params = ModelParams.from_flat(spec, np.zeros(_Layout.of(spec).size))
    wrng = rng.derive("weights")
    for i, (W, _) in enumerate(_Layout.of(spec).linear):
        fan_in = spec.layer_widths[i]
        params[W] = wrng.standard_normal(params[W].shape) * np.sqrt(2.0 / fan_in)
    for k in params.keys():
        if k.endswith((".gamma", ".var", ".scale")):
            params[k] = 1.0
    return params


@dataclass
class ForwardTrace:
    """Intermediate quantities of one forward pass, kept for backward."""

    mode: str
    X: np.ndarray
    adapter_xhat: Optional[np.ndarray]
    inputs: list            # input to each linear layer
    pre: list               # linear outputs before BN (None without BN,
                            # where backward does not need them)
    bn_xhat: list           # normalized pre-activations (None without BN)
    bn_batch_mean: list     # the statistics BN used, shaped (..., 1, h): the
    bn_batch_var: list      # batch's in train mode, the running ones in eval
    activations: list       # activation outputs per hidden layer
    logits: np.ndarray

    @property
    def features(self) -> np.ndarray:
        """Penultimate features: output of the last hidden activation."""
        return self.activations[-1]


def _buffer(scratch: Optional[dict], key, shape: tuple, init=np.empty):
    """`init(shape)`, made once per (key, shape) and kept in `scratch`.
    Reusing arrays across steps keeps large temporaries from being
    allocated, and page-faulted in, on every call."""
    if scratch is None:
        return init(shape)
    buf = scratch.get((key, shape))
    if buf is None:
        buf = scratch[key, shape] = init(shape)
    return buf


def forward(params: ModelParams, X: np.ndarray, mode: str = "eval",
            update_stats: bool = True, scratch: Optional[dict] = None) -> ForwardTrace:
    """Run the network on X (N x d, or M x N x d with stacked params).
    Train mode normalizes with batch statistics and, if `update_stats`,
    folds them into the running statistics with momentum BN_MOMENTUM (the
    only mutation this module ever performs). Eval mode uses running
    statistics and is batch-composition independent. With `scratch`, the
    per-layer arrays of the trace are its buffers (see _buffer), so the
    trace is valid until the next call with the same `scratch`.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"unknown mode {mode!r}")
    X = np.asarray(X, dtype=np.float64)
    spec = params.spec
    if X.ndim not in (2, 3) or X.shape[-1] != spec.dim:
        raise ValueError(f"X must be N x {spec.dim}, or M x N x {spec.dim}")
    n = X.shape[-2]
    if n == 0:
        raise ValueError("empty batch")
    if params.flat.shape[:-1] != X.shape[:-2]:
        raise ValueError("X and the params must have the same leading run axis")
    layout, v = params.layout, params.values

    adapter_xhat = None
    a = X
    if spec.use_in_adapter:
        # np.mean and np.var as the sums they take, the centred rows shared
        adapter_xhat = a - a.sum(axis=-1, keepdims=True) / spec.dim
        var = (adapter_xhat * adapter_xhat).sum(axis=-1, keepdims=True) / spec.dim
        adapter_xhat /= np.sqrt(var + IN_EPS)
        a = v["in_adapter.scale"][_ROW] * adapter_xhat
        a += v["in_adapter.shift"][_ROW]

    inputs, pre, bn_xhat, bn_mean, bn_var, activations = [], [], [], [], [], []
    for i in range(spec.n_hidden):
        W, b = layout.linear[i]
        inputs.append(a)
        z = np.matmul(a, v[W], out=_buffer(scratch, ("z", i), a.shape[:-1] + v[b].shape[-1:]))
        z += v[b][_ROW]
        pre.append(z if spec.use_batchnorm else None)
        xhat = mb = vb = None
        y = z
        if spec.use_batchnorm:
            gamma, beta, mean, var = layout.bn[i]
            if mode == "train":
                # likewise over the batch
                mb = z.sum(axis=-2, keepdims=True) / n
                xhat = np.subtract(z, mb, out=_buffer(scratch, ("xhat", i), z.shape))
                vb = (xhat * xhat).sum(axis=-2, keepdims=True) / n
                if update_stats:
                    m = spec.bn_momentum
                    v[mean][...] = (1 - m) * v[mean] + m * mb[..., 0, :]
                    v[var][...] = (1 - m) * v[var] + m * vb[..., 0, :]
            else:
                mb, vb = v[mean][_ROW], v[var][_ROW]
                xhat = np.subtract(z, mb, out=_buffer(scratch, ("xhat", i), z.shape))
            xhat /= np.sqrt(vb + spec.bn_eps)
            y = np.multiply(v[gamma][_ROW], xhat, out=_buffer(scratch, ("y", i), z.shape))
            y += v[beta][_ROW]
        bn_xhat.append(xhat)
        bn_mean.append(mb)
        bn_var.append(vb)
        # in place: y is a temporary, or z that the trace does not keep
        a = np.maximum(y, 0.0, out=y) if spec.activation == "relu" else np.tanh(y, out=y)
        activations.append(a)

    inputs.append(a)
    W, b = layout.linear[-1]
    logits = a @ v[W]
    logits += v[b][_ROW]
    return ForwardTrace(mode=mode, X=X, adapter_xhat=adapter_xhat, inputs=inputs,
                        pre=pre, bn_xhat=bn_xhat, bn_batch_mean=bn_mean,
                        bn_batch_var=bn_var, activations=activations, logits=logits)


def backward(params: ModelParams, trace: ForwardTrace,
             grad_at_logits: np.ndarray, mask: FreezeMask,
             grad_at_features: Optional[np.ndarray] = None,
             scratch: Optional[dict] = None) -> ModelParams:
    """Backpropagate loss gradients through a train-mode trace. Returns the
    gradients as params of the same shape; frozen groups and the running
    BN statistics hold exact zeros.

    `grad_at_logits` must already carry the loss's 1/N batch scaling.
    `grad_at_features` (optional, same shape as the penultimate features)
    is injected where the features feed the classifier, which is how
    feature-space penalties enter. Only the trained parameters are written,
    and the pass stops below the lowest of them. With `scratch`, kept
    between calls of one mask, the gradients and the temporaries are its
    buffers, valid until the next call.
    """
    if trace.mode != "train":
        raise ValueError("backward needs a train-mode trace")
    spec = params.spec
    if grad_at_logits.shape != trace.logits.shape:
        raise ValueError("grad_at_logits shape mismatch")
    if grad_at_features is not None and grad_at_features.shape != trace.features.shape:
        raise ValueError("grad_at_features shape mismatch")
    out = _buffer(scratch, "grads", params.flat.shape,
                  lambda shape: ModelParams.from_flat(spec, np.zeros(shape)))
    layout = params.layout
    plan = layout.plan(mask)
    v, grads = params.values, out.values
    n, top = trace.X.shape[-2], spec.n_hidden

    # from the classifier (i = top) down to the lowest layer the mask
    # trains; dz is the gradient at layer i's linear output
    dz = grad_at_logits
    for i in range(top, plan.lowest - 1, -1):
        below = i > plan.lowest or plan.adapter  # the gradient goes on through layer i
        if i < top:
            act = trace.activations[i]
            dz = da  # in place from here: relu's subgradient is 0 at 0
            dz *= (act > 0) if spec.activation == "relu" else 1.0 - act**2
        if i < top and spec.use_batchnorm:
            gamma, beta, _, _ = layout.bn[i]
            xhat, vb, mb = trace.bn_xhat[i], trace.bn_batch_var[i], trace.bn_batch_mean[i]
            if plan.bn:
                (dz * xhat).sum(axis=-2, out=grads[gamma])
                dz.sum(axis=-2, out=grads[beta])
            if not (below or plan.train[i]):
                break
            inv_std = 1.0 / np.sqrt(vb + spec.bn_eps)
            dz *= v[gamma][_ROW]  # now the gradient at xhat
            zc = trace.pre[i] - mb
            dvar = (dz * zc).sum(axis=-2, keepdims=True) * (-0.5) * inv_std**3
            dmean = -dz.sum(axis=-2, keepdims=True) * inv_std
            # dz * inv_std + dvar * 2.0 * zc / n + dmean / n, term by term
            zc *= dvar * 2.0
            zc /= n
            dz *= inv_std
            dz += zc
            dz += dmean / n
        W, b = layout.linear[i]
        if plan.train[i]:
            np.matmul(trace.inputs[i].swapaxes(-1, -2), dz, out=grads[W])
            dz.sum(axis=-2, out=grads[b])
        if below:
            da = np.matmul(dz, v[W].swapaxes(-1, -2),
                           out=_buffer(scratch, ("da", i), dz.shape[:-1] + v[W].shape[-2:-1]))
            if i == top and grad_at_features is not None:
                da += grad_at_features

    if plan.adapter:
        (da * trace.adapter_xhat).sum(axis=-2, out=grads["in_adapter.scale"])
        da.sum(axis=-2, out=grads["in_adapter.shift"])
    return out


def recompute_bn_stats(params: ModelParams, dataset: Dataset,
                       batch_size: int = 256) -> ModelParams:
    """Replace running BN statistics with exact full-dataset statistics.

    Layers are processed in order: layer i's pre-activations are computed in
    eval mode using the freshly updated statistics of layers < i, then its
    running mean/variance are set to the streamed full-dataset moments. This
    reproduces a single full-batch train pass exactly and is idempotent.
    All weights, biases, gammas and betas are returned bit-identical.
    """
    if not params.spec.use_batchnorm:
        raise ValueError("model has no batchnorm layers")
    out = params.clone()
    spec = params.spec
    n_total = len(dataset)
    for i in range(spec.n_hidden):
        s = np.zeros(spec.layer_widths[i + 1])
        sq = np.zeros(spec.layer_widths[i + 1])
        for lo in range(0, n_total, batch_size):
            Xb = dataset.X[lo:lo + batch_size]
            trace = forward(out, Xb, mode="eval")
            z = trace.pre[i]
            s += z.sum(axis=0)
            sq += (z * z).sum(axis=0)
        mean = s / n_total
        var = np.maximum(sq / n_total - mean**2, 0.0)
        out[f"bn.{i}.mean"] = mean
        out[f"bn.{i}.var"] = var
    return out


def params_axpy(a: float, p1: ModelParams, b: float, p2: ModelParams) -> ModelParams:
    """Elementwise a*p1 + b*p2 over every group, running variances floored
    at zero so the result stays a valid parameter set."""
    if not p1.same_spec(p2):
        raise ValueError("parameter spec mismatch")
    flat = a * p1.flat + b * p2.flat
    for s in p1.layout.variances:
        np.maximum(flat[..., s], 0.0, out=flat[..., s])
    return ModelParams.from_flat(p1.spec, flat)


# ----------------------------------------------------------- checkpoint I/O

class BadCheckpoint(ValueError):
    """A file that is not a whole, well-formed checkpoint; the message names
    the file and what is wrong with it."""


class StaleCheckpoint(ValueError):
    """A checkpoint whose header lacks the cache key asked for, or holds
    another one."""


def save_checkpoint(params: ModelParams, path: str, key: Optional[str] = None):
    """Text header (spec, the cache `key` if given, per-array offsets) then
    the flat buffer as little-endian f64."""
    spec = params.spec
    lines = [
        "htlab-checkpoint v1",
        "widths = " + ",".join(str(w) for w in spec.layer_widths),
        f"activation = {spec.activation}",
        f"batchnorm = {int(spec.use_batchnorm)}",
        f"in_adapter = {int(spec.use_in_adapter)}",
        f"bn_eps = {spec.bn_eps!r}",
        f"bn_momentum = {spec.bn_momentum!r}",
    ]
    if key is not None:
        lines.append(f"key = {key}")
    layout = _Layout.of(spec)
    for k in layout.keys:
        shape = "x".join(str(s) for s in layout.shapes[k])
        lines.append(f"array = {k} {layout.slices[k].start} {shape}")
    lines.append("end")
    # written beside `path` and renamed over it, so a write cut short never
    # leaves a partial checkpoint under the name
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(("\n".join(lines) + "\n").encode("ascii"))
            f.write(np.ascontiguousarray(params.flat, dtype="<f8").tobytes())
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def load_checkpoint(path: str, key: Optional[str] = None) -> ModelParams:
    """The params a checkpoint holds. A file that is not a whole, well-formed
    checkpoint raises BadCheckpoint; with `key`, a checkpoint written under
    another key, or under none, raises StaleCheckpoint."""
    with open(path, "rb") as f:
        raw = f.read()

    def bad(what):
        return BadCheckpoint(f"{path}: {what}")

    end = raw.find(b"\nend\n")
    if end < 0:
        raise bad("no end line; the file is cut short or not a checkpoint")
    head_end = end + len(b"\nend\n")
    try:
        lines = raw[:head_end].decode("ascii").splitlines()
    except UnicodeDecodeError:
        raise bad("header is not ASCII") from None
    if lines[0] != "htlab-checkpoint v1":
        raise bad("not an htlab checkpoint")
    meta = {}
    arrays = []
    for line in lines[1:-1]:
        k, sep, v = line.partition(" = ")
        try:
            if not sep:
                raise ValueError
            if k == "array":
                name, offset, shape = v.split(" ")
                arrays.append((name, int(offset), tuple(int(s) for s in shape.split("x"))))
            else:
                meta[k] = v
        except ValueError:
            raise bad(f"malformed header line {line!r}") from None
    if key is not None and meta.get("key") != key:
        raise StaleCheckpoint(f"{path} holds cache key {meta.get('key')}, not {key}")
    missing = [k for k in ("widths", "activation", "batchnorm", "in_adapter")
               if k not in meta]
    if missing:
        raise bad(f"header lacks {', '.join(missing)}")
    try:
        spec = MlpSpec(
            layer_widths=tuple(int(w) for w in meta["widths"].split(",")),
            activation=meta["activation"],
            use_batchnorm=bool(int(meta["batchnorm"])),
            use_in_adapter=bool(int(meta["in_adapter"])),
            bn_eps=float(meta.get("bn_eps", BN_EPS)),
            bn_momentum=float(meta.get("bn_momentum", BN_MOMENTUM)),
        )
    except ValueError as e:
        raise bad(f"bad spec in header: {e}") from None
    # the header must declare the spec's arrays, back to back in its order
    layout = _Layout.of(spec)
    if [(name, shape) for name, _, shape in arrays] != \
            [(k, layout.shapes[k]) for k in layout.keys]:
        raise bad("arrays do not match the declared spec")
    for name, offset, _ in arrays:
        if offset != layout.slices[name].start:
            raise bad(f"array {name} declares offset {offset}, "
                      f"expected {layout.slices[name].start}")
    if len(raw) - head_end != 8 * layout.size:
        raise bad(f"payload is {len(raw) - head_end} bytes, "
                  f"its header declares {8 * layout.size}")
    params = ModelParams.from_flat(spec, np.frombuffer(raw, "<f8", offset=head_end)
                                   .astype(np.float64))
    if any(np.any(params.flat[s] < 0) for s in layout.variances):
        raise bad("negative running variance")
    return params
