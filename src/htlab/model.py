"""Dense feedforward classifier with explicit forward and backward passes.

The network is a stack of linear layers with relu or tanh activations; each
hidden layer can carry batch normalization, and the input can carry an
instance-normalization adapter (per-sample standardization over the feature
axis followed by a learnable scale and shift -- the dense analogue of
inserting IN layers into a conv net). The final linear layer is the
classifier; the activations feeding it are the penultimate features used by
the diagnostics and the feature-space regularizer.

Parameters live in one f64 buffer, back to back in sorted-name order, and
`values[name]` is a view into it: updates, averages and checkpoints are
buffer operations, and a change to a parameter writes into its view.
Names and their freeze groups:

    layers.{i}.W / layers.{i}.b     backbone (classifier for the last i)
    bn.{i}.gamma / bn.{i}.beta      bn_affine
    bn.{i}.mean / bn.{i}.var        bn_stats (updated by train forwards,
                                    never by gradients)
    in_adapter.scale / .shift       in_adapter

A checkpoint is the three ASCII lines `htlab-checkpoint v2`,
`key = <cache key>` and `end`, then the buffer as little-endian f64. It
does not restate the spec: its reader passes one in, so a file cannot
change the model it is loaded as. The reader takes exactly the header its
writer would write for the key it asks for, and nothing else.

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
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .data import Dataset, _open_input, write_file
from .numkit import (_FRACTION, _MAX_VALUES, _POSITIVE, Rng, _bounded, _check, _check_fields,
                     _one_of)

BN_EPS = 1e-5
BN_MOMENTUM = 0.1
IN_EPS = 1e-5
BN_STATS_BATCH = 256  # rows per eval forward in recompute_bn_stats

GROUPS = ("backbone", "classifier", "bn_affine", "bn_stats", "in_adapter")

# indexes a per-feature vector (h,), or a stack of them (M, h), as one row
# that broadcasts over the batch axis
_ROW = np.s_[..., None, :]


# bounds the weights and biases of the linear layers between the widths w
_WEIGHTS = (lambda w: sum((a + 1) * b for a, b in zip(w, w[1:])) <= _MAX_VALUES,
            "must hold at most 2**27 weights and biases")


@dataclass(frozen=True)
class MlpSpec:
    layer_widths: tuple  # (d, h1, ..., hL, C)
    activation: str = _bounded("relu", _one_of("relu", "tanh"))
    use_batchnorm: bool = False
    use_in_adapter: bool = False
    bn_eps: float = _bounded(BN_EPS, _POSITIVE)
    bn_momentum: float = _bounded(BN_MOMENTUM, _FRACTION)

    def __post_init__(self):
        object.__setattr__(self, "layer_widths", tuple(int(w) for w in self.layer_widths))
        if len(self.layer_widths) < 3:
            raise ValueError("need at least one hidden layer")
        if min(self.layer_widths) < 1:
            raise ValueError("all widths must be >= 1")
        _check("layer_widths", self.layer_widths, _WEIGHTS)
        _check_fields(self)

    @property
    def dim(self) -> int:
        return self.layer_widths[0]

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
            _check("group", g, _one_of(*GROUPS))
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
        w, self.spec = spec.layer_widths, spec
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

    @lru_cache(maxsize=None)
    def plan(self, mask: "FreezeMask") -> "_Plan":
        return _Plan(self, mask)


class _Plan:
    """What a freeze mask trains in a spec's buffer (a slice it does not
    train keeps a zero gradient). train[i]: linear layer i gets gradients;
    decay: the slices of the trained weight matrices, the only parameters
    weight decay applies to; bn, adapter: the BN affine and adapter
    parameters get gradients; lowest: the lowest hidden layer backward has
    to reach."""

    def __init__(self, layout: _Layout, mask: FreezeMask):
        spec = layout.spec
        self.train = [mask.trainable(layout.groups[W]) for W, _ in layout.linear]
        self.decay = [layout.slices[W] for (W, _), t in zip(layout.linear, self.train) if t]
        self.bn = spec.use_batchnorm and mask.bn_affine
        self.adapter = spec.use_in_adapter and mask.in_adapter
        trained = [i for i in range(spec.n_hidden) if self.train[i]]
        self.lowest = 0 if self.bn or self.adapter else min(trained, default=spec.n_hidden)


class ModelParams:
    """A model's parameters around one f64 buffer `flat`, (P,) or (M, P)
    for M stacked runs, which is bound, not copied: `values` is name ->
    view into it, in sorted-name order, and setting a key writes into its
    view."""

    def __init__(self, spec: MlpSpec, flat: np.ndarray):
        layout = _Layout.of(spec)
        if flat.dtype != np.float64 or flat.shape[-1:] != (layout.size,):
            raise ValueError(f"a buffer for this spec is f64 with {layout.size} columns")
        self.spec, self.flat, self.layout, lead = spec, flat, layout, flat.shape[:-1]
        self.values = {k: flat[..., layout.slices[k]].reshape(lead + layout.shapes[k])
                       for k in layout.keys}

    def __reduce__(self):  # pickle the buffer once, not each view
        return ModelParams, (self.spec, self.flat)

    def keys(self):
        return list(self.layout.keys)

    def clone(self) -> "ModelParams":
        return ModelParams(self.spec, self.flat.copy())

    def __getitem__(self, key):
        return self.values[key]

    def __setitem__(self, key, v):
        self.values[key][...] = v


def init_model(spec: MlpSpec, rng: Rng) -> ModelParams:
    """He-style init: W ~ N(0, 2/fan_in), biases zero, BN at identity with
    unit running variance, adapter at identity."""
    params = ModelParams(spec, np.zeros(_Layout.of(spec).size))
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
    inputs: list            # input to each linear layer: X (adapted), then each activation
    pre: list               # linear outputs before BN (None without BN,
                            # where backward does not need them)
    bn_xhat: list           # normalized pre-activations (None without BN)
    bn_batch_mean: list     # the statistics BN used, shaped (..., 1, h): the
    bn_batch_var: list      # batch's in train mode, the running ones in eval
    logits: np.ndarray

    @property
    def features(self) -> np.ndarray:
        """Penultimate features: output of the last hidden activation."""
        return self.inputs[-1]


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

    inputs, pre, bn_xhat, bn_mean, bn_var = [], [], [], [], []
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

    inputs.append(a)
    W, b = layout.linear[-1]
    logits = a @ v[W]
    logits += v[b][_ROW]
    return ForwardTrace(mode=mode, X=X, adapter_xhat=adapter_xhat, inputs=inputs,
                        pre=pre, bn_xhat=bn_xhat, bn_batch_mean=bn_mean,
                        bn_batch_var=bn_var, logits=logits)


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
                  lambda shape: ModelParams(spec, np.zeros(shape)))
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
            act = trace.inputs[i + 1]
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


def recompute_bn_stats(params: ModelParams, dataset: Dataset) -> ModelParams:
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
        for lo in range(0, n_total, BN_STATS_BATCH):
            Xb = dataset.X[lo:lo + BN_STATS_BATCH]
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
    if p1.spec != p2.spec:
        raise ValueError("parameter spec mismatch")
    flat = a * p1.flat + b * p2.flat
    for s in p1.layout.variances:
        np.maximum(flat[..., s], 0.0, out=flat[..., s])
    return ModelParams(p1.spec, flat)


# ----------------------------------------------------------- checkpoint I/O

class BadCheckpoint(ValueError):
    """A file that is not a whole checkpoint of the cache key and spec asked
    for; the message names the file and what is wrong with it."""


def _header(key: str) -> bytes:
    """The bytes a checkpoint under the cache `key` starts with."""
    return f"htlab-checkpoint v2\nkey = {key}\nend\n".encode("ascii")


def save_checkpoint(params: ModelParams, path: str, key: str):
    """Write `params` as a checkpoint under the cache `key` (see the module
    docstring), through write_file."""
    write_file(path, _header(key), np.ascontiguousarray(params.flat, dtype="<f8").tobytes())


def load_checkpoint(path: str, spec: MlpSpec, key: str) -> ModelParams:
    """The params of `spec` that save_checkpoint wrote under the cache `key`.
    A file that does not start with exactly that header, or whose payload is
    not a buffer of `spec`'s size with nonnegative running variances, raises
    BadCheckpoint; a path that cannot be opened, a ValueError (see _open_input)."""
    head, layout = _header(key), _Layout.of(spec)
    with _open_input(path) as f:
        # one byte past a whole checkpoint tells a longer file, unread
        raw = f.read(len(head) + 8 * layout.size + 1)
        size = os.fstat(f.fileno()).st_size
    if not raw.startswith(head):
        raise BadCheckpoint(f"{path}: not a checkpoint of this configuration's cache key")
    if len(raw) - len(head) != 8 * layout.size:
        raise BadCheckpoint(f"{path}: payload is {size - len(head)} bytes, "
                            f"its spec needs {8 * layout.size}")
    params = ModelParams(spec, np.frombuffer(raw, "<f8", offset=len(head)).astype(np.float64))
    if any(np.any(params.flat[s] < 0) for s in layout.variances):
        raise BadCheckpoint(f"{path}: negative running variance")
    return params
