"""Conditional normalizing flow built from affine coupling layers.

Each layer copies one half of the coordinates and applies an affine map to
the other half, with scale and translation computed by small ReLU networks
from the copied half and a conditioning input.  Likelihoods come from the
change-of-variables formula; gradients for training are computed by
hand-rolled reverse mode, no autodiff framework involved.

The conditioning half of every layer (the condition net's feature lifted
into the first hidden pre-activation of both subnets) depends on the
condition alone.  ``flow_condition`` computes it once for a batch of
conditions and keeps only the two lifts of each layer: the feature and its
backward cache are needed by ``flow_gradients`` alone, which conditions its
batch itself and so takes condition values only.  The ``c`` of
``flow_log_prob``, ``flow_forward`` and ``flow_inverse`` takes two forms:
such a ``FlowCondition``, or condition values that reshape to rows of
``cond_dim`` values.  ``z`` holds one row per condition, or one row that
is run against every condition (``flow_gradients`` needs one per
condition).  Regression scoring conditions on the support grid once per
score call and reuses it for every latent row.

``ConditionalFlow``'s constructor checks the partition and the net shapes
of every layer, whether built by ``build_flow`` or read from a model file.

The raw scale output is soft-clamped to s = clamp * tanh(raw / clamp)
before exponentiation, which keeps the map invertible and the
log-determinant bounded regardless of what the subnets produce.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DimMismatchError, DivergedError, TooFewSamplesError
from .linalg import LOG_2PI, as_matrix
from .mlp import Adam, dense_init, glorot_uniform, relu_backward, relu_forward

MIN_TRAIN_ROWS = 10  # flow_train's minimum


class ReluNet:
    """ReLU MLP used inside the coupling layers.

    Without ``lift`` it is the condition net, mapping the condition to the
    feature shared by a layer's subnets.  With ``lift`` it is a coupling
    subnet: it maps the copied coordinates to the transformed ones, with
    the lifted conditioning feature ``feat @ lift`` added into the first
    hidden pre-activation.
    """

    def __init__(self, weights, biases, lift=None):
        self.weights = weights
        self.biases = biases
        self.lift = lift

    def params(self):
        extra = [] if self.lift is None else [self.lift]
        return [*self.weights, *self.biases, *extra]

    def forward(self, x, lifted=None):
        out, acts = relu_forward(self.weights, self.biases, x, lifted)
        return out, (x, acts)

    def backward(self, cache, dout, feat=None):
        """Returns (param grads, gradient w.r.t. the input, gradient w.r.t.
        the feature or None).  A subnet needs the feature ``feat`` its lift
        was applied to."""
        x, acts = cache
        gw, gb, dpre = relu_backward(self.weights, x, acts, dout)
        dx = dpre @ self.weights[0].T
        if self.lift is None:
            return [*gw, *gb], dx, None
        return [*gw, *gb, feat.T @ dpre], dx, dpre @ self.lift.T


class LayerCondition(NamedTuple):
    """One coupling layer's conditioning for a batch of conditions: the
    condition-net feature lifted into the scale and translate subnets."""

    scale_lift: np.ndarray
    translate_lift: np.ndarray


@dataclass
class CouplingLayer:
    """One conditional affine coupling step.

    ``part1`` is copied unchanged and drives the transform of ``part2``:
    out2 = (in2 + translate) * exp(s) with s the soft-clamped scale output;
    the log-determinant is sum(s).  For dim 1 ``part1`` is empty and both
    subnets see only the condition.  ``forward`` and ``inverse`` take the
    layer's ``condition`` of the batch, or the ``lift`` of its condition-net
    feature; an input of one row is transformed under every condition row.
    """

    part1: np.ndarray
    part2: np.ndarray
    scale_net: ReluNet
    translate_net: ReluNet
    cond_net: ReluNet
    scale_clamp: float = 2.0

    def params(self):
        return (
            self.scale_net.params()
            + self.translate_net.params()
            + self.cond_net.params()
        )

    def lift(self, feat) -> LayerCondition:
        return LayerCondition(feat @ self.scale_net.lift, feat @ self.translate_net.lift)

    def condition(self, c) -> LayerCondition:
        return self.lift(self.cond_net.forward(c)[0])

    def _scale_translate(self, x1, cond):
        s_raw, s_cache = self.scale_net.forward(x1, cond.scale_lift)
        s = self.scale_clamp * np.tanh(s_raw / self.scale_clamp)
        t, t_cache = self.translate_net.forward(x1, cond.translate_lift)
        return s, t, s_cache, t_cache

    def _join(self, x1, x2):
        out = np.empty((x2.shape[0], x1.shape[1] + x2.shape[1]))
        out[:, self.part1] = x1
        out[:, self.part2] = x2
        return out

    def forward(self, u, cond: LayerCondition):
        u1 = u[:, self.part1]
        s, t, s_cache, t_cache = self._scale_translate(u1, cond)
        exp_s = np.exp(s)
        v2 = (u[:, self.part2] + t) * exp_s
        return self._join(u1, v2), s.sum(axis=1), (s_cache, t_cache, s, exp_s, v2)

    def inverse(self, v, cond: LayerCondition):
        v1 = v[:, self.part1]
        s, t, _, _ = self._scale_translate(v1, cond)
        return self._join(v1, v[:, self.part2] * np.exp(-s) - t), -s.sum(axis=1)

    def backward(self, cache, feature, dout, ds_extra):
        """Chain upstream gradients through the coupling transform.

        ``cache`` is what ``forward`` returned last, ``feature`` the
        condition net's (feature, backward cache) that the forward pass was
        lifted from.  ``dout`` is the loss gradient w.r.t. the layer output,
        ``ds_extra`` the direct gradient w.r.t. each clamped scale entry
        coming from the log-determinant term, a scalar when it is the same
        for every entry.  Returns (param grads, gradient w.r.t. the layer
        input).
        """
        feat, cond_cache = feature
        s_cache, t_cache, s, exp_s, v2 = cache
        dv2 = dout[:, self.part2]
        ds = dv2 * v2 + ds_extra
        du2 = dv2 * exp_s  # also the gradient w.r.t. the translation
        ds_raw = ds * (1.0 - (s / self.scale_clamp) ** 2)
        g_scale, du1_s, dfeat_s = self.scale_net.backward(s_cache, ds_raw, feat)
        g_trans, du1_t, dfeat_t = self.translate_net.backward(t_cache, du2, feat)
        g_cond, _, _ = self.cond_net.backward(cond_cache, dfeat_s + dfeat_t)
        din = np.empty_like(dout)
        din[:, self.part1] = dout[:, self.part1] + du1_s + du1_t
        din[:, self.part2] = du2
        return g_scale + g_trans + g_cond, din


@dataclass
class FlowArchitecture:
    n_layers: int = 3
    hidden: tuple[int, ...] = (64, 64)
    cond_hidden: tuple[int, ...] = (64,)
    cond_feat_dim: int = 64

    def __post_init__(self):
        if self.n_layers < 1:
            raise ValueError("n_layers must be >= 1")
        if not self.hidden:
            raise ValueError("hidden must hold at least one layer width")
        if min(self.hidden) < 1:
            raise ValueError(f"hidden widths must be >= 1, got {self.hidden}")


def _net_width(net: ReluNet, where: str, n_in: int, lift_rows: int | None) -> int:
    """The output width of ``net`` once its weights and biases are checked
    to chain from ``n_in`` input columns, and its lift to take
    ``lift_rows`` features (no lift when None)."""
    if not net.weights or len(net.biases) != len(net.weights):
        raise DimMismatchError(f"{where}: {len(net.weights)} weights, {len(net.biases)} biases")
    width = n_in
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        if w.ndim != 2 or w.shape[0] != width or b.shape != w.shape[1:]:
            raise DimMismatchError(f"{where}: weight {i} is {w.shape} with bias {b.shape}, "
                                   f"expected {width} rows and one bias per column")
        width = w.shape[1]
    lift = None if net.lift is None else net.lift.shape
    expected = None if lift_rows is None else (lift_rows, net.weights[0].shape[1])
    if lift != expected:
        raise DimMismatchError(f"{where}: lift is {lift}, expected {expected}")
    return width


@dataclass
class ConditionalFlow:
    """Stack of conditional coupling layers over a standard-normal base.

    The constructor checks every layer, built or read from a file: its two
    parts partition the ``dim`` latent coordinates, the condition net takes
    ``cond_dim`` columns, each subnet maps the copied part, plus the
    lifted condition feature, to the transformed part, and its scale clamp
    and net parameters are finite, the clamp > 0.
    """

    dim: int
    cond_dim: int
    layers: list[CouplingLayer]

    def __post_init__(self):
        for k, layer in enumerate(self.layers):
            parts = np.concatenate([layer.part1, layer.part2])
            if not np.array_equal(np.sort(parts), np.arange(self.dim)):
                raise ValueError(f"layer {k}: the coupling parts do not partition the "
                                 f"{self.dim} latent dimensions")
            feat = _net_width(layer.cond_net, f"layer {k}: condition net", self.cond_dim, None)
            for name, net in (("scale", layer.scale_net), ("translate", layer.translate_net)):
                out = _net_width(net, f"layer {k}: {name} net", layer.part1.size, feat)
                if out != layer.part2.size:
                    raise DimMismatchError(f"layer {k}: {name} net has {out} outputs, "
                                           f"expected {layer.part2.size}")
            if not 0.0 < layer.scale_clamp < np.inf:
                raise ValueError(f"layer {k}: scale clamp {layer.scale_clamp} is not "
                                 "finite and > 0")
            if not all(np.isfinite(p).all() for p in layer.params()):
                raise ValueError(f"layer {k}: a net parameter is not finite")

    def params(self):
        out = []
        for layer in self.layers:
            out.extend(layer.params())
        return out


def _partition(dim: int, layer_index: int):
    if dim == 1:
        return np.array([], dtype=np.intp), np.array([0], dtype=np.intp)
    idx = np.arange(dim)
    keep = idx % 2 == layer_index % 2
    return idx[keep], idx[~keep]


def _make_net(rng, dims, lift_dim=None):
    """A ReluNet through the widths ``dims``: Glorot weights, zero biases.
    With ``lift_dim`` it is a coupling subnet, whose output weights start at
    zero (the identity map) and which lifts a ``lift_dim`` feature into its
    first hidden layer."""
    weights, biases = dense_init(rng, dims)
    if lift_dim is None:
        return ReluNet(weights, biases)
    weights[-1] = np.zeros_like(weights[-1])
    return ReluNet(weights, biases, glorot_uniform(rng, lift_dim, dims[1]))


def build_flow(dim: int, cond_dim: int, arch: FlowArchitecture | None = None,
               seed: int = 0) -> ConditionalFlow:
    """Construct a flow that is the identity map at initialization."""
    arch = arch or FlowArchitecture()
    if dim < 1 or cond_dim < 1:
        raise ValueError("dim and cond_dim must be >= 1")
    rng = np.random.default_rng(seed)
    layers = []
    for l in range(arch.n_layers):
        part1, part2 = _partition(dim, l)
        subnet_dims = (part1.size, *arch.hidden, part2.size)
        layers.append(
            CouplingLayer(
                part1=part1,
                part2=part2,
                scale_net=_make_net(rng, subnet_dims, arch.cond_feat_dim),
                translate_net=_make_net(rng, subnet_dims, arch.cond_feat_dim),
                cond_net=_make_net(rng, (cond_dim, *arch.cond_hidden, arch.cond_feat_dim)),
            )
        )
    return ConditionalFlow(dim=dim, cond_dim=cond_dim, layers=layers)


@dataclass(frozen=True)
class FlowCondition:
    """Every coupling layer's conditioning for a batch of conditions, from
    ``flow_condition``."""

    flow: ConditionalFlow = field(repr=False)
    layers: tuple[LayerCondition, ...]

    @property
    def rows(self) -> int:
        return self.layers[0].scale_lift.shape[0]


def flow_condition(flow: ConditionalFlow, c) -> FlowCondition:
    """Condition every layer of ``flow`` on the rows of ``c``, shape
    (n, cond_dim), once; pass the result as ``c`` to score any number of
    inputs against the same conditions.  Stale once the parameters
    change."""
    c = np.asarray(c, dtype=np.float64)
    if c.ndim != 2 or c.shape[1] != flow.cond_dim:
        raise DimMismatchError(f"conditions must be (n, {flow.cond_dim}), got {c.shape}")
    return FlowCondition(flow, tuple(layer.condition(c) for layer in flow.layers))


def _as_batch(flow, z, c):
    """(rows of z, their conditions, whether z was one vector).

    ``c`` is a FlowCondition of this flow, returned as it is, or condition
    values that reshape to rows of ``cond_dim`` values, returned as those
    rows.  ``z`` holds one row per condition, or one row that is run
    against every condition.
    """
    z = np.asarray(z, dtype=np.float64)
    single = z.ndim == 1
    if single:
        z = z[None, :]
    if z.ndim != 2 or z.shape[1] != flow.dim:
        raise DimMismatchError(f"expected vectors of length {flow.dim}, got {z.shape}")
    if isinstance(c, FlowCondition):
        if c.flow is not flow:
            raise ValueError("the conditioning was computed for another flow")
        rows = c.rows
    else:
        c = np.asarray(c, dtype=np.float64)
        if c.size == 0 or c.size % flow.cond_dim:
            raise DimMismatchError(f"condition shape {c.shape} is not rows of "
                                   f"{flow.cond_dim} values")
        c = c.reshape(-1, flow.cond_dim)
        rows = c.shape[0]
    if z.shape[0] not in (1, rows):
        raise DimMismatchError(f"{z.shape[0]} rows against {rows} conditions")
    return z, c, single and rows == 1


def _layer_conditions(flow: ConditionalFlow, c):
    """Each layer's LayerCondition for ``c`` as ``_as_batch`` returns it: a
    FlowCondition's own, or those of the condition rows, computed here."""
    if isinstance(c, FlowCondition):
        return c.layers
    return flow_condition(flow, c).layers


def _forward_layers(flow: ConditionalFlow, z, conds, caches=None):
    """Push a batch through every coupling layer, under one LayerCondition
    per layer; returns (u, log_det).

    Appends each layer's backward cache to ``caches`` when given.
    """
    u = z
    log_det = np.zeros(z.shape[0])
    for layer, layer_cond in zip(flow.layers, conds):
        u, ld, cache = layer.forward(u, layer_cond)
        log_det = log_det + ld
        if caches is not None:
            caches.append(cache)
        del cache  # else this layer's activations live through the next layer
    return u, log_det


def flow_forward(flow: ConditionalFlow, z, c):
    """Map data to the base space; returns (u, log_det)."""
    z, c, single = _as_batch(flow, z, c)
    u, log_det = _forward_layers(flow, z, _layer_conditions(flow, c))
    if single:
        return u[0], float(log_det[0])
    return u, log_det


def flow_inverse(flow: ConditionalFlow, u, c):
    """Map base-space points back to data space; returns (z, log_det)."""
    u, c, single = _as_batch(flow, u, c)
    z = u
    log_det = np.zeros(u.shape[0])
    for layer, layer_cond in zip(reversed(flow.layers), reversed(_layer_conditions(flow, c))):
        z, ld = layer.inverse(z, layer_cond)
        log_det = log_det + ld
    if single:
        return z[0], float(log_det[0])
    return z, log_det


def flow_log_prob(flow: ConditionalFlow, z, c):
    """Conditional log density log p(z | c) in nats, by change of variables;
    -inf, with no warning, where a coupling layer or the base point
    overflows.  A NaN in ``z`` still gives NaN."""
    z, c, single = _as_batch(flow, z, c)
    with np.errstate(over="ignore", invalid="ignore"):
        u, log_det = _forward_layers(flow, z, _layer_conditions(flow, c))
        base = -0.5 * (flow.dim * LOG_2PI + np.sum(u * u, axis=1))
        out = base + log_det
    # a finite row that overflowed to inf meets inf * 0 in the next layer
    out[np.isnan(out) & np.isfinite(z).all(axis=1)] = -np.inf
    return float(out[0]) if single else out


def flow_nll(flow: ConditionalFlow, z, c) -> float:
    """Mean negative log-likelihood of a batch."""
    return float(-np.mean(flow_log_prob(flow, z, c)))


def flow_gradients(flow: ConditionalFlow, z, c):
    """Mean-NLL value and its reverse-mode gradients for every parameter.

    Gradient order matches ``flow.params()``.  Each layer's condition-net
    feature is computed here with its backward cache, from the condition
    values; a FlowCondition, which keeps neither, is a ValueError.
    """
    if isinstance(c, FlowCondition):
        raise ValueError("flow_gradients takes condition values, not a FlowCondition")
    z, c, _ = _as_batch(flow, z, c)
    n = z.shape[0]
    if n == 0:
        raise ValueError("flow_gradients needs a non-empty batch")
    if c.shape[0] != n:
        raise DimMismatchError(f"{n} rows against {c.shape[0]} conditions")
    features, conds = [], []
    for layer in flow.layers:
        features.append(layer.cond_net.forward(c))
        conds.append(layer.lift(features[-1][0]))
    caches = []
    u, log_det = _forward_layers(flow, z, conds, caches)
    del conds  # the lift terms; the backward pass needs only the caches and features
    nll = float(np.mean(0.5 * (flow.dim * LOG_2PI + np.sum(u * u, axis=1)) - log_det))

    du = u / n
    grads_rev = []
    for layer, cache, feature in zip(reversed(flow.layers), reversed(caches),
                                     reversed(features)):
        g, du = layer.backward(cache, feature, du, -1.0 / n)
        grads_rev.append(g)
    grads = []
    for g in reversed(grads_rev):
        grads.extend(g)
    return nll, grads


@dataclass
class FlowTrainConfig:
    """Optimizer settings for flow training.

    Defaults suit the desk-scale experiments; large tasks in the literature
    use learning rates down to 1e-6 with the same weight decay, batch size
    and patience.
    """

    learning_rate: float = 1e-3
    weight_decay: float = 1e-5
    batch_size: int = 128
    max_epochs: int = 500
    patience: int = 20
    seed: int = 0
    val_fraction: float = 0.2

    def __post_init__(self):
        if not 0.0 < self.learning_rate < np.inf:
            raise ValueError("learning_rate must be finite and > 0")
        if not 0.0 <= self.weight_decay < np.inf:
            raise ValueError("weight_decay must be finite and >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if not 0.0 < self.val_fraction < 1.0:
            raise ValueError("val_fraction must be in (0, 1)")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass
class FlowTrainLog:
    """Per-epoch NLLs of a ``flow_train`` run.  ``train_nll`` is the mean
    of the epoch's batch NLLs, each weighted by its rows and taken before
    that batch's step, as the gradient pass computed them; ``val_nll`` is
    the validation NLL after the epoch's last step."""

    train_nll: np.ndarray
    val_nll: np.ndarray
    best_epoch: int


def flow_train(z, c, cfg: FlowTrainConfig | None = None,
               arch: FlowArchitecture | None = None):
    """Train a conditional flow by maximum likelihood with Adam and
    decoupled weight decay.

    The best epoch is the first minimum of the validation-NLL log; training
    stops once ``patience`` epochs have passed since it, or after
    ``max_epochs``.  The returned flow carries the best epoch's parameters.
    A non-finite NLL, or a floating-point overflow anywhere in a training
    step (conditions or latents too large for the raw-valued flow), is a
    DivergedError.  Deterministic for a fixed seed.
    """
    cfg = cfg or FlowTrainConfig()
    z = as_matrix(z)
    c = np.asarray(c, dtype=np.float64)
    if c.ndim == 1:
        c = c[:, None]
    if c.shape[0] != z.shape[0]:
        raise DimMismatchError("z and c row counts differ")
    n = z.shape[0]
    if n < MIN_TRAIN_ROWS:
        raise TooFewSamplesError(f"flow_train needs at least {MIN_TRAIN_ROWS} rows, got {n}")

    flow = build_flow(z.shape[1], c.shape[1], arch=arch, seed=cfg.seed)
    rng = np.random.default_rng(cfg.seed + 1)
    perm = rng.permutation(n)
    n_val = max(1, int(round(cfg.val_fraction * n)))
    if n_val >= n:
        raise ValueError(f"val_fraction {cfg.val_fraction:g} of {n} rows leaves no "
                         "training rows")
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    z_tr, c_tr = z[train_idx], c[train_idx]
    z_val, c_val = z[val_idx], c[val_idx]

    params = flow.params()
    opt = Adam(params, cfg.learning_rate, cfg.weight_decay)
    batch = min(cfg.batch_size, len(train_idx))
    train_log, val_log = [], []

    try:
        with np.errstate(over="raise"):  # an overflowing step is a diverged fit
            for epoch in range(cfg.max_epochs):
                order = rng.permutation(len(train_idx))
                total = 0.0
                for start in range(0, len(order), batch):
                    sel = order[start : start + batch]
                    nll, grads = flow_gradients(flow, z_tr[sel], c_tr[sel])
                    if not np.isfinite(nll):
                        raise DivergedError("training NLL became non-finite")
                    total += nll * len(sel)
                    opt.step(grads)
                va = flow_nll(flow, z_val, c_val)
                if not np.isfinite(va):
                    raise DivergedError("NLL became non-finite; lower the learning rate")
                train_log.append(total / len(order))
                val_log.append(va)
                best_epoch = int(np.argmin(val_log))
                if best_epoch == epoch:
                    best_params = [p.copy() for p in params]
                elif epoch - best_epoch >= cfg.patience:
                    break
    except FloatingPointError as exc:
        raise DivergedError(f"training hit {exc}; the flow trains on raw latent and "
                            "condition values, so rescale them") from exc

    for p, best in zip(params, best_params):
        p[:] = best
    return flow, FlowTrainLog(np.asarray(train_log), np.asarray(val_log), best_epoch)
