"""Small fully-connected networks with hand-rolled reverse-mode gradients.

Used by the toy lab for prediction and latent extraction, and reused by the
flow module for its optimizer, initialization helpers and the dense ReLU
forward and backward passes of its coupling nets.  Hidden layers are
ReLU; the head is either an identity map (regression) or softmax over K
classes (classification).  One head loss (``_loss_and_grads``) and one
full-batch Adam loop (``_fit``) train both a single network
(``mlp_train``) and an ensemble whose parameters are stacked on a leading
member axis (``mlp_train_many``).  Adam runs at a fixed learning rate of
1e-3 with no weight decay, and training stops once the loss improves by
less than 1e-7 over the configured window of epochs.

An epoch allocates no array of the network's size.  ``_fit`` keeps the
parameters in one flat vector, whose views are the weights and biases,
and the gradients in another; ``Adam`` updates in place in two shared
scratch vectors; and the layer outputs and the two buffers the backward
pass uses in turn (``TrainBuffers``) are made once per run.  The
buffers are optional outputs of the one forward pass, backward pass and
head loss, which the flow and inference call without them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import BadLayerIndexError, DivergedError
from .linalg import as_matrix

REGRESSION = "regression"
CLASSIFICATION = "classification"


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def dense_init(rng: np.random.Generator, dims) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Weights and biases of a dense stack through the widths ``dims``:
    Glorot-uniform weights drawn layer by layer from ``rng``, zero biases."""
    weights = [glorot_uniform(rng, dims[i], dims[i + 1]) for i in range(len(dims) - 1)]
    return weights, [np.zeros(d) for d in dims[1:]]


class Adam:
    """Adam with decoupled weight decay, updating parameters in place.

    A step allocates nothing: it works in two scratch vectors sized to the
    largest parameter and shared by all of them.  Its operations run in the
    order of the textbook expressions, ``(1 - b2) * g * g`` as
    ``((1 - b2) * g) * g``, so the result does not depend on the scratch.
    """

    def __init__(self, params, learning_rate, weight_decay=0.0):
        self.params = params
        self.lr = learning_rate
        self.wd = weight_decay
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        size = max(p.size for p in params)
        scratch = np.empty(size), np.empty(size)
        self.scratch = [tuple(s[:p.size].reshape(p.shape) for s in scratch) for p in params]

    def step(self, grads):
        self.t += 1
        b1, b2, eps = 0.9, 0.999, 1e-8
        bias1 = 1.0 - b1**self.t
        bias2 = 1.0 - b2**self.t
        for p, g, m, v, (s, r) in zip(self.params, grads, self.m, self.v, self.scratch):
            m *= b1
            m += np.multiply(g, 1.0 - b1, out=s)
            v *= b2
            np.multiply(g, 1.0 - b2, out=s)
            v += np.multiply(s, g, out=s)
            if self.wd:
                p *= 1.0 - self.lr * self.wd
            np.divide(m, bias1, out=s)
            s *= self.lr
            np.divide(v, bias2, out=r)
            np.sqrt(r, out=r)
            r += eps
            p -= np.divide(s, r, out=s)


@dataclass
class MlpModel:
    """Feed-forward ReLU network with stored per-layer weights."""

    layer_dims: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    head: str = REGRESSION

    @property
    def n_hidden(self) -> int:
        return len(self.layer_dims) - 2


def mlp_init(layer_dims, head=REGRESSION, seed=0) -> MlpModel:
    dims = tuple(int(d) for d in layer_dims)
    if len(dims) < 2:
        raise ValueError("need at least input and output dims")
    weights, biases = dense_init(np.random.default_rng(seed), dims)
    return MlpModel(layer_dims=dims, weights=weights, biases=biases, head=head)


class TrainBuffers(NamedTuple):
    """Caller-owned outputs that make a training pass allocate nothing.

    ``acts`` holds one array per layer for its output, ``grads`` one per
    parameter (weights, then biases) for its gradient, and ``pair`` two
    flat vectors, each at least as long as any layer's output, that carry
    the backward pass from layer to layer in turn.
    """

    acts: list[np.ndarray]
    grads: list[np.ndarray]
    pair: tuple[np.ndarray, np.ndarray]


def _pair_view(out: TrainBuffers | None, k: int, shape):
    """The ``k``-th buffer of the pair, in turn, as an array of ``shape``,
    or None (allocate) without buffers."""
    if out is None:
        return None
    return out.pair[k % 2][: math.prod(shape)].reshape(shape)


def relu_forward(weights, biases, x, pre0_extra=None, out: TrainBuffers | None = None):
    """Dense ReLU stack: every layer but the last is followed by a ReLU.

    Parameters may carry a leading member axis (weights ``(m, i, o)``,
    biases ``(m, o)``) against a 2-D input, for stacked training.
    ``pre0_extra`` is added to the first pre-activation after the bias.
    With ``out`` every layer writes into its ``out.acts`` array.
    Returns (raw output, list of post-activation hidden layers).
    """
    acts = []
    a = x
    last = len(weights) - 1
    for l, (w, b) in enumerate(zip(weights, biases)):
        pre = np.matmul(a, w, out=None if out is None else out.acts[l])
        pre += b[..., None, :]
        if l == 0 and pre0_extra is not None:
            pre = pre + pre0_extra  # may broadcast a single input row
        if l == last:
            return pre, acts
        a = np.maximum(pre, 0.0, out=pre)
        acts.append(a)


def relu_backward(weights, x, acts, grad_out, out: TrainBuffers | None = None):
    """Reverse pass of ``relu_forward``.

    Returns (weight grads, bias grads, gradient w.r.t. the first
    pre-activation).  With stacked parameters the gradients keep the member
    axis.  With ``out`` the gradients go to ``out.grads`` and the pass
    allocates nothing; the input gradient may then live in ``out.pair``.
    """
    n_layers = len(weights)
    grads = [None] * (2 * n_layers) if out is None else out.grads
    upstream = grad_out
    for l in range(n_layers - 1, -1, -1):
        a_in = acts[l - 1] if l > 0 else x
        grads[l] = np.matmul(np.swapaxes(a_in, -1, -2), upstream, out=grads[l])
        grads[n_layers + l] = np.sum(upstream, axis=-2, out=grads[n_layers + l])
        if l > 0:
            shape = acts[l - 1].shape
            down = np.matmul(upstream, np.swapaxes(weights[l], -1, -2),
                             out=_pair_view(out, l, shape))
            # the pair's other buffer is free: it held the spent upstream
            mask = np.greater(acts[l - 1], 0.0, out=_pair_view(out, l + 1, shape))
            upstream = np.multiply(down, mask, out=down)
    return grads[:n_layers], grads[n_layers:], upstream


def softmax(logits: np.ndarray, out=None) -> np.ndarray:
    """Softmax over the last axis; into ``out``, which may be ``logits``."""
    out = np.subtract(logits, logits.max(axis=-1, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


def mlp_predict(model: MlpModel, x) -> np.ndarray:
    """Network output: raw values (regression) or softmax probabilities."""
    out, _ = relu_forward(model.weights, model.biases, as_matrix(x))
    if model.head == CLASSIFICATION:
        return softmax(out)
    return out


def latent_extract(model: MlpModel, layer_index: int, inputs) -> np.ndarray:
    """Post-activation outputs of hidden layer ``layer_index``, an (n, width)
    float64 array with one row per input.  The penultimate layer is
    ``model.n_hidden - 1``."""
    if not 0 <= layer_index < model.n_hidden:
        raise BadLayerIndexError(
            f"layer_index {layer_index} outside [0, {model.n_hidden})"
        )
    _, acts = relu_forward(model.weights, model.biases, as_matrix(inputs))
    return acts[layer_index]


def _loss_and_grads(weights, biases, head, x, y, out: TrainBuffers | None = None):
    """Head loss of a full batch and its gradients (weights, then biases).

    Parameters may be stacked on a leading member axis against the 2-D
    ``x``; the loss is then the mean over members, and each member's
    gradients are those of its own loss, because the loss separates.
    With ``out`` the gradients are the arrays of ``out.grads`` and the
    pass allocates no array larger than one value per member and row.
    """
    pred, acts = relu_forward(weights, biases, x, out=out)
    n = x.shape[0]
    # the loss gradient overwrites the network output, which it consumes
    if head == CLASSIFICATION:
        grad = softmax(pred, out=pred)
        picked = grad[..., np.arange(n), y]
        loss = float(-np.mean(np.log(np.maximum(picked, 1e-300))))
        grad[..., np.arange(n), y] -= 1.0
        grad /= n
    else:
        grad = np.subtract(pred, y, out=pred)
        loss = float(np.mean(np.square(grad, out=_pair_view(out, 0, grad.shape))))
        grad *= 2.0
        grad /= n * y.shape[1]
    grads_w, grads_b, _ = relu_backward(weights, x, acts, grad, out=out)
    return loss, grads_w + grads_b


@dataclass
class MlpTrainConfig:
    max_epochs: int = 5000
    improvement_window: int = 100
    seed: int = 0


def _prepare_targets(head, y):
    if head == CLASSIFICATION:
        return np.asarray(y).astype(np.int64).ravel()
    y = np.asarray(y, dtype=np.float64)
    if y.ndim == 1:
        y = y[:, None]
    return y


def _window_stalled(bests, loss, window, tol) -> bool:
    """Track the running best loss; true once the best has improved by
    less than ``tol`` over the last ``window`` epochs.

    Comparing running bests instead of raw losses keeps the criterion
    cumulative but immune to step-to-step oscillation.
    """
    bests.append(loss if not bests else min(bests[-1], loss))
    return len(bests) > window and bests[-window - 1] - bests[-1] < tol


def _flat_views(vector: np.ndarray, shapes) -> list[np.ndarray]:
    """Consecutive views of the flat ``vector`` with the given shapes."""
    views, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(vector[start : start + size].reshape(shape))
        start += size
    return views


def _fit(weights, biases, head, x, y, cfg: MlpTrainConfig) -> np.ndarray:
    """Full-batch Adam at learning rate 1e-3, without weight decay, on
    ``weights`` and ``biases``; returns the per-epoch loss log.  Stops early
    once the loss improves by less than 1e-7 over ``cfg.improvement_window``
    epochs.

    Training runs in one flat parameter vector, whose views replace the
    items of ``weights`` and ``biases``, and one flat gradient vector; the
    layer outputs and the backward pass reuse buffers kept for the run, so
    an epoch allocates no array of the network's size.
    """
    if x.shape[0] == 0:
        raise ValueError("training needs data")
    shapes = [p.shape for p in weights + biases]
    theta = np.concatenate([p.ravel() for p in weights + biases])
    views = _flat_views(theta, shapes)
    weights[:], biases[:] = views[: len(weights)], views[len(weights) :]
    grad = np.empty_like(theta)
    rows = (*weights[0].shape[:-2], x.shape[0])
    widths = [w.shape[-1] for w in weights]
    pair_size = math.prod(rows) * max(widths)
    out = TrainBuffers(acts=[np.empty((*rows, d)) for d in widths],
                       grads=_flat_views(grad, shapes),
                       pair=(np.empty(pair_size), np.empty(pair_size)))
    opt = Adam([theta], 1e-3)
    losses = []
    bests = []
    for _ in range(cfg.max_epochs):
        loss, _ = _loss_and_grads(weights, biases, head, x, y, out)
        if not np.isfinite(loss):
            raise DivergedError(f"loss became {loss!r}")
        opt.step([grad])
        losses.append(loss)
        if _window_stalled(bests, loss, cfg.improvement_window, 1e-7):
            break
    return np.asarray(losses)


def mlp_train(x, y, layer_dims, head=REGRESSION, cfg: MlpTrainConfig | None = None):
    """Train an MLP with full-batch Adam; returns (model, per-epoch loss
    log).  Deterministic for a fixed seed."""
    cfg = cfg or MlpTrainConfig()
    model = mlp_init(layer_dims, head=head, seed=cfg.seed)
    losses = _fit(model.weights, model.biases, head, as_matrix(x),
                  _prepare_targets(head, y), cfg)
    return model, losses


def mlp_train_many(x, y, layer_dims, head, cfg: MlpTrainConfig, seeds):
    """Train several same-architecture models in lockstep; returns (members,
    per-epoch log of the mean member loss).

    Member parameters are stacked on a leading axis so one numpy pass per
    epoch trains the whole collection.  Each member equals a solo
    ``mlp_train`` run with its seed for the same number of epochs; early
    stopping watches the mean loss, so all members stop together.
    """
    dims = tuple(int(d) for d in layer_dims)
    inits = [mlp_init(dims, head=head, seed=s) for s in seeds]
    weights = [np.stack(ws) for ws in zip(*(init.weights for init in inits))]
    biases = [np.stack(bs) for bs in zip(*(init.biases for init in inits))]
    del inits  # _fit copies the stacks into its flat vector and frees them
    losses = _fit(weights, biases, head, as_matrix(x), _prepare_targets(head, y), cfg)
    members = [
        MlpModel(
            layer_dims=dims,
            weights=[w[j].copy() for w in weights],
            biases=[b[j].copy() for b in biases],
            head=head,
        )
        for j in range(len(seeds))
    ]
    return members, losses
