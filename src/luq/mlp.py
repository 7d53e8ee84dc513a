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
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """Adam with decoupled weight decay, updating parameters in place."""

    def __init__(self, params, learning_rate, weight_decay=0.0):
        self.params = params
        self.lr = learning_rate
        self.wd = weight_decay
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, grads):
        self.t += 1
        b1, b2, eps = 0.9, 0.999, 1e-8
        bias1 = 1.0 - b1**self.t
        bias2 = 1.0 - b2**self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            if self.wd:
                p *= 1.0 - self.lr * self.wd
            p -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + eps)


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


def relu_forward(weights, biases, x, pre0_extra=None):
    """Dense ReLU stack: every layer but the last is followed by a ReLU.

    Parameters may carry a leading member axis (weights ``(m, i, o)``,
    biases ``(m, o)``) against a 2-D input, for stacked training.
    ``pre0_extra`` is added to the first pre-activation after the bias.
    Returns (raw output, list of post-activation hidden layers).
    """
    acts = []
    a = x
    last = len(weights) - 1
    for l, (w, b) in enumerate(zip(weights, biases)):
        pre = a @ w
        pre += b[..., None, :]
        if l == 0 and pre0_extra is not None:
            pre = pre + pre0_extra  # may broadcast a single input row
        if l == last:
            return pre, acts
        a = np.maximum(pre, 0.0, out=pre)
        acts.append(a)


def relu_backward(weights, x, acts, grad_out):
    """Reverse pass of ``relu_forward``.

    Returns (weight grads, bias grads, gradient w.r.t. the first
    pre-activation).  With stacked parameters the gradients keep the member
    axis.
    """
    grads_w = [None] * len(weights)
    grads_b = [None] * len(weights)
    upstream = grad_out
    for l in range(len(weights) - 1, -1, -1):
        a_in = acts[l - 1] if l > 0 else x
        grads_w[l] = np.swapaxes(a_in, -1, -2) @ upstream
        grads_b[l] = upstream.sum(axis=-2)
        if l > 0:
            upstream = (upstream @ np.swapaxes(weights[l], -1, -2)) * (acts[l - 1] > 0)
    return grads_w, grads_b, upstream


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


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


def _loss_and_grads(weights, biases, head, x, y):
    """Head loss of a full batch and its gradients (weights, then biases).

    Parameters may be stacked on a leading member axis against the 2-D
    ``x``; the loss is then the mean over members, and each member's
    gradients are those of its own loss, because the loss separates.
    """
    out, acts = relu_forward(weights, biases, x)
    n = x.shape[0]
    if head == CLASSIFICATION:
        probs = softmax(out)
        picked = probs[..., np.arange(n), y]
        loss = float(-np.mean(np.log(np.maximum(picked, 1e-300))))
        grad = probs
        grad[..., np.arange(n), y] -= 1.0
        grad /= n
    else:
        diff = out - y
        loss = float(np.mean(diff**2))
        grad = 2.0 * diff / (n * y.shape[1])
    grads_w, grads_b, _ = relu_backward(weights, x, acts, grad)
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


def _fit(weights, biases, head, x, y, cfg: MlpTrainConfig) -> np.ndarray:
    """Full-batch Adam at learning rate 1e-3, without weight decay, on
    ``weights`` and ``biases``, updated in place; returns the per-epoch loss
    log.  Stops early once the loss improves by less than 1e-7 over
    ``cfg.improvement_window`` epochs.
    """
    if x.shape[0] == 0:
        raise ValueError("training needs data")
    opt = Adam(weights + biases, 1e-3)
    losses = []
    bests = []
    for _ in range(cfg.max_epochs):
        loss, grads = _loss_and_grads(weights, biases, head, x, y)
        if not np.isfinite(loss):
            raise DivergedError(f"loss became {loss!r}")
        opt.step(grads)
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
