"""MLP intensity model of the ranking response surface, and its training.

The surrogate maps a normalized point x in [0,1]^d to a positive rate, the
expected number of observed points that beat x.  Ranks of the observation set
follow truncated Poisson laws parameterized by that rate; maximizing their
joint log-likelihood trains the network.  Below TRUNCATION_SWITCH_N (12)
observations the truncated normalizer S(N-1) is used; at or above it the plain
Poisson form applies.  That constant is the one place the regime is decided,
for the likelihood, the posterior and the acquisition alike.

The network is fixed to three hidden rectified-linear layers (width 128) with
a softplus output for positivity; widths are configurable only so tests can
run tiny instances.  Forward, backward, and ADAM are written directly on
numpy arrays: training must be bitwise reproducible under a seed, and the
input-gradient path is reused by the acquisition optimizer.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DomainError, InputError, PreconditionError, TrainingDivergedError
# Unused but bound: perfbench/tracer.py patches log_partial_exp_sum.
from .poisson import (
    RankPosterior,
    TruncatedPoisson,
    log_factorials,
    log_partial_exp_sum,
    log_partial_exp_sums,
    partial_sum_log_terms,
    pmf_vector,
    truncated_mean,
)

_LOG = logging.getLogger(__name__)

__all__ = [
    "TRUNCATION_SWITCH_N",
    "DEFAULT_HIDDEN",
    "IntensityModel",
    "ObservationSet",
    "TrainConfig",
    "compute_ranks",
    "log_likelihood",
    "grad_log_likelihood",
    "rate_gradient",
    "fit",
    "predict",
    "pack_arrays",
    "pack_parameters",
    "set_parameters",
    "model_to_blob",
    "model_from_blob",
    "save_model",
    "load_model",
]

TRUNCATION_SWITCH_N = 12
DEFAULT_HIDDEN = (128, 128, 128)

_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8
_LR_DECAY = 0.2


def _expit(t: float) -> float:
    """Logistic sigmoid 1 / (1 + exp(-t)) of one float.

    The formula scipy.special.expit evaluates, on the C library's exp
    through math.exp, so the bits are the same as scipy's; numpy's SIMD exp
    differs from it in the last bit.  exp(-t) overflows only when the
    sigmoid rounds to 0.
    """
    try:
        return 1.0 / (1.0 + math.exp(-t))
    except OverflowError:
        return 0.0


def compute_ranks(values) -> np.ndarray:
    """Strict-dominance ranks: ranks[j] = |{i != j : values[i] < values[j]}|.

    The best observation has rank 0; equal values share a rank.

    Args:
        values: non-empty 1-d sequence of finite reals.

    Returns:
        Integer array of the same length.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise InputError("values must be a non-empty 1-d sequence")
    if not np.isfinite(v).all():
        raise InputError("values contain non-finite entries")
    # Leftmost insertion point in the sorted values = count strictly below.
    return np.searchsorted(np.sort(v), v, side="left").astype(np.int64)


@dataclass(frozen=True)
class ObservationSet:
    """Queried points, raw objective values, and derived ranks.

    Attributes:
        points: (N, d) normalized coordinates inside the unit hypercube.
        values: (N,) raw observations.
        ranks: (N,) strict-dominance ranks, each in [0, N-1].
    """

    points: np.ndarray
    values: np.ndarray
    ranks: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        rks = np.asarray(self.ranks)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise InputError("points must be a non-empty (N, d) array")
        n = pts.shape[0]
        if vals.shape != (n,) or rks.shape != (n,):
            raise InputError("points, values, ranks must share leading length")
        if not np.isfinite(pts).all() or not np.isfinite(vals).all():
            raise InputError("non-finite points or values")
        if pts.min() < 0.0 or pts.max() > 1.0:
            raise InputError("points must lie in the unit hypercube")
        if not np.issubdtype(rks.dtype, np.integer):
            rks = rks.astype(np.int64)
            if not np.array_equal(rks, np.asarray(self.ranks)):
                raise InputError("ranks must be integers")
        if rks.min() < 0 or rks.max() > n - 1:
            raise InputError("ranks must lie in [0, N-1]")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "ranks", rks.astype(np.int64))

    @classmethod
    def from_values(cls, points, values) -> "ObservationSet":
        """Build the set with ranks derived from the values."""
        return cls(np.asarray(points, dtype=float), np.asarray(values, dtype=float),
                   compute_ranks(values))

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class TrainConfig:
    """ADAM schedule for likelihood maximization.

    The learning rate starts at initial_lr and is multiplied by the fixed
    factor _LR_DECAY (0.2) every decay_every steps.  steps=0 is allowed and
    leaves the model untouched.
    """

    steps: int = 100
    batch_size: int = 64
    initial_lr: float = 0.01
    decay_every: int = 30

    def __post_init__(self):
        if self.steps < 0:
            raise InputError("steps must be >= 0")
        if self.batch_size < 1 or self.decay_every < 1:
            raise InputError("batch_size and decay_every must be >= 1")
        if not (self.initial_lr > 0):
            raise InputError("initial_lr must be > 0")


@dataclass
class IntensityModel:
    """Fully connected rectified-linear network with softplus output.

    weights[l] has shape (fan_in, fan_out); biases[l] has shape (fan_out,).
    The output is a single positive scalar rate per input point.

    All parameters live in one flat float64 buffer, ``params``, in
    pack_arrays order (every weight matrix row-major, then every bias);
    weights and biases are lists of views into it, so training updates the
    whole network with one vector operation.  The constructor copies the
    given arrays into a fresh buffer.
    """

    weights: list
    biases: list
    rng_seed: int = 0
    params: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.params = pack_arrays(self.weights, self.biases)
        self.weights, self.biases = self._views(self.params)

    def _views(self, flat: np.ndarray):
        """Per-layer (weights, biases) views into a flat buffer shaped like params."""
        weights, biases = [], []
        offset = 0
        for w in self.weights:
            weights.append(flat[offset:offset + w.size].reshape(w.shape))
            offset += w.size
        for b in self.biases:
            biases.append(flat[offset:offset + b.size])
            offset += b.size
        return weights, biases

    @classmethod
    def create(cls, dim: int, hidden=DEFAULT_HIDDEN, rng_seed: int = 0) -> "IntensityModel":
        """Fresh network with uniform fan-in-scaled weights and zero biases."""
        if dim < 1:
            raise InputError(f"dim must be >= 1, got {dim}")
        rng = np.random.default_rng(rng_seed)
        sizes = [int(dim), *[int(h) for h in hidden], 1]
        weights, biases = [], []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            limit = math.sqrt(6.0 / fan_in)
            weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
            biases.append(np.zeros(fan_out))
        return cls(weights=weights, biases=biases, rng_seed=int(rng_seed))

    @property
    def dim(self) -> int:
        return self.weights[0].shape[0]

    @property
    def layer_sizes(self) -> list:
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]

    def copy(self) -> "IntensityModel":
        return IntensityModel(self.weights, self.biases, self.rng_seed)

    def _forward(self, x: np.ndarray):
        """Batched forward pass; returns (rates, caches) for backprop."""
        h = x
        inputs = [h]
        pre_acts = []
        n_hidden = len(self.weights) - 1
        for layer in range(n_hidden):
            pre = h @ self.weights[layer] + self.biases[layer]
            h = np.maximum(pre, 0.0)
            pre_acts.append(pre)
            inputs.append(h)
        z = (h @ self.weights[-1] + self.biases[-1])[:, 0]
        rates = np.logaddexp(0.0, z)
        return rates, (inputs, pre_acts, z)

    def rates(self, x) -> np.ndarray:
        """Predicted rates for a batch of points, shape (n, d) -> (n,)."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.dim:
            raise InputError(f"expected shape (n, {self.dim}), got {x.shape}")
        if not np.isfinite(x).all():
            raise InputError("non-finite inputs")
        return self._forward(x)[0]

    def _backward(self, caches, d_rates: np.ndarray, grad_w: list, grad_b: list):
        """Parameter gradients of sum_j d_rates[j] * rate_j.

        Args:
            caches: the second element returned by _forward.
            d_rates: (n,) upstream derivative with respect to each rate.
            grad_w, grad_b: per-layer views (from _views) of a flat buffer
                shaped like params; overwritten.
        """
        inputs, pre_acts, z = caches
        delta = (d_rates * np.array([_expit(t) for t in z.tolist()]))[:, None]
        np.matmul(inputs[-1].T, delta, out=grad_w[-1])
        delta.sum(axis=0, out=grad_b[-1])
        downstream = delta @ self.weights[-1].T
        for layer in range(len(self.weights) - 2, -1, -1):
            delta = downstream * (pre_acts[layer] > 0.0)
            np.matmul(inputs[layer].T, delta, out=grad_w[layer])
            delta.sum(axis=0, out=grad_b[layer])
            if layer > 0:
                downstream = delta @ self.weights[layer].T

    def rate_and_input_grad(self, x):
        """Rate at a single point and its gradient with respect to x.

        Args:
            x: (d,) coordinates.

        Returns:
            (rate, gradient) with gradient of shape (d,).
        """
        x = np.asarray(x, dtype=float).reshape(1, -1)
        if x.shape[1] != self.dim:
            raise InputError(f"expected {self.dim} coordinates, got {x.shape[1]}")
        rates, (inputs, pre_acts, z) = self._forward(x)
        v = _expit(float(z[0])) * self.weights[-1][:, 0]
        for layer in range(len(self.weights) - 2, -1, -1):
            v = self.weights[layer] @ (v * (pre_acts[layer][0] > 0.0))
        return float(rates[0]), v


def _ll_terms(rates: np.ndarray, ranks: np.ndarray, norm: np.ndarray) -> np.ndarray:
    """Per-point log-likelihood terms k*log(rate) - log(k!) - norm."""
    lf = log_factorials(int(ranks.max()))
    with np.errstate(divide="ignore", invalid="ignore"):
        log_r = np.log(rates)
        k_term = np.where(ranks > 0, ranks * log_r, 0.0)
    return k_term - lf[ranks] - norm


def _normalizer(rates: np.ndarray, n_obs: int, slope: bool = False):
    """Per-point log-normalizer and its derivative with respect to the rate.

    Below the switch these are log S(N-1) and S(N-2)/S(N-1), from one term
    matrix; at or above it the plain Poisson exponent (the rate itself) and
    the scalar 1.0, which broadcasts like an array of ones.  The derivative
    is None unless slope.
    """
    if n_obs >= TRUNCATION_SWITCH_N:
        return rates, 1.0 if slope else None
    log_s = log_partial_exp_sums(partial_sum_log_terms(rates, n_obs - 1), 2 if slope else 1)
    return log_s[0], np.exp(log_s[1] - log_s[0]) if slope else None


def rate_gradient(rates: np.ndarray, ranks: np.ndarray, n_obs: int) -> np.ndarray:
    """Per-point derivative of the log-likelihood with respect to each rate.

    Equals k/rate - S(N-2)/S(N-1) below the switch and k/rate - 1 above it.
    """
    rates = np.asarray(rates, dtype=float)
    return np.asarray(ranks) / rates - _normalizer(rates, n_obs, slope=True)[1]


def _require_fittable(obs: ObservationSet):
    if len(obs) < 2:
        raise PreconditionError(f"need at least 2 observations, got {len(obs)}")


def log_likelihood(model: IntensityModel, obs: ObservationSet) -> float:
    """Joint ranking log-likelihood of the observation set under the model.

    Includes the constant log(k!) terms so reported values are comparable
    across models and iterations.
    """
    _require_fittable(obs)
    rates = model.rates(obs.points)
    return float(np.sum(_ll_terms(rates, obs.ranks, _normalizer(rates, len(obs))[0])))


def grad_log_likelihood(model: IntensityModel, obs: ObservationSet):
    """Gradient of log_likelihood with respect to every parameter.

    Returns:
        (grad_weights, grad_biases) in the model's parameter layout.
    """
    _require_fittable(obs)
    rates, caches = model._forward(obs.points)
    d_rates = rate_gradient(rates, obs.ranks, len(obs))
    grad_w, grad_b = model._views(np.empty_like(model.params))
    model._backward(caches, d_rates, grad_w, grad_b)
    return grad_w, grad_b


def fit(model: IntensityModel, obs: ObservationSet, cfg: TrainConfig,
        rng: np.random.Generator | None = None) -> IntensityModel:
    """Train the model in place by minibatch ADAM on the negative log-likelihood.

    Minibatches of size min(batch_size, N) are drawn without replacement
    within an epoch; a leftover smaller than one batch triggers a reshuffle.
    The learning rate is initial_lr * 0.2 ** (step // decay_every).  If
    the final full-set negative log-likelihood exceeds the starting one, the
    initial parameters are restored, so the contract "final NLL <= initial"
    always holds; the restore is logged at DEBUG level on this module's
    logger with both NLLs.

    Args:
        model: network to train; mutated in place and returned.
        obs: observation set, N >= 2.
        cfg: schedule.
        rng: minibatch shuffle stream; defaults to a substream of the model's
            rng_seed so repeated calls are bitwise reproducible.

    Raises:
        TrainingDivergedError: a minibatch loss became non-finite.
    """
    _require_fittable(obs)
    if cfg.steps == 0:
        return model
    if rng is None:
        rng = np.random.default_rng([model.rng_seed, 1])
    n = len(obs)
    batch = min(cfg.batch_size, n)

    nll_start = -log_likelihood(model, obs)
    start = model.params.copy()
    adam = _Adam(model.params)
    grad_w, grad_b = model._views(adam.grad)

    perm = np.empty(0, dtype=np.int64)
    pos = 0
    for step in range(cfg.steps):
        if pos + batch > perm.size:
            perm = rng.permutation(n)
            pos = 0
        idx = perm[pos:pos + batch]
        pos += batch

        rates, caches = model._forward(obs.points[idx])
        ranks = obs.ranks[idx]
        norm, norm_grad = _normalizer(rates, n, slope=True)
        # The sum is finite exactly when the mean loss is.
        if not math.isfinite(float(_ll_terms(rates, ranks, norm).sum())):
            raise TrainingDivergedError(step)
        d_rates = ranks / rates - norm_grad
        model._backward(caches, -d_rates / idx.size, grad_w, grad_b)
        adam.step(cfg.initial_lr * _LR_DECAY ** (step // cfg.decay_every), step + 1)

    nll_end = -log_likelihood(model, obs)
    if not (nll_end <= nll_start):
        # ADAM overshot (or broke) on this set; keep the no-worse parameters.
        model.params[...] = start
        _LOG.debug("fit restored its start parameters: NLL %r at start, %r at end",
                   nll_start, nll_end)
    return model


class _Adam:
    """ADAM on one flat parameter vector, updated in place without temporaries.

    Each step is Kingma and Ba's efficient form of the textbook update
    p -= lr * (m / (1-b1^t)) / (sqrt(v / (1-b2^t)) + eps): with
    c = sqrt(1-b2^t), the same update is p -= (lr*c / (1-b1^t)) * m /
    (sqrt(v) + eps*c), so both bias corrections fold into two scalars and a
    step makes 12 in-place passes over the buffer.
    """

    def __init__(self, params: np.ndarray):
        self.params = params
        self.grad = np.empty_like(params)
        self.m1 = np.zeros_like(params)
        self.m2 = np.zeros_like(params)
        self._num = np.empty_like(params)
        self._den = np.empty_like(params)

    def step(self, lr: float, t: int):
        """Apply one update from self.grad at step count t >= 1."""
        g, m, v, num, den = self.grad, self.m1, self.m2, self._num, self._den
        c = math.sqrt(1.0 - _ADAM_BETA2 ** t)
        m *= _ADAM_BETA1
        np.multiply(g, 1.0 - _ADAM_BETA1, out=num)
        m += num
        v *= _ADAM_BETA2
        np.square(g, out=num)
        num *= 1.0 - _ADAM_BETA2
        v += num
        np.sqrt(v, out=den)
        den += _ADAM_EPS * c
        np.divide(m, den, out=num)
        num *= lr * c / (1.0 - _ADAM_BETA1 ** t)
        self.params -= num


def predict(model: IntensityModel, x, n_obs: int) -> RankPosterior:
    """Rank posterior of a new candidate against n_obs observed points.

    A new candidate can rank below every observation, so its support is
    {0, ..., n_obs}.  The truncated form is used below the switch and the
    plain Poisson at or above it.  Either way the reported spread is
    sqrt(mean).
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != model.dim:
        raise InputError(f"expected {model.dim} coordinates, got {x.size}")
    if not np.isfinite(x).all() or x.min() < 0.0 or x.max() > 1.0:
        raise DomainError("x must lie in the unit hypercube")
    if n_obs < 0:
        raise DomainError(f"n_obs must be >= 0, got {n_obs}")
    rate = float(model.rates(x[None, :])[0])
    if n_obs < TRUNCATION_SWITCH_N:
        probs = pmf_vector(rate, n_obs)
        mean = truncated_mean(TruncatedPoisson(rate, n_obs))
    else:
        # The plain law is the truncated one on a support wide enough that
        # the discarded tail is far below the 1e-12 mass tolerance.
        probs = pmf_vector(rate, int(math.ceil(rate + 40.0 * math.sqrt(rate) + 50.0)))
        mean = rate
    return RankPosterior(pmf=probs, mean=mean, stddev=math.sqrt(mean))


def pack_arrays(weights, biases) -> np.ndarray:
    """Flatten per-layer arrays (weights row-major, then biases) to one vector."""
    parts = [w.ravel() for w in weights] + [b.ravel() for b in biases]
    return np.concatenate(parts, dtype=float)


def pack_parameters(model: IntensityModel) -> np.ndarray:
    """Copy of the model's flat parameter buffer."""
    return model.params.copy()


def set_parameters(model: IntensityModel, flat: np.ndarray):
    """Write a packed vector back into the model in place."""
    flat = np.asarray(flat, dtype=float)
    if flat.size != model.params.size:
        raise InputError(f"parameter vector length {flat.size}, expected {model.params.size}")
    model.params[...] = flat.reshape(-1)


def model_to_blob(model: IntensityModel) -> str:
    """Serialize to a JSON blob: layer-size header plus row-major arrays."""
    return json.dumps({
        "layer_sizes": model.layer_sizes,
        "rng_seed": model.rng_seed,
        "weights": [w.ravel().tolist() for w in model.weights],
        "biases": [b.tolist() for b in model.biases],
    })


def model_from_blob(blob: str) -> IntensityModel:
    data = json.loads(blob)
    sizes = data["layer_sizes"]
    weights, biases = [], []
    for fan_in, fan_out, flat_w, flat_b in zip(sizes[:-1], sizes[1:],
                                               data["weights"], data["biases"]):
        w = np.asarray(flat_w, dtype=float).reshape(fan_in, fan_out)
        b = np.asarray(flat_b, dtype=float)
        if b.shape != (fan_out,):
            raise InputError("bias block does not match layer-size header")
        weights.append(w)
        biases.append(b)
    if len(weights) != len(sizes) - 1:
        raise InputError("weight blocks do not match layer-size header")
    return IntensityModel(weights=weights, biases=biases, rng_seed=int(data["rng_seed"]))


def save_model(model: IntensityModel, path):
    Path(path).write_text(model_to_blob(model), encoding="utf-8")


def load_model(path) -> IntensityModel:
    return model_from_blob(Path(path).read_text(encoding="utf-8"))
