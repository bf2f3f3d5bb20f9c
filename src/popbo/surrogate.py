"""MLP intensity model of the ranking response surface, and its training.

The surrogate maps a normalized point x in [0,1]^d to a positive rate, the
expected number of observed points that beat x.  Ranks of the observation set
follow truncated Poisson laws parameterized by that rate; maximizing their
joint log-likelihood trains the network.  poisson.log_normalizer gives each
law's normalizer and decides the regime (truncated or plain Poisson) from the
number of observations, for the likelihood and the acquisition alike.

The network is fixed to three hidden rectified-linear layers (width 128) with
a softplus output for positivity; widths are configurable only so tests can
run tiny instances.  Forward, backward, and ADAM are written directly on
numpy arrays: training must be bitwise reproducible under a seed, and the
input-gradient path is reused by the acquisition optimizer.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, PreconditionError, TrainingDivergedError, is_count
# Unused but bound: perfbench/tracer.py patches log_partial_exp_sum.
from .poisson import log_factorials, log_normalizer, log_partial_exp_sum

_LOG = logging.getLogger(__name__)

__all__ = [
    "DEFAULT_HIDDEN",
    "IntensityModel",
    "ObservationSet",
    "TrainConfig",
    "compute_ranks",
    "log_likelihood",
    "grad_log_likelihood",
    "rate_gradient",
    "fit",
    "pack_arrays",
]

DEFAULT_HIDDEN = (128, 128, 128)

_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8
_LR_DECAY = 0.2
# fit trains a float32 copy of the float64 parameters (README, "Numerical
# layout"), flushing ADAM's decaying moments once every _FLUSH_EVERY steps.
_TRAIN_DTYPE = np.float32
_FLUSH_EVERY = 100


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
    factor _LR_DECAY (0.2) every decay_every steps.  The three counts must be
    integers; steps=0 is allowed and leaves the model untouched.
    """

    steps: int = 100
    batch_size: int = 64
    initial_lr: float = 0.01
    decay_every: int = 30

    def __post_init__(self):
        if not is_count(self.steps, 0):
            raise InputError(f"steps must be an integer >= 0, got {self.steps!r}")
        for name in ("batch_size", "decay_every"):
            if not is_count(getattr(self, name), 1):
                raise InputError(f"{name} must be an integer >= 1, got {getattr(self, name)!r}")
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

    ``adam_state`` is the optimizer that the last fit left behind: ADAM's
    flat first and second moments and its step count t, or None before the
    first fit and after a fit that restored its start.  The next fit
    continues from it.  copy() returns a model without it, which fits cold.

    ``_layer_buffers`` holds two flat float64 buffers that rates() writes
    its hidden layers into, alternating by layer, so scoring a large batch
    maps no fresh memory.  They grow to the largest batch seen, and copy() leaves
    them out.  Every rates() call writes them, so one model must not be
    scored from two threads at once.
    """

    weights: list
    biases: list
    rng_seed: int = 0
    params: np.ndarray = field(init=False, repr=False, compare=False)
    adam_state: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _layer_buffers: list = field(default_factory=lambda: [np.empty(0), np.empty(0)],
                                 init=False, repr=False, compare=False)

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
        if not (is_count(dim, 1) and all(is_count(width, 1) for width in hidden)):
            raise InputError(f"dim and hidden widths must be integers >= 1, got {dim!r}, "
                             f"{hidden!r}")
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

    def copy(self) -> "IntensityModel":
        return IntensityModel(self.weights, self.biases, self.rng_seed)

    def _forward(self, x: np.ndarray, layers=None, keep: bool = True):
        """Batched forward pass; returns (rates, caches) for backprop.

        layers is a (weights, biases) pair shaped like the model's, such as
        fit's float32 working copy, or None for the model's own float64
        parameters; x should share its dtype.  The output pre-activation is
        cast to float64 before the softplus, so the rates are float64 and no
        float32 exp underflow turns a rate into 0.  caches ends with the
        softplus slope 1 / (1 + exp(-z)) at the output pre-activation z.
        Without keep (float64 only), each hidden layer is computed in place
        in a prefix of one of the two _layer_buffers, with the same
        operations as with keep, and caches is None.
        """
        weights, biases = layers or (self.weights, self.biases)
        h = x
        inputs = [h]
        pre_acts = []
        for layer, (w, b) in enumerate(zip(weights[:-1], biases[:-1])):
            if keep:
                pre = h @ w + b
                h = np.maximum(pre, 0.0)
                pre_acts.append(pre)
                inputs.append(h)
                continue
            size = h.shape[0] * w.shape[1]
            buf = self._layer_buffers[layer % 2]
            if buf.size < size:
                buf = self._layer_buffers[layer % 2] = np.empty(size)
            h = np.matmul(h, w, out=buf[:size].reshape(-1, w.shape[1]))
            h += b
            np.maximum(h, 0.0, out=h)
        z = (h @ weights[-1] + biases[-1])[:, 0].astype(float)
        if not keep:
            return np.logaddexp(0.0, z), None
        # exp(-z) overflows to inf only where the slope rounds to 0; a NaN z
        # (NaN parameters) gives NaN, which fit reports as divergence.
        with np.errstate(over="ignore", invalid="ignore"):
            rates = np.logaddexp(0.0, z)
            slope = 1.0 / (1.0 + np.exp(-z))
        return rates, (inputs, pre_acts, slope)

    def rates(self, x) -> np.ndarray:
        """Predicted rates for a batch of points, shape (n, d) -> (n,)."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.dim:
            raise InputError(f"expected shape (n, {self.dim}), got {x.shape}")
        if not np.isfinite(x).all():
            raise InputError("non-finite inputs")
        return self._forward(x, keep=False)[0]

    def _backward(self, caches, d_rates: np.ndarray, grad_w: list, grad_b: list, weights=None):
        """Parameter gradients of sum_j d_rates[j] * rate_j.

        Args:
            caches: the second element returned by _forward.
            d_rates: (n,) upstream derivative with respect to each rate.
            grad_w, grad_b: per-layer views (from _views) of a flat buffer
                shaped like params; overwritten.
            weights: the weight arrays the forward pass used, None for the
                model's own.  Each output delta is formed in float64 and
                then cast to their dtype.
        """
        weights = weights or self.weights
        inputs, pre_acts, slope = caches
        delta = (d_rates * slope).astype(weights[-1].dtype, copy=False)[:, None]
        np.matmul(inputs[-1].T, delta, out=grad_w[-1])
        delta.sum(axis=0, out=grad_b[-1])
        downstream = delta @ weights[-1].T
        for layer in range(len(weights) - 2, -1, -1):
            delta = downstream * (pre_acts[layer] > 0.0)
            np.matmul(inputs[layer].T, delta, out=grad_w[layer])
            delta.sum(axis=0, out=grad_b[layer])
            if layer > 0:
                downstream = delta @ weights[layer].T

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
        if not np.isfinite(x).all():
            raise InputError("non-finite inputs")
        rates, (_, pre_acts, slope) = self._forward(x)
        v = slope[0] * self.weights[-1][:, 0]
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


def rate_gradient(rates: np.ndarray, ranks: np.ndarray, n_obs: int) -> np.ndarray:
    """Per-point derivative of the log-likelihood with respect to each rate.

    Equals k/rate - d log Z/dr of the law on {0..N-1}: S(N-2)/S(N-1) below
    the switch, 1 at or above it.  A 0 rate gives a non-finite derivative,
    without a warning.
    """
    rates = np.asarray(rates, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.asarray(ranks) / rates - log_normalizer(rates, n_obs, n_obs - 1, 1)[1]


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
    log_z = log_normalizer(rates, len(obs), len(obs) - 1)[0]
    return float(np.sum(_ll_terms(rates, obs.ranks, log_z)))


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
    The learning rate is initial_lr * 0.2 ** (step // decay_every), with
    step counted from 0 in every fit.  ADAM continues the moments and step
    count t of model.adam_state when the model carries them (a warm fit)
    and starts from zero moments otherwise; the fit stores its own back on
    the model when it ends.  Training runs on a float32 copy of
    model.params (forward, backward, gradient and moments; the rates and
    the rank law stay float64), written back into the float64 params before
    the final NLL; every _FLUSH_EVERY steps, moments that could decay into
    the subnormal range are zeroed (_Adam.flush).  If the final full-set
    negative log-likelihood exceeds the starting one, the initial
    parameters are restored and the moments dropped, so the contract "final
    NLL <= initial" always holds and the next fit starts ADAM afresh; the
    restore is logged at DEBUG level on this module's logger with both NLLs.
    A diverged fit leaves no moments.

    Args:
        model: network to train; mutated in place and returned.
        obs: observation set, N >= 2.
        cfg: schedule.
        rng: minibatch shuffle stream; defaults to a substream of the model's
            rng_seed so repeated calls are bitwise reproducible.

    Raises:
        TrainingDivergedError: a minibatch rate or rate derivative, and so the
            loss or its gradient, became non-finite.
    """
    _require_fittable(obs)
    if cfg.steps == 0:
        return model
    if rng is None:
        rng = np.random.default_rng([model.rng_seed, 1])
    n = len(obs)
    batch = min(cfg.batch_size, n)

    with np.errstate(invalid="ignore"):  # NaN parameters fail the step-0 check
        nll_start = -log_likelihood(model, obs)
    # This fit's float32 arrays are allocated together, after the carried
    # moments, so once freed they leave one contiguous hole for the proposal.
    adam = _Adam(model.params.astype(_TRAIN_DTYPE), model.adam_state)
    model.adam_state = None
    layers = model._views(adam.params)
    grad_w, grad_b = model._views(adam.grad)
    points = obs.points.astype(_TRAIN_DTYPE)

    perm = np.empty(0, dtype=np.int64)
    pos = 0
    for step in range(cfg.steps):
        if pos + batch > perm.size:
            perm = rng.permutation(n)
            pos = 0
        idx = perm[pos:pos + batch]
        pos += batch

        rates, caches = model._forward(points[idx], layers)
        d_rates = rate_gradient(rates, obs.ranks[idx], n)
        # A 0 rate at rank 0 has a finite loss but a 0/0 derivative; an
        # infinite rate in the plain regime has a finite derivative of -1.
        if not (np.isfinite(rates).all() and np.isfinite(d_rates).all()):
            raise TrainingDivergedError(step)
        model._backward(caches, -d_rates / idx.size, grad_w, grad_b, layers[0])
        if step % _FLUSH_EVERY == 0:
            adam.flush()
        adam.step(cfg.initial_lr * _LR_DECAY ** (step // cfg.decay_every))

    start = model.params.copy()
    model.params[...] = adam.params
    nll_end = -log_likelihood(model, obs)
    if not (nll_end <= nll_start):
        # ADAM overshot (or broke) on this set; keep the no-worse parameters.
        model.params[...] = start
        _LOG.debug("fit restored its start parameters: NLL %r at start, %r at end",
                   nll_start, nll_end)
    else:
        model.adam_state = (adam.m1, adam.m2, adam.t)
    return model


class _Adam:
    """ADAM on one flat parameter vector, updated in place without temporaries.

    Each step is Kingma and Ba's efficient form of the textbook update
    p -= lr * (m / (1-b1^t)) / (sqrt(v / (1-b2^t)) + eps): with
    c = sqrt(1-b2^t), the same update is p -= (lr*c / (1-b1^t)) * m /
    (sqrt(v) + eps*c), so both bias corrections fold into two scalars and a
    step makes 12 in-place passes over the buffer.

    state (m1, m2, t), as a fit leaves on IntensityModel.adam_state,
    continues an earlier run: its moment arrays are updated in place and t
    counts on.  Without it the moments start at zero and t at 0.
    """

    def __init__(self, params: np.ndarray, state: tuple | None = None):
        self.params = params
        if state is None:
            state = (np.zeros_like(params), np.zeros_like(params), 0)
        self.m1, self.m2, self.t = state
        self.grad = np.empty_like(params)
        self._num = np.empty_like(params)
        self._den = np.empty_like(params)

    def flush(self):
        """Zero each moment that _FLUSH_EVERY steps of decay could take subnormal.

        A parameter whose gradient is exactly 0 (a dead rectified unit) keeps
        its moments, which then shrink by beta per step.  Subnormal operands
        make every pass over the buffer several times slower, so any moment
        below tiny / beta ** _FLUSH_EVERY is set to 0 here; called once per
        _FLUSH_EVERY steps, no moment decays below tiny in between.
        """
        tiny = float(np.finfo(self.params.dtype).tiny)
        for m, beta in ((self.m1, _ADAM_BETA1), (self.m2, _ADAM_BETA2)):
            m[np.abs(m) < tiny / beta ** _FLUSH_EVERY] = 0.0

    def step(self, lr: float):
        """Count one more step t and apply its update from self.grad."""
        self.t = t = self.t + 1
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


def pack_arrays(weights, biases) -> np.ndarray:
    """Flatten per-layer arrays (weights row-major, then biases) to one vector."""
    parts = [w.ravel() for w in weights] + [b.ravel() for b in biases]
    return np.concatenate(parts, dtype=float)
