"""Search spaces in normalized coordinates.

Both space kinds hand out points inside the unit hypercube; raw-coordinate
bounds live with the benchmark definitions, not here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, is_count

__all__ = ["ContinuousSpace", "DiscreteSpace"]


@dataclass(frozen=True)
class ContinuousSpace:
    """Box-constrained continuous domain, the unit hypercube [0, 1]^dim."""

    dim: int

    def __post_init__(self):
        if not is_count(self.dim, 1):
            raise InputError(f"dim must be a positive integer, got {self.dim!r}")

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw n i.i.d. uniform points, shape (n, dim)."""
        return rng.uniform(size=(n, self.dim))


@dataclass(frozen=True)
class DiscreteSpace:
    """Finite candidate set; rows are normalized coordinate vectors in [0, 1]^dim."""

    candidates: np.ndarray = field(repr=False)

    def __post_init__(self):
        cand = np.asarray(self.candidates, dtype=float)
        if cand.ndim != 2 or cand.shape[0] == 0:
            raise InputError("candidates must be a non-empty 2-d array")
        if not np.isfinite(cand).all():
            raise InputError("candidates contain non-finite entries")
        if cand.min() < 0.0 or cand.max() > 1.0:
            raise InputError("candidates must lie in the unit hypercube")
        object.__setattr__(self, "candidates", cand)

    @property
    def dim(self) -> int:
        return self.candidates.shape[1]

    @property
    def n_candidates(self) -> int:
        return self.candidates.shape[0]

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw n candidates uniformly with replacement, shape (n, dim)."""
        idx = rng.integers(0, self.n_candidates, size=n)
        return self.candidates[idx].copy()
