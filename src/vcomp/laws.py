"""Seeded sampling of mean-0 variance-1 sub-Gaussian coordinates with exact moments.

Three coordinate laws are supported: standard Gaussian, Rademacher (+-1 with
probability 1/2 each), and the uniform distribution on [-sqrt(3), sqrt(3)].
All are mean 0, variance 1, and their raw moments up to order 8 are available
in closed form.  Their excess kurtoses (0, -2, -6/5) cover the degenerate
Rademacher edge case of quadratic-form central limit behaviour.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedLawError

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class SubGaussianLaw:
    """A mean-0, variance-1 coordinate law with closed-form moments.

    ``gamma`` is a documented analytic upper bound on the sub-Gaussian
    (psi_2) norm of one coordinate; only an upper bound is ever needed.
    ``mu3``..``mu8`` are the exact raw moments E zeta^k.
    """

    name: str
    gamma: float
    mu3: float
    mu4: float
    mu6: float
    mu8: float

    @property
    def excess_kurtosis(self) -> float:
        return self.mu4 - 3.0

    def sample(self, rng: np.random.Generator, shape) -> np.ndarray:
        """Independent coordinates of the given shape, drawn from ``rng``."""
        if self.name == "gaussian":
            return rng.standard_normal(shape)
        if self.name == "rademacher":
            return 2.0 * rng.integers(0, 2, size=shape).astype(np.float64) - 1.0
        if self.name == "uniform":
            return rng.uniform(-_SQRT3, _SQRT3, size=shape)
        raise UnsupportedLawError(f"no sampler for law {self.name!r}")


# gamma bounds: bounded laws satisfy ||zeta||_psi2 <= sup|zeta| (attained at
# r = 1 in the defining supremum); for the standard normal the supremum is
# E|zeta| = sqrt(2/pi) < 1.
GAUSSIAN = SubGaussianLaw("gaussian", gamma=1.0, mu3=0.0, mu4=3.0, mu6=15.0, mu8=105.0)
RADEMACHER = SubGaussianLaw("rademacher", gamma=1.0, mu3=0.0, mu4=1.0, mu6=1.0, mu8=1.0)
UNIFORM = SubGaussianLaw(
    "uniform", gamma=math.sqrt(3.0), mu3=0.0, mu4=9.0 / 5.0, mu6=27.0 / 7.0, mu8=9.0
)

_REGISTRY = {law.name: law for law in (GAUSSIAN, RADEMACHER, UNIFORM)}

_SQRT3 = math.sqrt(3.0)


def law_by_name(name: str) -> SubGaussianLaw:
    """Look up a supported law by its config-file name."""
    try:
        return _REGISTRY[name.lower()]
    except KeyError:
        raise UnsupportedLawError(
            f"unknown law {name!r}; supported: {sorted(_REGISTRY)}"
        ) from None


@dataclass(frozen=True)
class SeedSpec:
    """Addresses one reproducible random stream.

    The draw sequence is a pure function of ``(master_seed, stream_id)``:
    the pair keys a counter-based Philox generator, so replicate streams are
    identical across runs and across any number of concurrent workers.
    """

    master_seed: int
    stream_id: int = 0

    def key(self) -> np.ndarray:
        return np.array(
            [self.master_seed & _MASK64, self.stream_id & _MASK64], dtype=np.uint64
        )


def rng_for(seed: SeedSpec, substream: int = 0) -> np.random.Generator:
    """A new generator for a seed spec; ``substream`` jumps to a disjoint stream.

    Substreams let one logical seed feed several independent draws (effects,
    noise, perturbations) without any risk of overlap.  This is for callers
    that hold a generator across other draws, since the cheaper
    ``shared_rng`` (same numbers) must never be held across another draw.
    """
    bitgen = np.random.Philox(key=seed.key())
    if substream:
        bitgen = bitgen.jumped(substream)
    return np.random.Generator(bitgen)


_SHARED = np.random.Generator(np.random.Philox(0))  # one per process


def shared_rng(seed: SeedSpec, substream: int = 0) -> np.random.Generator:
    """The process's one generator, reset to the start of ``rng_for(seed, substream)``.

    A Philox jump by ``substream`` adds it to the third counter word, so
    setting the counter to ``[0, 0, substream, 0]`` under the key, with an
    empty buffer, gives bitwise the draws of ``rng_for`` without building a
    generator.  Never hold it across another draw, nor share it between
    threads: the next reset replaces its state.
    """
    _SHARED.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.array([0, 0, substream, 0], dtype=np.uint64), "key": seed.key()},
        "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    return _SHARED


def sample_vector(law: SubGaussianLaw, d: int, seed: SeedSpec, substream: int = 0) -> np.ndarray:
    """Draw ``d`` independent coordinates from ``law``, deterministically in ``seed``.

    Draws through ``shared_rng``; never hold that generator across this call.
    """
    return sample_rows(law, d, [seed], substream)[0]


def sample_rows(law: SubGaussianLaw, d: int, seeds, substream: int = 0) -> np.ndarray:
    """A (len(seeds), d) block; row i is ``sample_vector(law, d, seeds[i], substream)``."""
    if d < 1:
        raise ValueError(f"need at least one coordinate, got d={d}")
    out = np.empty((len(seeds), d))
    for row, seed in zip(out, seeds):
        row[:] = law.sample(shared_rng(seed, substream), d)
    return out
