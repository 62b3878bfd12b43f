"""Seeded sampling of mean-0 variance-1 sub-Gaussian coordinates with exact moments.

Three coordinate laws are supported: standard Gaussian, Rademacher (+-1 with
probability 1/2 each), and the uniform distribution on [-sqrt(3), sqrt(3)].
All are mean 0 and variance 1 with a closed-form fourth moment, the only one
the quadratic-form identities read.  Their excess kurtoses
(0, -2, -6/5) cover the degenerate Rademacher edge case of quadratic-form
central limit behaviour.
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
    ``mu4`` is the exact raw moment E zeta^4.
    """

    name: str
    gamma: float
    mu4: float

    @property
    def excess_kurtosis(self) -> float:
        """mu4 - 3: what the quadratic-form covariances read of a law."""
        return self.mu4 - 3.0

    def sample(self, rng: np.random.Generator, shape) -> np.ndarray:
        """Independent coordinates of the given shape, drawn from ``rng``.  A
        bounded law takes whole raw words, so an odd Rademacher count drops
        the high half of its last word: two odd-sized calls on one generator
        are not one call of their total size."""
        count = int(np.prod(shape))
        return self._coords(self._raw(rng, count), count).reshape(shape)

    def _raw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Standard normals for the Gaussian law, raw Philox words for a bounded law."""
        if self.name == "gaussian":
            return rng.standard_normal(count)
        if self.name == "rademacher":
            return rng.bit_generator.random_raw((count + 1) // 2)
        if self.name == "uniform":
            return rng.bit_generator.random_raw(count)
        raise UnsupportedLawError(f"no sampler for law {self.name!r}")

    def _coords(self, raw: np.ndarray, count: int) -> np.ndarray:
        """The first ``count`` coordinates along the last axis of ``_raw`` output;
        bitwise numpy's ``integers(0, 2)`` and ``uniform`` on a fresh stream."""
        if self.name == "rademacher":  # Lemire at range 2: bit 31 of each half-word, low first
            return 2.0 * (raw.astype("<u8", copy=False).view("<u4")[..., :count] >> 31) - 1.0
        if self.name == "uniform":  # low + (high - low) * (w >> 11) * 2^-53
            return -_SQRT3 + 2.0 * _SQRT3 * ((raw >> 11) * 2.0**-53)
        return raw


# gamma bounds: bounded laws satisfy ||zeta||_psi2 <= sup|zeta| (attained at
# r = 1 in the defining supremum); for the standard normal the supremum is
# E|zeta| = sqrt(2/pi) < 1.
GAUSSIAN = SubGaussianLaw("gaussian", gamma=1.0, mu4=3.0)
RADEMACHER = SubGaussianLaw("rademacher", gamma=1.0, mu4=1.0)
UNIFORM = SubGaussianLaw("uniform", gamma=math.sqrt(3.0), mu4=9.0 / 5.0)

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

    def key(self) -> tuple[int, int]:
        return self.master_seed & _MASK64, self.stream_id & _MASK64


def rng_for(seed: SeedSpec) -> np.random.Generator:
    """A new generator for a seed spec, for callers that hold it across other
    draws: the cheaper ``shared_rng`` (same numbers) must never be held so."""
    return np.random.Generator(np.random.Philox(key=np.array(seed.key(), dtype=np.uint64)))


_SHARED = np.random.Generator(np.random.Philox(0))  # one per process
# its reset state, written in place; lists set faster than arrays
_RESET = {
    "bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": [0, 0]},
    "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
}


def shared_rng(seed: SeedSpec, substream: int = 0) -> np.random.Generator:
    """The process's one generator, reset to the start of ``seed``'s substream.

    Substreams let one seed feed several independent draws (effects, noise)
    without overlap: substream k is the seed's Philox stream jumped k times
    (k * 2^128 draws), and a jump adds k to the third counter word.  So
    setting the counter to ``[0, 0, substream, 0]`` under the key, with an
    empty buffer, gives bitwise the jumped stream without building a
    generator; substream 0 is ``rng_for(seed)``.  Never hold it across
    another draw, nor share it between threads: the next reset replaces its
    state.
    """
    state = _RESET["state"]
    state["counter"][2] = substream
    state["key"][:] = seed.key()
    _SHARED.bit_generator.state = _RESET
    return _SHARED


def sample_vector(law: SubGaussianLaw, d: int, seed: SeedSpec, substream: int = 0) -> np.ndarray:
    """Draw ``d`` independent coordinates from ``law``, deterministically in ``seed``.

    Draws through ``shared_rng``; never hold that generator across this call.
    """
    return sample_rows(law, d, [seed], substream)[0]


def sample_rows(law: SubGaussianLaw, d: int, seeds, substream: int = 0) -> np.ndarray:
    """A (len(seeds), d) block; row i is ``sample_vector(law, d, seeds[i], substream)``.
    Each row's raw draw comes from its own stream, then one pass maps the block."""
    if d < 1:
        raise ValueError(f"need at least one coordinate, got d={d}")
    raw = np.concatenate([law._raw(shared_rng(seed, substream), d) for seed in seeds])
    return law._coords(raw.reshape(len(seeds), -1), d)
