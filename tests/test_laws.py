import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from vcomp.errors import UnsupportedLawError
from vcomp.laws import (
    GAUSSIAN,
    RADEMACHER,
    UNIFORM,
    SeedSpec,
    SubGaussianLaw,
    law_by_name,
    rng_for,
    sample_rows,
    sample_vector,
    shared_rng,
)

N_BIG = 1_000_000


def jumped_rng(seed, substream):
    """The reference substream: the seed's Philox stream jumped ``substream``
    times, which ``shared_rng(seed, substream)`` resets to."""
    return np.random.Generator(rng_for(seed).bit_generator.jumped(substream))


def test_closed_form_moments():
    assert (GAUSSIAN.mu4, RADEMACHER.mu4, UNIFORM.mu4) == (3.0, 1.0, 9 / 5)


def test_uniform_moments_match_quadrature():
    # independent oracle: integrate x^k / (2 sqrt(3)) over [-sqrt(3), sqrt(3)]
    s = math.sqrt(3.0)
    for k, expected in ((2, 1.0), (3, 0.0), (4, 9 / 5)):
        val, _ = integrate.quad(lambda x, k=k: x**k / (2 * s), -s, s)
        assert val == pytest.approx(expected, abs=1e-12)


def test_moment_inequalities():
    for law in (GAUSSIAN, RADEMACHER, UNIFORM):
        assert law.mu4 >= 1.0
        assert law.excess_kurtosis >= -2.0
    assert RADEMACHER.excess_kurtosis == -2.0
    assert GAUSSIAN.excess_kurtosis == 0.0


def test_law_by_name():
    assert law_by_name("gaussian") is GAUSSIAN
    assert law_by_name("RADEMACHER") is RADEMACHER
    with pytest.raises(UnsupportedLawError):
        law_by_name("cauchy")


def test_rademacher_support():
    v = sample_vector(RADEMACHER, 4, SeedSpec(1, 0))
    assert set(np.unique(v)) <= {-1.0, 1.0}


def test_uniform_support():
    v = sample_vector(UNIFORM, 1, SeedSpec(5, 0))
    assert -math.sqrt(3) <= v[0] <= math.sqrt(3)
    big = sample_vector(UNIFORM, 10_000, SeedSpec(5, 1))
    assert np.all(np.abs(big) <= math.sqrt(3))


def name_switch_sample(law, rng, shape):
    # the per-name generator calls every sampler has used; draws must not change
    if law.name == "gaussian":
        return rng.standard_normal(shape)
    if law.name == "rademacher":
        return 2.0 * rng.integers(0, 2, size=shape).astype(np.float64) - 1.0
    return rng.uniform(-math.sqrt(3.0), math.sqrt(3.0), size=shape)


@pytest.mark.parametrize("law", [GAUSSIAN, RADEMACHER, UNIFORM], ids=lambda l: l.name)
@pytest.mark.parametrize("shape", [(7,), (3, 5)])
def test_sample_matches_name_switch_bitwise(law, shape):
    seed = SeedSpec(11, 4)
    got = law.sample(jumped_rng(seed, 2), shape)
    want = name_switch_sample(law, jumped_rng(seed, 2), shape)
    assert got.shape == shape
    assert np.array_equal(got, want)
    if len(shape) == 1:
        assert np.array_equal(sample_vector(law, shape[0], seed, 2), want)


def test_sample_unknown_law_rejected():
    law = SubGaussianLaw("cauchy", gamma=1.0, mu4=3.0)
    with pytest.raises(UnsupportedLawError):
        law.sample(rng_for(SeedSpec(0, 0)), (3,))


def test_empty_vector_rejected():
    with pytest.raises(ValueError):
        sample_vector(GAUSSIAN, 0, SeedSpec(0, 0))


def test_determinism_and_stream_separation():
    a = sample_vector(GAUSSIAN, 100, SeedSpec(42, 7))
    b = sample_vector(GAUSSIAN, 100, SeedSpec(42, 7))
    assert np.array_equal(a, b)
    c = sample_vector(GAUSSIAN, 100, SeedSpec(42, 8))
    assert not np.array_equal(a, c)
    d = sample_vector(GAUSSIAN, 100, SeedSpec(43, 7))
    assert not np.array_equal(a, d)


def test_substreams_disjoint():
    a = sample_vector(GAUSSIAN, 100, SeedSpec(42, 7), substream=0)
    b = sample_vector(GAUSSIAN, 100, SeedSpec(42, 7), substream=1)
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("law", [GAUSSIAN, RADEMACHER, UNIFORM], ids=lambda l: l.name)
def test_mean_and_variance(law):
    x = sample_vector(law, N_BIG, SeedSpec(2024, 0))
    se_mean = x.std(ddof=1) / math.sqrt(N_BIG)
    assert abs(x.mean()) < 5 * se_mean
    # Var(s^2) = (mu4 - (N-3)/(N-1))/N for mean-0 variance-1 laws; keeps the
    # finite-N term that dominates in the Rademacher case (mu4 = 1)
    se_var = math.sqrt((law.mu4 - (N_BIG - 3) / (N_BIG - 1)) / N_BIG)
    assert abs(x.var(ddof=1) - 1.0) < 5 * se_var


@pytest.mark.parametrize("law", [GAUSSIAN, RADEMACHER, UNIFORM], ids=lambda l: l.name)
@pytest.mark.parametrize("k", [3, 4])
def test_empirical_moments_match(law, k):
    x = sample_vector(law, N_BIG, SeedSpec(99, k))
    xk = x**k
    se = xk.std(ddof=1) / math.sqrt(N_BIG)
    expected = {3: 0.0, 4: law.mu4}[k]  # every shipped law is symmetric
    assert abs(xk.mean() - expected) <= 5 * se + 1e-12


def test_cross_stream_correlation():
    n = N_BIG
    a = sample_vector(GAUSSIAN, n, SeedSpec(7, 0))
    b = sample_vector(GAUSSIAN, n, SeedSpec(7, 1))
    rho = float(np.corrcoef(a, b)[0, 1])
    assert abs(rho) < 5 / math.sqrt(n)


# stream ids as the experiments address them: cell c, replicate or reserved
# stream r, up to the control stream 2^32 - 3
STREAM_IDS = [0, 1, 7, (1 << 32) | 5, (5 << 32) | (2**32 - 3), (9 << 32) | (2**32 - 1)]
DRAWS = {
    "standard_normal": lambda rng: rng.standard_normal(11),
    "integers": lambda rng: rng.integers(0, 2, size=13),
    "uniform": lambda rng: rng.uniform(-1.0, 1.0, size=5),
    "random": lambda rng: rng.random(3),
    "choice": lambda rng: rng.choice(40, size=7, replace=False),
}


class TestSharedStreamReset:
    @pytest.mark.parametrize("substream", [0, 1, 2, 3, 4, 9])
    @pytest.mark.parametrize("stream_id", STREAM_IDS)
    def test_draws_equal_a_new_generator_bitwise(self, stream_id, substream):
        seed = SeedSpec(123, stream_id)
        for name, draw in DRAWS.items():
            assert np.array_equal(draw(shared_rng(seed, substream)), draw(jumped_rng(seed, substream))), name

    @pytest.mark.parametrize("law", [GAUSSIAN, RADEMACHER, UNIFORM], ids=lambda l: l.name)
    @pytest.mark.parametrize("substream", [0, 1, 2, 3, 4, 9])
    def test_every_law_bitwise(self, law, substream):
        for stream_id in STREAM_IDS:
            seed = SeedSpec(2**63 + 5, stream_id)
            want = name_switch_sample(law, jumped_rng(seed, substream), (17,))
            assert np.array_equal(sample_vector(law, 17, seed, substream), want)

    def test_reset_drops_a_partly_used_buffer(self):
        # an odd count of Rademacher coordinates leaves half a 64-bit word
        # cached; the next reset must not hand it on
        a, b = SeedSpec(1, 2), SeedSpec(1, 3)
        sample_vector(RADEMACHER, 3, a)
        shared_rng(a).random(1)
        assert np.array_equal(sample_vector(RADEMACHER, 5, b), name_switch_sample(RADEMACHER, rng_for(b), (5,)))

    def test_new_generator_between_reset_draws_changes_neither(self):
        seed, other = SeedSpec(8, 1), SeedSpec(8, 2)
        first = sample_vector(UNIFORM, 9, seed, 2)
        held = jumped_rng(other, 1)
        between = held.standard_normal(4)
        second = sample_vector(GAUSSIAN, 9, other, 3)
        assert np.array_equal(first, name_switch_sample(UNIFORM, jumped_rng(seed, 2), (9,)))
        assert np.array_equal(second, name_switch_sample(GAUSSIAN, jumped_rng(other, 3), (9,)))
        # the held generator continues its own stream, untouched by the resets
        assert np.array_equal(np.concatenate([between, held.standard_normal(4)]),
                              jumped_rng(other, 1).standard_normal(8))

    @pytest.mark.parametrize("law", [GAUSSIAN, RADEMACHER, UNIFORM], ids=lambda l: l.name)
    def test_rows_are_the_seeds_vectors(self, law):
        seeds = [SeedSpec(4, (3 << 32) | r) for r in range(70)]
        rows = sample_rows(law, 6, seeds, 1)
        assert rows.shape == (70, 6)
        for row, seed in zip(rows, seeds):
            assert np.array_equal(row, sample_vector(law, 6, seed, 1))

    def test_rows_need_a_coordinate(self):
        with pytest.raises(ValueError):
            sample_rows(GAUSSIAN, 0, [SeedSpec(0, 0)])


@settings(max_examples=80, deadline=None)
@given(
    law=st.sampled_from([GAUSSIAN, RADEMACHER, UNIFORM]),
    d=st.integers(1, 1024),
    master=st.sampled_from([0, 7, 2**63 + 5]),
    stream_ids=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4),
    substream=st.integers(0, 9),
)
@example(law=RADEMACHER, d=1, master=2**63 + 5, stream_ids=[2**64 - 1], substream=9)
@example(law=RADEMACHER, d=999, master=2**63 + 5, stream_ids=[0, 1], substream=0)
@example(law=UNIFORM, d=1000, master=2**63 + 5, stream_ids=[(9 << 32) | (2**32 - 3)], substream=4)
def test_rows_match_the_name_switch_bitwise(law, d, master, stream_ids, substream):
    seeds = [SeedSpec(master, s) for s in stream_ids]
    rows = sample_rows(law, d, seeds, substream)
    assert rows.shape == (len(seeds), d) and rows.dtype == np.float64
    for row, seed in zip(rows, seeds):
        assert np.array_equal(row, name_switch_sample(law, jumped_rng(seed, substream), (d,)))


class TestHeldGenerator:
    # a single odd-sized call is checked by test_sample_matches_name_switch_bitwise
    @pytest.mark.parametrize("law", [GAUSSIAN, RADEMACHER, UNIFORM], ids=lambda l: l.name)
    @pytest.mark.parametrize("count", [4, 5])
    def test_next_draw_starts_where_the_name_switch_left_off(self, law, count):
        seed = SeedSpec(2**63 + 5, 13)
        held, oracle = jumped_rng(seed, 3), jumped_rng(seed, 3)
        assert np.array_equal(law.sample(held, (count,)), name_switch_sample(law, oracle, (count,)))
        assert np.array_equal(held.standard_normal(3), oracle.standard_normal(3))

    def test_odd_rademacher_calls_take_whole_words(self):
        # each call takes ceil(count / 2) raw words, so the high half of the
        # first call's last word is dropped; numpy's integers would keep it
        # for the next call
        seed = SeedSpec(11, 4)
        held = jumped_rng(seed, 2)
        first, second = RADEMACHER.sample(held, (3,)), RADEMACHER.sample(held, (5,))
        oracle = jumped_rng(seed, 2)
        assert np.array_equal(first, name_switch_sample(RADEMACHER, oracle, (3,)))
        buffered = name_switch_sample(RADEMACHER, oracle, (5,))
        skipped = jumped_rng(seed, 2)
        skipped.bit_generator.random_raw(2)
        assert np.array_equal(second, name_switch_sample(RADEMACHER, skipped, (5,)))
        assert not np.array_equal(second, buffered)
        # the next draw of any kind starts after the five whole words
        after = jumped_rng(seed, 2)
        after.bit_generator.random_raw(5)
        assert np.array_equal(held.standard_normal(4), after.standard_normal(4))

    def test_resets_between_held_draws_change_neither(self):
        seed, other = SeedSpec(3, 5), SeedSpec(3, 6)
        held = jumped_rng(seed, 1)
        parts = [RADEMACHER.sample(held, (5,))]
        rows = sample_rows(UNIFORM, 9, [other, seed], 1)
        parts.append(UNIFORM.sample(held, (3,)))
        shared_rng(other).integers(0, 2, size=3)  # leaves half a word cached
        again = sample_rows(RADEMACHER, 5, [seed], 1)
        assert np.array_equal(again[0], parts[0])
        assert np.array_equal(rows[1], name_switch_sample(UNIFORM, jumped_rng(seed, 1), (9,)))
        oracle = jumped_rng(seed, 1)
        assert np.array_equal(parts[0], name_switch_sample(RADEMACHER, oracle, (5,)))
        # numpy's integers took three words as well, the third's high half cached
        assert np.array_equal(parts[1], name_switch_sample(UNIFORM, oracle, (3,)))
