"""The seeded uniform stream computed in Python is numpy's, bit for bit.

numpy is the oracle: ``Generator(Philox(seed)).uniform`` is what
``RandomSource.generator`` hands the array routes, so a change on either
side of the stream fails here at once.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from calclab.rng import RandomSource

INTERVALS = [(0.0, 1.0), (-1.5, 2.0), (-0.7, 0.4), (2.5, 2.5), (-1e300, 1e300), (1.0, 1.0 + 2.0**-40), (-7.0, -3.0)]


def _bits(values):
    return [v.hex() for v in values]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    seed=st.one_of(st.integers(0, 2**64), st.integers(0, 2**160)),
    n=st.integers(0, 2000),
    interval=st.sampled_from(INTERVALS),
)
def test_uniforms_are_numpys_uniform_draws(seed, n, interval):
    got = RandomSource(seed).uniforms(n, *interval)
    assert all(type(v) is float for v in got)
    assert _bits(got) == _bits(RandomSource(seed).generator().uniform(*interval, n).tolist())


@pytest.mark.parametrize("seed", [0, 2**32 + 5, 2**150 + 9])
def test_a_long_run_of_uniforms_is_numpys(seed):
    got = RandomSource(seed).uniforms(100_000, -1.5, 2.0)
    assert _bits(got) == _bits(RandomSource(seed).generator().uniform(-1.5, 2.0, 100_000).tolist())


@pytest.mark.parametrize(
    "low, high, error", [(1.0, 0.0, ValueError), (-1e308, 1e308, OverflowError), (math.nan, 1.0, OverflowError)]
)
def test_uniforms_refuse_the_intervals_numpy_refuses(low, high, error):
    with pytest.raises(error):
        RandomSource(1).generator().uniform(low, high, 3)
    with pytest.raises(error):
        RandomSource(1).uniforms(3, low, high)


def test_uniforms_restart_the_stream_and_refuse_a_negative_count():
    rng = RandomSource(9)
    assert rng.uniforms(5, 0.0, 1.0) == rng.uniforms(8, 0.0, 1.0)[:5]
    with pytest.raises(ValueError, match="n >= 0"):
        rng.uniforms(-1, 0.0, 1.0)
