"""The seeded uniform stream computed in Python is numpy's, bit for bit.

numpy is the oracle: ``Generator(Philox(seed)).uniform`` is what
``RandomSource.generator`` hands the array routes, so a change on either
side of the stream fails here at once.  Substream b is numpy's
``Philox(seed).jumped(b)``, and the blocked kernels give the same bytes on
one CPU as on all of them.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import calclab
from calclab import rng as rng_module
from calclab.prob import sn_fixed_point_law, su2_character_moment_mc
from calclab.quad import SphereMomentKey, sample_real_sphere, sphere_moment_mc
from calclab.rng import RandomSource

SRC = str(Path(calclab.__file__).resolve().parent.parent)

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


@pytest.mark.parametrize("seed", [0, 7, 2**64 + 5])
def test_block_b_draws_from_philox_jumped_b(seed):
    def draw(rows, gen):
        assert gen.bit_generator.state["state"]["counter"].tolist() == [0, 0, rows.start // 3, 0]
        return gen.standard_normal(rows.stop - rows.start)

    blocks = RandomSource(seed).map_blocks(14, 3, draw)
    assert [len(block) for block in blocks] == [3, 3, 3, 3, 2]
    for b, block in enumerate(blocks):
        want = np.random.Generator(np.random.Philox(seed).jumped(b)).standard_normal(len(block))
        assert block.tobytes() == want.tobytes()
    # substream 0 is the seed's own stream
    assert blocks[0].tobytes() == RandomSource(seed).generator().standard_normal(3).tobytes()


def test_map_blocks_joins_its_helpers(monkeypatch):
    monkeypatch.setattr(rng_module, "_cpus", lambda: 4)
    before, seen = threading.active_count(), []
    # min(3 blocks, 4 CPUs) threads, one block each: all of them are alive when the last arrives
    together = threading.Barrier(3, action=lambda: seen.append(threading.active_count()), timeout=30)

    def work(rows, gen):
        together.wait()
        return rows

    got = RandomSource(1).map_blocks(10, 4, work)
    assert got == [slice(0, 4), slice(4, 8), slice(8, 10)]
    assert seen == [before + 2]  # the caller and two helpers
    assert threading.active_count() == before
    assert RandomSource(1).map_blocks(0, 4, work) == []


def test_a_failed_block_reaches_the_caller_after_the_helpers_are_joined(monkeypatch):
    monkeypatch.setattr(rng_module, "_cpus", lambda: 4)
    before, later_block_failing = threading.active_count(), threading.Event()

    def work(rows, gen):
        if rows.start == 4:
            later_block_failing.wait(30)  # so that two blocks fail
            raise ArithmeticError("block at row 4")
        if rows.start == 8:
            later_block_failing.set()
            raise ArithmeticError("block at row 8")

    with pytest.raises(ArithmeticError, match="block at row 4"):
        RandomSource(1).map_blocks(40, 4, work)
    assert threading.active_count() == before


def test_every_block_runs_once_on_more_threads_than_cpus(monkeypatch):
    monkeypatch.setattr(rng_module, "_cpus", lambda: 8)
    ran, interval = [], sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = RandomSource(2).map_blocks(500, 1, lambda rows, gen: ran.append(rows.start) or rows.start)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(ran) == got == list(range(500))


def _sampled_results():
    """Hex bytes of the blocked kernels at sizes of several blocks."""
    return {
        "real key with an unused coordinate": sphere_moment_mc(SphereMomentKey((2, 1, 0)), 200_000, RandomSource(3)),
        "complex key": sphere_moment_mc(SphereMomentKey((2, 1, 0), field="complex"), 200_000, RandomSource(4)),
        "su2 k = 2": su2_character_moment_mc(2, 200_000, RandomSource(5)),
        "sn law": [mass for _, mass in sn_fixed_point_law(12, 1.0, RandomSource(6), 200_000).law.atoms],
        "real sphere points": sample_real_sphere(3, 40_000, RandomSource(7)),
    }


def _hex(results):
    return {
        name: hashlib.sha256(value.tobytes()).hexdigest() if isinstance(value, np.ndarray) else [v.hex() for v in value]
        for name, value in results.items()
    }


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs a CPU affinity call")
def test_sampled_kernels_give_the_same_bytes_on_one_cpu():
    code = (
        "import json, os, sys\n"
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "assert len(os.sched_getaffinity(0)) == 1\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import test_rng\n"
        "print(json.dumps(test_rng._hex(test_rng._sampled_results())))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(Path(__file__).parent)],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == _hex(_sampled_results())


def test_sampled_kernels_give_the_same_bytes_on_many_threads(monkeypatch):
    want = _hex(_sampled_results())
    monkeypatch.setattr(rng_module, "_cpus", lambda: 7)
    assert _hex(_sampled_results()) == want


def test_cpus_falls_back_to_the_cpu_count_without_an_affinity_call(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert rng_module._cpus() == (os.cpu_count() or 1)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert rng_module._cpus() == 1
