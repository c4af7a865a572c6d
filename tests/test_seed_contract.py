"""Seeded outputs committed as literals (computed with numpy 2.4.6).

NEP 19 fixes numpy's bit generators, not the methods of its ``Generator``.
Each test below names what its values rest on, so that a failure after a
numpy upgrade says which stream moved: the raw Philox words, or one of
``uniform``, ``standard_normal``, ``standard_gamma``, ``standard_exponential``
and ``permuted``.
"""

import contextlib
import io
import math

import numpy as np
import pytest

from calclab import cli, prob, quad
from calclab.quad import SphereMomentKey
from calclab.rng import RandomSource


def _pinned(got, want, rests_on):
    assert got == want, f"the seeded values moved under numpy {np.__version__}; they rest on {rests_on}"


# the first four words of substreams 0, 1 and 2
_RAW_WORDS = {
    0: [
        [0x0399E5B222B82FA9, 0x41FD08C1F00F3BC5, 0x78B8824162EE4D04, 0x176747919E02739D],
        [0x063B1B622ABEBECB, 0x3F6D6847F2D508E4, 0xC8C33E141E8DFB08, 0x994FD04071834A32],
        [0xF2E19F873E0E83B7, 0x6B53B13346ADD10B, 0x0793C08366CC3B2B, 0x0D4F778C07192ED3],
    ],
    3: [
        [0x0B9854BFA842A0C6, 0x20A1251B452A1886, 0x35BA5DC493485596, 0xF631CCDF7201603B],
        [0xF043E53B2B08E128, 0x880F1D71234D6955, 0x2B8F9F59608D5D88, 0x5D38DC077B3BE762],
        [0x55CE5B68745358DB, 0x1891A5C598076AF6, 0x63A2391B641DFEB1, 0x1DCC6EBB106E7149],
    ],
    2**64 + 7: [
        [0x8DCB0012086D9AB7, 0x96A7CD24A92FCCF8, 0xE80E98E4A49305E8, 0x0198DAE99F8DF803],
        [0x50873FCE9F7CB05C, 0x559AACD922B72450, 0x5C06413F8DF117EA, 0xC7CEDBD2E45E8993],
        [0x8B11AAF9A41D8764, 0xB3CCE10AB4B77D6C, 0x95190B5A2157B565, 0xD7A7A1A42FDB0ECA],
    ],
}


@pytest.mark.parametrize("seed", sorted(_RAW_WORDS))
def test_raw_words_of_the_first_substreams(seed):
    words = RandomSource(seed).map_blocks(3, 1, lambda rows, gen: gen.bit_generator.random_raw(4).tolist())
    _pinned(words, _RAW_WORDS[seed], "Philox and the SeedSequence key (no Generator method)")


def test_sampled_fixed_point_counts():
    result = prob.sn_fixed_point_law(12, 1.0, RandomSource(3), 200_000)
    counts = [(int(k), round(p * 200_000)) for k, p in result.law.atoms]
    assert all(p == round(p * 200_000) / 200_000 for _, p in result.law.atoms)
    want = [(0, 73313), (1, 73506), (2, 36919), (3, 12436), (4, 3076), (5, 632), (6, 109), (7, 9)]
    _pinned(counts, want, "Generator.permuted")


_SPHERE_MOMENTS = [
    # three unused coordinates: their squares are one chi-square variate
    ((2, 0, 4, 0, 0), "real", 16_384, ("0x1.32fe2846507a3p-7", "0x1.39d6e56908fd5p-13"), "standard_normal, standard_gamma"),
    ((2, 0, 4, 0, 0), "real", 49_152, ("0x1.37e740b32a63cp-7", "0x1.6fa7dadb07956p-14"), "standard_normal, standard_gamma"),
    ((2, 1, 2), "real", 16_384, ("-0x1.7a71d7bed4448p-13", "0x1.dcc723d370f04p-13"), "standard_normal"),
    ((2, 1, 2), "real", 49_152, ("0x1.299c99ba03b35p-15", "0x1.157ccda61739bp-13"), "standard_normal"),
    ((1, 2, 0), "complex", 16_384, ("0x1.12388876834e6p-5", "0x1.2518768fee535p-12"), "standard_exponential"),
    ((1, 2, 0), "complex", 49_152, ("0x1.10a518283b847p-5", "0x1.502d79fdabff9p-13"), "standard_exponential"),
]


@pytest.mark.parametrize("exponents, field, samples, want, rests_on", _SPHERE_MOMENTS)
def test_sphere_moment_mc_bits(exponents, field, samples, want, rests_on):
    got = quad.sphere_moment_mc(SphereMomentKey(exponents, field), samples, RandomSource(7))
    _pinned(tuple(v.hex() for v in got), want, f"Generator.{rests_on}")


@pytest.mark.parametrize(
    "seed, want",
    [(1, ("0x1.34a4f97d7961ep+0", "0x1.25e6a29f50c49p-7")), (2, ("0x1.31fd014746185p+0", "0x1.2bdd5a19685c3p-7"))],
)
def test_monte_carlo_bits(seed, want):
    got = quad.monte_carlo(lambda x: math.exp(-x * x), -0.5, 1.0, 1000, RandomSource(seed))
    _pinned(tuple(v.hex() for v in got), want, "Generator.uniform")


_STDOUT = [
    (
        ["snchi", "--n", "12", "--seed", "3"],
        "fixed_points,probability\n0,0.36820999999999998\n1,0.36780499999999999\n2,0.18377299999999999\n"
        "3,0.061331999999999998\n4,0.015245999999999999\n5,0.0030790000000000001\n6,0.00049399999999999997\n"
        "7,5.3000000000000001e-05\n8,6.0000000000000002e-06\n9,1.9999999999999999e-06\n",
        "Generator.permuted",
    ),
    (
        ["integrate", "--method", "mc", "--fn", "gauss", "--a", "-0.5", "--b", "1", "--n", "1000", "--seed", "5"],
        "quantity,value,error\nintegral[gauss],1.1946985507310011,0.0090869759369237944\n",
        "Generator.uniform",
    ),
    (
        ["harmonic", "--fn", "log_r", "--samples", "4", "--seed", "11"],
        "x1,x2,laplacian\n1.0181153637441032,1.2279310228693299,1.2758674602930675e-08\n"
        "1.1338991144554484,1.3542702359432768,4.0327262987305268e-09\n"
        "1.3190284678383992,1.1725483732539137,8.312453093906047e-09\n"
        "1.3319937827307682,0.84170997825933758,1.0960372831547716e-08\n",
        "the raw Philox words (no Generator method)",
    ),
]


@pytest.mark.parametrize("argv, want, rests_on", _STDOUT, ids=[argv[0] for argv, _, _ in _STDOUT])
def test_seeded_command_output(argv, want, rests_on):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    _pinned(out.getvalue(), want, rests_on)
