"""Workload decks for the calclab benchmark: seeded inputs, calls and checks.

A workload is a deck of cases ``(kind, params)``.  ``params`` holds only
data generated from the seed (numbers, strings, numpy arrays), so a digest
of the deck shows that equal seeds give byte-identical inputs.  A deck is a
number of rounds; every round runs the same kinds in the same interleaved
order, so the mix is identical across seeds and only the inputs differ.

Every case calls the program and checks the output against an independent
route: a closed form, ``numpy.linalg`` as an oracle, or exact enumeration.
A wrong result raises ``CheckFailed``.  A documented defect of the program
(see ``KNOWN_DEFECTS``) raises ``KnownDefect``: the case still counts as
failed, but does not make the run incorrect.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from calclab import cli, combinat, diffcalc, dynamics, hydrogen, linalg, prob, quad
from calclab.rng import RandomSource

KNOWN_DEFECTS = {
    "roots-repeated": "linalg.all_roots raises 'did not converge' on every repeated root",
    "jacobi-stop": (
        "linalg.symmetric_eigen's stopping test cancels below sqrt(eps)*||A||: it stops "
        "with a reconstruction error above 1e-10*||A||, or never stops (100 sweeps, or "
        "the case deadline)"
    ),
}

# z-score for sampled checks.  A sampling-enum run makes about 200 sampled
# comparisons; at 4 sigma about one correct run in 70 would fail one.
Z = 5.0


class CheckFailed(Exception):
    """The program returned a wrong result."""


class KnownDefect(Exception):
    """The program showed one of the documented defects in KNOWN_DEFECTS."""

    def __init__(self, label: str, detail: str):
        super().__init__(f"{label}: {detail}")
        self.label = label


@dataclass
class Ctx:
    """What a case needs besides its params: the tracer, the run's counters,
    and for process cases the checkout root, environment and deadline."""

    tr: object
    root: Path | None = None
    env: dict | None = None
    deadline: float = 30.0
    counters: dict = field(default_factory=dict)
    processes: list = field(default_factory=list)  # argv of every process case run

    def add(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def maximum(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, value), value)


@dataclass(frozen=True)
class Kind:
    module: str  # the calclab module the case calls
    gen: Callable  # (rng, slot) -> params
    run: Callable  # (params, ctx) -> None, raises on failure
    weight: int  # cases of this kind per round
    deadline: float = 30.0  # seconds; a missed deadline fails the case
    deadline_defect: str | None = None  # known defect that shows as a missed deadline


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def interleave(weights: dict[str, int]) -> list[str]:
    """Smooth weighted round-robin: each kind spread evenly over the round."""
    total = sum(weights.values())
    current = dict.fromkeys(weights, 0)
    out = []
    for _ in range(total):
        for k, w in weights.items():
            current[k] += w
        best = max(weights, key=current.__getitem__)
        current[best] -= total
        out.append(best)
    return out


def digest(deck) -> str:
    h = hashlib.sha256()

    def feed(v):
        if isinstance(v, np.ndarray):
            h.update(f"nd{v.dtype}{v.shape}".encode())
            h.update(np.ascontiguousarray(v).tobytes())
        elif isinstance(v, dict):
            for k in sorted(v):
                h.update(f"k{k}".encode())
                feed(v[k])
        elif isinstance(v, (list, tuple)):
            h.update(f"l{len(v)}".encode())
            for x in v:
                feed(x)
        else:
            h.update(f"{type(v).__name__}{v!r}".encode())

    feed(deck)
    return h.hexdigest()


# ------------------------------------------------------------ closed forms


def catalan(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)


def bernoulli_exact(n: int) -> Fraction:
    """B_n with B_1 = -1/2, from the double-sum formula (no recurrence)."""
    total = Fraction(0)
    for k in range(n + 1):
        inner = sum((-1) ** j * math.comb(k, j) * j**n for j in range(k + 1))
        total += Fraction(inner, k + 1)
    return total


def bell_triangle(n: int) -> list[int]:
    out, row = [1], [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
        out.append(row[0])
    return out


def fixed_point_counts(N: int, m: int) -> dict[int, int]:
    """Permutations of N by fixed points among the first m, by inclusion-exclusion."""
    out = {}
    for k in range(m + 1):
        c = math.comb(m, k) * sum(
            (-1) ** j * math.comb(m - k, j) * math.factorial(N - k - j) for j in range(m - k + 1)
        )
        if c:
            out[k] = c
    return out


def sphere_moment_exact(ks: tuple[int, ...], complex_field: bool) -> float:
    """Normalized sphere moment by the Gamma-function route."""
    N, total = len(ks), sum(ks)
    if complex_field:
        num = math.lgamma(N) + sum(math.lgamma(k + 1) for k in ks)
        return math.exp(num - math.lgamma(N + total))
    if any(k % 2 for k in ks):
        return 0.0
    log = math.lgamma(N / 2) - math.lgamma((N + total) / 2)
    log += sum(math.lgamma((k + 1) / 2) - math.lgamma(0.5) for k in ks)
    return math.exp(log)


def double_factorial(n: int) -> int:
    return math.prod(range(n, 0, -2)) if n > 0 else 1


def laguerre(k: int, alpha: int, x: np.ndarray) -> np.ndarray:
    prev, cur = np.ones_like(x), 1.0 + alpha - x
    if k == 0:
        return prev
    for j in range(1, k):
        prev, cur = cur, ((2 * j + 1 + alpha - x) * cur - (j + alpha) * prev) / (j + 1)
    return cur


def radial_exact(n: int, l: int, r: np.ndarray) -> np.ndarray:
    """Normalized hydrogen radial factor (Bohr radius 1) by Laguerre recurrence."""
    p = 2.0 * r / n
    norm = math.sqrt((2.0 / n) ** 3 * math.factorial(n - l - 1) / (2.0 * n * math.factorial(n + l)))
    return norm * np.exp(-p / 2.0) * p**l * laguerre(n - l - 1, 2 * l + 1, p)


def equator_ylm_sq(l: int, m: int) -> float:
    """|Y_l^m(pi/2, t)|^2 from P_l^m(0) in closed form."""
    m = abs(m)
    if (l + m) % 2:
        return 0.0
    plm0 = double_factorial(l + m - 1) / double_factorial(l - m)
    return (2 * l + 1) / (4 * math.pi) * math.factorial(l - m) / math.factorial(l + m) * plm0**2


INTEGRANDS = {
    "square": (lambda x: x * x, lambda a, b: (b**3 - a**3) / 3.0, lambda a, b: 2.0),
    "cube": (lambda x: x**3, lambda a, b: (b**4 - a**4) / 4.0, lambda a, b: 6.0 * max(abs(a), abs(b))),
    "exp": (math.exp, lambda a, b: math.exp(b) - math.exp(a), lambda a, b: math.exp(b)),
    "sin": (math.sin, lambda a, b: math.cos(a) - math.cos(b), lambda a, b: 1.0),
    "cos": (math.cos, lambda a, b: math.sin(b) - math.sin(a), lambda a, b: 1.0),
    "gauss": (
        lambda x: math.exp(-x * x),
        lambda a, b: 0.5 * math.sqrt(math.pi) * (math.erf(b) - math.erf(a)),
        lambda a, b: 2.0,
    ),
    "abs_sin_120": (
        lambda x: abs(math.sin(120.0 * x)),
        lambda a, b: (_abs_sin_primitive(120.0 * b) - _abs_sin_primitive(120.0 * a)) / 120.0,
        None,
    ),
    "runge": (
        lambda x: 1.0 / (1.0 + 25.0 * x * x),
        lambda a, b: (math.atan(5.0 * b) - math.atan(5.0 * a)) / 5.0,
        lambda a, b: 50.0,
    ),
}


def _abs_sin_primitive(y: float) -> float:
    k = math.floor(y / math.pi)
    return 2.0 * k + 1.0 - math.cos(y - k * math.pi)


PROFILES = {
    "gaussian": lambda a, b: (lambda x: math.exp(-(((x - (a + b) / 2) / ((b - a) / 20.0)) ** 2) / 2.0)),
    "sine": lambda a, b: (lambda x: math.sin(2.0 * math.pi * (x - a) / (b - a))),
    "step": lambda a, b: (lambda x: 1.0 if (a + (b - a) / 3.0) <= x <= (a + 2.0 * (b - a) / 3.0) else 0.0),
}


LATTICE = {  # the CLI's default wave and heat grids: a, b, dx, cfl, speed or diffusivity
    "wave": (0.0, 20.0, 0.05, 0.5, 1.0),
    "heat": (0.0, 10.0, 0.05, 0.25, 1.0),
}


def lattice_dt(kind: str) -> float:
    _, _, dx, cfl, c = LATTICE[kind]
    return cfl * dx / c if kind == "wave" else cfl * dx * dx / c


def lattice_frames(kind: str, profile: str, t: float, frames: int) -> list[tuple[int, np.ndarray]]:
    """Exact frames of the CLI's wave (leapfrog) or heat (forward Euler) lattice.

    Diagonalizes the fixed-boundary second difference with numpy.linalg.eigh:
    leapfrog modes evolve as cos(n theta) and Euler modes as (1 + mu lambda)^n.
    Returns (steps, values) per frame.
    """
    a, b, dx, _, c = LATTICE[kind]
    dt = lattice_dt(kind)
    coef = (c * dt / dx) ** 2 if kind == "wave" else c * dt / (dx * dx)
    n = int(round((b - a) / dx))
    xs = np.linspace(a, b, n + 1)
    g = PROFILES[profile](a, b)
    u0 = np.array([g(x) for x in xs])
    m = n - 1
    D = np.diag(np.full(m, -2.0)) + np.diag(np.ones(m - 1), 1) + np.diag(np.ones(m - 1), -1)
    bvec = np.zeros(m)
    bvec[0], bvec[-1] = u0[0], u0[-1]
    w = np.linalg.solve(D, -bvec)
    mu, Q = np.linalg.eigh(D)
    c0 = Q.T @ (u0[1:-1] - w)
    out = []
    for tf in np.linspace(0.0, t, frames + 1)[1:]:
        steps = max(1, int(round(float(tf) / dt)))
        if kind == "wave":
            factor = np.cos(steps * np.arccos(1.0 + 0.5 * coef * mu))
        else:
            factor = (1.0 + coef * mu) ** steps
        vals = u0.copy()
        vals[1:-1] = w + Q @ (factor * c0)
        out.append((steps, vals))
    return out


def cubic_roots_trig(p: float, q: float) -> list[float]:
    """Real roots of t^3 + p t + q (three real roots), ascending."""
    r = 2.0 * math.sqrt(-p / 3.0)
    phi = math.acos(3.0 * q / (p * r))
    return sorted(r * math.cos((phi - 2.0 * math.pi * k) / 3.0) for k in range(3))


# ---------------------------------------------------------------- CLI checks
#
# Shared by the in-process CLI cases (numerics) and the process cases
# (cli-oneshot).  Each takes the case params and the CSV text printed.


def parse_table(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    require(len(rows) >= 1, "empty output")
    return rows[0], rows[1:]


def num(s: str) -> complex | float:
    s = s.strip()
    if s.endswith("i"):
        return complex(s[:-1].replace(" ", "") + "j")
    return float(s)


def close(got: float, want: float, rel: float, abs_: float = 0.0) -> bool:
    return abs(got - want) <= rel * abs(want) + abs_


def check_sequence(p, text):
    _, rows = parse_table(text)
    n, kind = p["n"], p["kind"]
    require(len(rows) == n + 1, "row count")
    if kind == "catalan":
        want = [Fraction(catalan(k)) for k in range(n + 1)]
    elif kind == "bell":
        want = [Fraction(v) for v in bell_triangle(n)]
    else:
        want = [bernoulli_exact(k) for k in range(n + 1)]
    for k, (idx, val) in enumerate(rows):
        require(int(idx) == k and Fraction(val) == want[k], f"{kind}[{k}] = {val}, want {want[k]}")


def check_constants(p, text):
    _, rows = parse_table(text)
    (name, value, bound), = rows
    exact = {"e": math.e, "pi": math.pi, "basel": math.pi**2 / 6}[p["which"]]
    value, bound = float(value), float(bound)
    require(bound >= 0 and abs(value - exact) <= bound + 4e-15, f"{name}: {value} not within {bound}")


def check_roots(p, text):
    _, rows = parse_table(text)
    got = sorted((num(r[1]) for r in rows), key=lambda z: (z.real, z.imag))
    want = sorted(p["roots"])
    require(len(got) == len(want), "root count")
    for g, w in zip(got, want):
        require(abs(g - w) <= 1e-6 * max(1.0, abs(w)), f"root {g} vs {w}")


def check_scalar(p, text):
    _, rows = parse_table(text)
    value = float(rows[0][1])
    require(close(value, p["want"], 1e-12, 1e-15), f"{value} vs {p['want']}")


def check_law(p, text):
    _, rows = parse_table(text)
    want = p["want"]
    require(len(rows) == len(want), "row count")
    for (k, m), w in zip(rows, want):
        require(close(float(m), w, 1e-6, 1e-6), f"moment {k}: {m} vs {w}")


def check_stieltjes(p, text):
    _, rows = parse_table(text)
    require(len(rows) == len(p["want"]), "row count")
    for (x, d), w in zip(rows, p["want"]):
        require(abs(float(d) - w) <= 1e-2, f"density at {x}: {d} vs {w}")


def check_snchi(p, text):
    _, rows = parse_table(text)
    N = p["n"]
    counts = fixed_point_counts(N, N)
    total = math.factorial(N)
    require(sorted(int(r[0]) for r in rows) == sorted(counts), "atom set")
    for k, prob_k in rows:
        require(close(float(prob_k), counts[int(k)] / total, 1e-12), f"P({k})")


def check_critical(p, text):
    _, rows = parse_table(text)
    table = dict(rows)
    require(table["classification"] == p["label"], f"{table['classification']} vs {p['label']}")
    eig = sorted(float(v) for k, v in rows if k.startswith("eigenvalue_"))
    for g, w in zip(eig, sorted(p["eig"])):
        require(abs(g - w) <= 1e-4 * max(1.0, abs(w)), f"eigenvalue {g} vs {w}")


def check_harmonic(p, text):
    _, rows = parse_table(text)
    require(len(rows) == p["samples"], "row count")
    for row in rows:
        xs = [float(v) for v in row[:-1]]
        require(all(0.4 <= x <= 1.4 for x in xs), "sample outside [0.4, 1.4]")
        require(abs(float(row[-1])) <= 1e-4, f"laplacian {row[-1]}")


def check_eig(p, text):
    _, rows = parse_table(text)
    A = p["a"]
    want = np.linalg.eigvalsh(A)[::-1]
    got = np.array([float(r[1]) for r in rows])
    require(len(got) == len(want), "eigenvalue count")
    require(np.abs(got - want).max() <= 1e-9 * np.linalg.norm(A), "eigenvalues vs eigvalsh")


def check_integrate(p, text):
    _, rows = parse_table(text)
    _, value, err = rows[0]
    _, exact, _ = INTEGRANDS[p["fn"]]
    want = exact(p["a"], p["b"])
    if p["method"] == "mc":
        require(abs(float(value) - want) <= Z * float(err) + 1e-12, f"mc {value} vs {want} (se {err})")
    else:
        tol = p["tol"]
        require(abs(float(value) - want) <= tol, f"trapezoid {value} vs {want}")


def check_flux(p, text):
    _, rows = parse_table(text)
    table = {k: float(v) for k, v in rows}
    q_enc = sum(q for q, pos in p["charges"] if math.dist(pos, (0, 0, 0)) < 1.0)
    want = 4.0 * math.pi * q_enc
    require(close(table["enclosed_charge"], q_enc, 1e-12, 1e-12), "enclosed charge")
    require(abs(table["flux"] - want) <= 1e-3 * abs(want), f"flux {table['flux']} vs {want}")


BALMER_AIR_NM = (656.279, 486.135, 434.047, 410.173)


def check_lines(p, text):
    _, rows = parse_table(text)
    require(len(rows) == p["upto"] - 2 + 1, "row count")
    lam = [float(r[2]) for r in rows]
    for got, want in zip(lam, BALMER_AIR_NM):
        require(abs(got - want) < 0.1, f"Balmer line {got} vs {want}")
    require(all(x > y for x, y in zip(lam, lam[1:])), "lines must decrease toward the limit")


def check_energy(p, text):
    _, rows = parse_table(text)
    n, joules, ev = rows[0]
    require(int(n) == p["n"], "n")
    require(abs(float(ev) * p["n"] ** 2 - (-13.591)) < 0.005, f"E_n n^2 = {float(ev) * p['n'] ** 2}")


def check_orbit(p, text):
    header, rows = parse_table(text)
    data = np.array(rows, dtype=float)
    require(len(data) == p["steps"] + 1, "row count")
    J = data[:, 3]
    require(np.abs(J - J[0]).max() <= 1e-6 * abs(J[0]), "angular momentum drift")
    require(data[:, 4].max() <= 1e-5, f"conic residual {data[:, 4].max():.2e}")


def check_lattice(p, text):
    header, rows = parse_table(text)
    data = np.array(rows, dtype=float)
    frames = lattice_frames(p["cmd"], p["profile"], p["t"], p["frames"])
    npts = len(frames[0][1])
    require(len(data) == len(frames) * npts, "row count")
    dt = lattice_dt(p["cmd"])
    for f, (steps, want) in enumerate(frames):
        block = data[f * npts : (f + 1) * npts]
        require(np.all(block[:, 0] == f), "frame index")
        require(abs(block[0, 1] - steps * dt) <= 1e-9 * max(1.0, steps * dt), "frame time")
        require(np.abs(block[:, 3] - want).max() <= 1e-8, f"frame {f} vs exact lattice")


def check_hwave(p, text):
    header, rows = parse_table(text)
    data = np.array(rows, dtype=float)
    r = data[:, 0]
    want = radial_exact(p["n"], p["l"], r) ** 2 * equator_ylm_sq(p["l"], p["m"])
    require(len(data) == p["steps"], "row count")
    require(np.all(np.abs(data[:, 5] - want) <= 1e-9 * np.abs(want) + 1e-300), "density vs closed form")


# ------------------------------------------------------------ CLI commands
#
# Seeded argv generators.  Each returns params with "argv", the "check"
# name, and what the check needs.


def _cmd(check: str, argv: list, **extra) -> dict:
    return {"check": check, "argv": [str(a) for a in argv], **extra}


def cmd_sequence(kind):
    def gen(rng, slot):
        n = int(rng.integers(8, 21)) if kind != "bernoulli" else int(rng.integers(8, 17))
        return _cmd("sequence", ["sequence", "--kind", kind, "--n", n], kind=kind, n=n)

    return gen


def cmd_constants(which):
    terms = {"e": (15, 21), "pi": (1000, 5001), "basel": (10_000, 100_001)}[which]

    def gen(rng, slot):
        t = int(rng.integers(*terms))
        return _cmd("constants", ["constants", "--which", which, "--terms", t], which=which)

    return gen


def gen_roots_cubic(rng, slot):
    roots = sorted(float(r) for r in rng.choice(np.arange(-10, 11), size=3, replace=False) / 2.0)
    coeffs = np.poly(roots)[::-1]
    return _cmd("roots", ["roots", f"--coeffs={','.join(repr(float(c)) for c in coeffs)}"], roots=roots)


def gen_roots_quartic(rng, slot):
    return _cmd("roots", ["roots", "--coeffs=1,-4,6,-4,1"], roots=[1.0] * 4, defect="roots-repeated")


def gen_sphere_volume(rng, slot):
    d = int(rng.integers(2, 13))
    want = math.pi ** (d / 2) / math.gamma(d / 2 + 1)
    return _cmd("scalar", ["sphere", "--what", "volume", "--dim", d], want=want)


def gen_sphere_moment(rng, slot):
    cplx = bool(rng.integers(0, 2))
    ks = tuple(int(k) for k in (rng.integers(0, 3, size=4) if cplx else 2 * rng.integers(0, 3, size=4)))
    argv = ["sphere", "--what", "moment", "--dim", 4, "--key", ",".join(map(str, ks))]
    if cplx:
        argv.append("--complex")
    return _cmd("scalar", argv, want=sphere_moment_exact(ks, cplx))


def cmd_law(name):
    def gen(rng, slot):
        if name == "semicircle":
            K = int(rng.integers(6, 11))
            want = [float(catalan(k // 2)) if k % 2 == 0 else 0.0 for k in range(K + 1)]
            return _cmd("law", ["law", "--name", name, "--moments", K], want=want)
        t = float(rng.choice([0.5, 1.0, 2.0]))
        if name == "gauss":
            want = [t ** (k / 2) * double_factorial(k - 1) if k % 2 == 0 else 0.0 for k in range(6)]
        else:
            want = [t**k * math.factorial(k) for k in range(6)]
        return _cmd("law", ["law", "--name", name, "--moments", 5, "--t", t], want=want)

    return gen


STIELTJES_DENSITY = {
    "semicircle": (lambda x: math.sqrt(4 - x * x) / (2 * math.pi), (-1.5, 1.5)),
    "mp": (lambda x: math.sqrt(4 / x - 1) / (2 * math.pi), (0.5, 3.5)),
    "arcsine": (lambda x: 1 / (math.pi * math.sqrt(x * (4 - x))), (0.5, 3.5)),
}


def gen_stieltjes(rng, slot):
    law = ("semicircle", "mp", "arcsine")[int(rng.integers(0, 3))]
    dens, (lo, hi) = STIELTJES_DENSITY[law]
    a = float(rng.uniform(lo, lo + 0.5))
    b = float(rng.uniform(hi - 0.5, hi))
    xs = np.linspace(a, b, 5)
    return _cmd(
        "stieltjes", ["stieltjes", "--law", law, f"--x={a!r}:{b!r}:5", "--t", 0.001],
        want=[dens(float(x)) for x in xs],
    )


def gen_snchi(rng, slot):
    n = int(rng.integers(5, 9))
    return _cmd("snchi", ["snchi", "--n", n], n=n)


CRITICAL_FIELDS = [
    ("bowl", "0,0", "minimum", [2.0, 2.0]),
    ("saddle", "0,0", "saddle", [2.0, -2.0]),
    ("xy", "0,0", "saddle", [1.0, -1.0]),
    ("cubic", "0", "degenerate", [0.0]),
    ("bowl", "0.5,-0.25", "not critical", [2.0, 2.0]),
]


def gen_critical_cmd(rng, slot):
    fn, x, label, eig = CRITICAL_FIELDS[int(rng.integers(0, len(CRITICAL_FIELDS)))]
    return _cmd("critical", ["critical", "--fn", fn, "--x", x], label=label, eig=eig)


def gen_harmonic(rng, slot):
    fn = ("re_z3", "log_r", "inv_r")[int(rng.integers(0, 3))]
    seed = int(rng.integers(0, 2**31))
    return _cmd("harmonic", ["harmonic", "--fn", fn, "--samples", 10, "--seed", seed], samples=10)


def gen_eig_cmd(rng, slot):
    A = rng.standard_normal((8, 8))
    A = 0.5 * (A + A.T)
    text = "".join(",".join(repr(float(v)) for v in row) + "\n" for row in A)
    return _cmd("eig", ["eig", "--matrix", "{file}"], a=A, file_text=text, defect="jacobi-stop")


def gen_trapezoid(rng, slot):
    fn = ("square", "cube", "exp", "sin", "cos", "gauss", "runge")[int(rng.integers(0, 7))]
    a = float(rng.uniform(-1.0, 0.0))
    b = a + float(rng.uniform(0.5, 2.0))
    n = 2000
    tol = 1.5 * (b - a) ** 3 / (12 * n * n) * INTEGRANDS[fn][2](a, b) + 1e-12
    argv = ["integrate", "--method", "trapezoid", "--fn", fn, "--a", repr(a), "--b", repr(b), "--n", n]
    return _cmd("integrate", argv, method="trapezoid", fn=fn, a=a, b=b, tol=tol)


def gen_mc_cmd(rng, slot):
    fn = tuple(INTEGRANDS)[int(rng.integers(0, len(INTEGRANDS)))]
    a = float(rng.uniform(-1.0, 0.0))
    b = a + float(rng.uniform(0.5, 2.0))
    seed = int(rng.integers(0, 2**31))
    argv = ["integrate", "--method", "mc", "--fn", fn, "--a", repr(a), "--b", repr(b), "--n", 100_000, "--seed", seed]
    return _cmd("integrate", argv, method="mc", fn=fn, a=a, b=b)


def seeded_charges(rng) -> list:
    charges = []
    sign = 1.0 if rng.integers(0, 2) else -1.0
    for radius_lo, radius_hi, same_sign in ((0.0, 0.5, True), (0.0, 0.5, True), (1.6, 2.2, False), (1.6, 2.2, False)):
        d = rng.standard_normal(3)
        d *= rng.uniform(radius_lo, radius_hi) / np.linalg.norm(d)
        q = float(rng.uniform(0.5, 2.0)) * (sign if same_sign else float(rng.choice([-1.0, 1.0])))
        charges.append((q, tuple(float(v) for v in d)))
    return charges


def gen_flux_cmd(rng, slot):
    charges = seeded_charges(rng)
    text = "q,x,y,z\n" + "".join(f"{q!r},{x!r},{y!r},{z!r}\n" for q, (x, y, z) in charges)
    return _cmd("flux", ["flux", "--charges", "{file}", "--center", "0,0,0", "--radius", 1], charges=charges, file_text=text)


def gen_lines(rng, slot):
    upto = int(rng.integers(6, 10))
    return _cmd("lines", ["hydrogen", "lines", "--series", "balmer", "--upto", upto], upto=upto)


def gen_energy(rng, slot):
    n = int(rng.integers(1, 7))
    return _cmd("energy", ["hydrogen", "energy", "--n", n], n=n)


def gen_orbit_cmd(rng, slot):
    r0 = float(rng.uniform(0.64, 0.70))
    argv = ["orbit", "--r0", repr(r0), "--vt0", 1.5, "--K", 1, "--T", 9.7, "--dt", 0.001]
    return _cmd("orbit", argv, steps=9700)


def gen_wave_cmd(rng, slot):
    profile = ("gaussian", "sine")[int(rng.integers(0, 2))]
    return _cmd("lattice", ["wave", "--profile", profile, "--t", 20, "--frames", 40], cmd="wave", profile=profile, t=20.0, frames=40)


def gen_heat_cmd(rng, slot):
    profile = ("step", "gaussian", "sine")[int(rng.integers(0, 3))]
    return _cmd("lattice", ["heat", "--profile", profile, "--t", 2, "--frames", 20], cmd="heat", profile=profile, t=2.0, frames=20)


def gen_hwave_cmd(rng, slot):
    n = int(rng.integers(2, 5))
    l = int(rng.integers(0, n))
    m = int(rng.choice([mm for mm in range(-l, l + 1) if (l + mm) % 2 == 0]))
    argv = ["hydrogen", "wavefunction", "--n", n, "--l", l, "--m", m, "--grid", "30,2000"]
    return _cmd("hwave", argv, n=n, l=l, m=m, steps=2000)


CLI_CHECKS = {
    "sequence": check_sequence,
    "constants": check_constants,
    "roots": check_roots,
    "scalar": check_scalar,
    "law": check_law,
    "stieltjes": check_stieltjes,
    "snchi": check_snchi,
    "critical": check_critical,
    "harmonic": check_harmonic,
    "eig": check_eig,
    "integrate": check_integrate,
    "flux": check_flux,
    "lines": check_lines,
    "energy": check_energy,
    "orbit": check_orbit,
    "lattice": check_lattice,
    "hwave": check_hwave,
}


def lattice_step_counts(p) -> tuple[int, int]:
    """(steps summed over all frames, steps to the last frame), from the inputs."""
    dt = lattice_dt(p["cmd"])
    steps = [max(1, int(round(float(t) / dt))) for t in np.linspace(0.0, p["t"], p["frames"] + 1)[1:]]
    return sum(steps), steps[-1]


# ------------------------------------------------------------- cli-oneshot


def run_cli_process(p, ctx) -> None:
    """Run one `python -m calclab.cli` process and check what it prints."""
    argv = [sys.executable, "-m", "calclab.cli", *p["resolved_argv"]]
    with ctx.tr.span("cli.process"):
        proc = subprocess.run(
            argv, cwd=ctx.root, env=ctx.env, capture_output=True, text=True, timeout=ctx.deadline
        )
    ctx.processes.append(p["resolved_argv"])
    if proc.returncode != 0:
        err = proc.stderr.strip()
        defect = p.get("defect")
        if proc.returncode == 2 and defect == "roots-repeated" and "did not converge" in err:
            raise KnownDefect(defect, err)
        if proc.returncode == 2 and defect == "jacobi-stop" and "Jacobi sweeps did not converge" in err:
            raise KnownDefect(defect, err)
        raise CheckFailed(f"exit {proc.returncode}: {err[-200:]}")
    CLI_CHECKS[p["check"]](p, proc.stdout)


CLI_ONESHOT = {
    "seq_catalan": cmd_sequence("catalan"),
    "seq_bernoulli": cmd_sequence("bernoulli"),
    "seq_bell": cmd_sequence("bell"),
    "const_e": cmd_constants("e"),
    "const_pi": cmd_constants("pi"),
    "const_basel": cmd_constants("basel"),
    "roots_cubic": gen_roots_cubic,
    "roots_quartic": gen_roots_quartic,
    "sphere_volume": gen_sphere_volume,
    "sphere_moment": gen_sphere_moment,
    "law_gauss": cmd_law("gauss"),
    "law_cgauss": cmd_law("cgauss"),
    "law_semicircle": cmd_law("semicircle"),
    "stieltjes": gen_stieltjes,
    "snchi": gen_snchi,
    "critical": gen_critical_cmd,
    "harmonic": gen_harmonic,
    "eig": gen_eig_cmd,
    "trapezoid": gen_trapezoid,
    "mc": gen_mc_cmd,
    "flux": gen_flux_cmd,
    "lines": gen_lines,
    "energy": gen_energy,
}


# ---------------------------------------------------------------- numerics


def gen_eig(n):
    def gen(rng, slot):
        A = rng.standard_normal((n, n))
        return {"a": 0.5 * (A + A.T)}

    return gen


def run_eig(p, ctx):
    A = p["a"]
    n = len(A)
    try:
        with ctx.tr.span("linalg.symmetric_eigen", f"n{n}"):
            U, d = linalg.symmetric_eigen(A)
    except ArithmeticError as exc:
        if "did not converge" in str(exc):
            raise KnownDefect("jacobi-stop", str(exc)) from None
        raise
    norm = float(np.linalg.norm(A))
    want = np.linalg.eigvalsh(A)[::-1]
    eig_err = float(np.abs(d - want).max()) / norm
    resid = float(np.abs(U @ np.diag(d) @ U.T - A).max()) / norm
    orth = float(np.abs(U.T @ U - np.eye(n)).max())
    ctx.maximum("linalg.symmetric_eigen.resid_max", resid)
    require(eig_err <= 1e-12, f"eigenvalues off eigvalsh by {eig_err:.1e}*||A||")
    if resid > 1e-10 or orth > 1e-10:
        if resid <= 1e-6 and orth <= 1e-6:
            raise KnownDefect("jacobi-stop", f"reconstruction error {resid:.1e}*||A||")
        raise CheckFailed(f"reconstruction {resid:.1e}, orthogonality {orth:.1e}")


def gen_roots(rng, slot):
    deg = int(rng.integers(8, 25))
    while True:
        roots = rng.uniform(0.5, 1.5, deg) * np.exp(2j * np.pi * rng.uniform(0, 1, deg))
        gaps = np.abs(roots[:, None] - roots[None, :]) + np.eye(deg)
        if gaps.min() >= 0.1:
            break
    return {"roots": roots, "coeffs": np.poly(roots)[::-1]}


def run_roots(p, ctx):
    with ctx.tr.span("linalg.all_roots", f"deg{len(p['roots'])}"):
        got = linalg.all_roots(linalg.Polynomial(list(p["coeffs"])), tol=1e-12)
    require(len(got) == len(p["roots"]), "root count")
    left = list(got)
    for w in p["roots"]:
        j = min(range(len(left)), key=lambda i: abs(left[i] - w))
        require(abs(left[j] - w) <= 1e-7, f"root {w} missed by {abs(left[j] - w):.1e}")
        left.pop(j)


def gen_roots_repeated(k):
    def gen(rng, slot):
        return {"k": k, "coeffs": [float(math.comb(k, j) * (-1) ** (k - j)) for j in range(k + 1)]}

    return gen


def run_roots_repeated(p, ctx):
    try:
        with ctx.tr.span("linalg.all_roots", f"rep{p['k']}"):
            got = linalg.all_roots(linalg.Polynomial(p["coeffs"]), tol=1e-12)
    except ArithmeticError as exc:
        if "did not converge" in str(exc):
            raise KnownDefect("roots-repeated", f"(x-1)^{p['k']}: {exc}") from None
        raise
    require(len(got) == p["k"] and all(abs(r - 1) <= 1e-6 for r in got), f"(x-1)^{p['k']} roots {got}")


LAW_MOMENTS = {
    "semicircle": lambda k: catalan(k // 2) if k % 2 == 0 else 0,
    "mp": catalan,
    "arcsine": lambda k: math.comb(2 * k, k),
    "marcsine": lambda k: math.comb(k, k // 2),
}


# Semicircle and MP moments cost the same and twice as many run as the other
# two laws, so the 90th latency percentile of numerics falls inside their
# cluster instead of on a gap between clusters.
MOMENT_LAWS = ("semicircle", "mp", "semicircle", "mp", "arcsine", "marcsine")


def gen_moments(rng, slot):
    return {"law": MOMENT_LAWS[slot % len(MOMENT_LAWS)], "order": 10}


def run_moments(p, ctx):
    with ctx.tr.span("prob.moments"):
        got = prob.moments(prob.BUILTIN_CONTINUOUS_LAWS[p["law"]](), p["order"])
    ctx.add("prob.moments.density_evals", (p["order"] + 1) * 8000)
    for k, m in enumerate(got):
        want = LAW_MOMENTS[p["law"]](k)
        require(close(m, want, 1e-6, 1e-6), f"{p['law']} moment {k}: {m} vs {want}")


def gen_kepler(rng, slot):
    return {"e": float(rng.uniform(0.2, 0.6)), "steps": 2000}


def run_kepler(p, ctx):
    e = p["e"]
    s0 = dynamics.OrbitState(1.0 / (1.0 + e), 0.0, 0.0, 1.0 + e, 1.0)
    T = 2.0 * math.pi * (1.0 / (1.0 - e * e)) ** 1.5
    with ctx.tr.span("dynamics.kepler_integrate"):
        traj = dynamics.kepler_integrate(s0, T, T / p["steps"])
    with ctx.tr.span("dynamics.conic_fit"):
        c, eps, delta, residual = dynamics.conic_fit(traj)
    ctx.add("dynamics.kepler_integrate.steps", len(traj) - 1)
    J = np.array([s.x * s.vy - s.y * s.vx for s in traj])
    require(len(traj) == p["steps"] + 1, "step count")
    require(np.abs(J - J[0]).max() <= 1e-6 * abs(J[0]), "angular momentum drift")
    require(residual <= 1e-5, f"conic residual {residual:.1e}")
    require(abs(c - 1.0) <= 1e-5 and abs(eps - e) <= 1e-5 and abs(delta) <= 1e-5, "fitted conic")


def gen_flux(rng, slot):
    return {"charges": seeded_charges(rng)}


def run_flux(p, ctx):
    with ctx.tr.span("dynamics.flux_through_sphere"):
        cfg = dynamics.ChargeConfig(charges=tuple(p["charges"]))
        flux = dynamics.flux_through_sphere(cfg, (0.0, 0.0, 0.0), 1.0, order=64)
    q_enc = sum(q for q, pos in p["charges"] if math.dist(pos, (0, 0, 0)) < 1.0)
    require(abs(flux - 4 * math.pi * q_enc) <= 1e-3 * abs(4 * math.pi * q_enc), "Gauss law")


def gen_green(rng, slot):
    return {
        "n": (64, 96)[slot % 2],
        "coef": [float(v) for v in rng.uniform(0.5, 2.0, 3)],
        "radius": float(rng.uniform(0.5, 1.5)),
        "center": [float(v) for v in rng.uniform(-1.0, 1.0, 2)],
    }


def run_green(p, ctx):
    al, be, ga = p["coef"]
    R, (cx, cy) = p["radius"], p["center"]
    P = lambda x, y: -al * y - ga * y**3 / 3.0
    Q = lambda x, y: be * x + ga * x**3 / 3.0
    with ctx.tr.span("dynamics.green_check"):
        lhs, rhs, gap = dynamics.green_check(P, Q, dynamics.disk_map(R, (cx, cy)), n=p["n"])
    want = (al + be) * math.pi * R**2 + ga * (math.pi * R**4 / 2 + math.pi * R**2 * (cx * cx + cy * cy))
    tol = 1e-4 * max(1.0, abs(want))
    require(abs(lhs - want) <= tol and abs(rhs - want) <= tol and gap <= tol, f"green {lhs} {rhs} vs {want}")


def gen_stokes(rng, slot):
    return {
        "n": (48, 64)[slot % 2],
        "coef": [float(v) for v in rng.uniform(0.5, 2.0, 3)],
        "radius": float(rng.uniform(0.5, 1.5)),
    }


def run_stokes(p, ctx):
    al, be, ga = p["coef"]
    R = p["radius"]
    F = lambda q: (-al * q[1] + ga * q[2] ** 2, be * q[0], q[0] * q[1])
    disk = (lambda u, v: (R * u * math.cos(v), R * u * math.sin(v), 0.0), (0.0, 1.0), (0.0, 2 * math.pi))
    with ctx.tr.span("dynamics.stokes_check"):
        lhs, rhs, gap = dynamics.stokes_check(F, disk, n=p["n"])
    want = (al + be) * math.pi * R**2
    tol = 1e-4 * max(1.0, abs(want))
    require(abs(lhs - want) <= tol and abs(rhs - want) <= tol and gap <= tol, f"stokes {lhs} {rhs} vs {want}")


def gen_divergence(rng, slot):
    return {"m": rng.uniform(-1.0, 1.0, (3, 3)), "gamma": float(rng.uniform(0.5, 1.5))}


def run_divergence(p, ctx):
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = p["m"].tolist()
    ga = p["gamma"]

    def F(q):
        x, y, z = q.tolist()
        return (
            m00 * x + m01 * y + m02 * z + ga * x * x * x,
            m10 * x + m11 * y + m12 * z + ga * y * y * y,
            m20 * x + m21 * y + m22 * z + ga * z * z * z,
        )

    with ctx.tr.span("dynamics.divergence_check"):
        lhs, rhs, gap = dynamics.divergence_check(F)
    want = (m00 + m11 + m22) * 4 * math.pi / 3 + ga * 12 * math.pi / 5
    tol = 1e-4 * max(1.0, abs(want))
    require(abs(lhs - want) <= tol and abs(rhs - want) <= tol and gap <= tol, f"divergence {lhs} {rhs} vs {want}")


ST_ROOTS = cubic_roots_trig(-8.0, 1.25)  # critical points of t^4 - 16 t^2 + 5 t


def gen_critical(rng, slot):
    Q, R = np.linalg.qr(rng.standard_normal((3, 3)))
    return {"q": Q * np.sign(np.diag(R)), "c": rng.uniform(-1.0, 1.0, 3), "a": rng.uniform(0.5, 2.0, 3)}


def run_critical(p, ctx):
    """Census of the 27 critical points of a rotated Styblinski-Tang field."""
    Q, c, a = p["q"], p["c"], p["a"]
    (q00, q01, q02), (q10, q11, q12), (q20, q21, q22) = Q.tolist()
    c0, c1, c2 = c.tolist()
    a0, a1, a2 = a.tolist()

    def f(v):
        d0, d1, d2 = v[0] - c0, v[1] - c1, v[2] - c2
        w0 = q00 * d0 + q10 * d1 + q20 * d2
        w1 = q01 * d0 + q11 * d1 + q21 * d2
        w2 = q02 * d0 + q12 * d1 + q22 * d2
        return (
            a0 * (w0**4 - 16 * w0 * w0 + 5 * w0)
            + a1 * (w1**4 - 16 * w1 * w1 + 5 * w1)
            + a2 * (w2**4 - 16 * w2 * w2 + 5 * w2)
        )

    for i in range(27):
        w = np.array([ST_ROOTS[i % 3], ST_ROOTS[(i // 3) % 3], ST_ROOTS[i // 9]])
        curv = a * (12 * w * w - 32)
        neg = int((curv < 0).sum())
        label = "minimum" if neg == 0 else "maximum" if neg == 3 else "saddle"
        try:
            with ctx.tr.span("diffcalc.classify_critical"):
                report = diffcalc.classify_critical(f, c + Q @ w)
        except ArithmeticError as exc:
            if "Jacobi sweeps did not converge" in str(exc):
                raise KnownDefect("jacobi-stop", f"classify_critical: {exc}") from None
            raise
        require(report.classification == label, f"point {i}: {report.classification} vs {label}")
        got = np.sort(report.eigenvalues)
        require(np.abs(got - np.sort(curv)).max() <= 1e-3 * np.abs(curv).max(), f"point {i}: Hessian eigenvalues")


def gen_hydrogen(rng, slot):
    n = int(rng.integers(3, 11))
    return {"n": n, "l": int(rng.integers(0, n)), "nodes": 40_000}


def run_hydrogen(p, ctx):
    n, l, nodes = p["n"], p["l"], p["nodes"]
    r = np.linspace(0.0, 40.0 * n + 4.0 * n * n, nodes + 1)
    rs = r.tolist()
    with ctx.tr.span("hydrogen.radial_wavefunction"):
        rho = hydrogen.radial_wavefunction(n, l)
        vals = np.array([rho(x) for x in rs])
    require(np.abs(vals - radial_exact(n, l, r)).max() <= 1e-9 * np.abs(vals).max(), "rho vs Laguerre recurrence")
    y = vals * vals * r * r
    h = r[1] - r[0]
    total = (y[0] + y[-1] + 4 * y[1:-1:2].sum() + 2 * y[2:-1:2].sum()) * h / 3
    require(abs(total - 1.0) <= 1e-7, f"normalization {total}")


def run_cli_inprocess(p, ctx):
    with ctx.tr.span("cli.run"):
        table = cli.run(p["argv"])
    sink = io.StringIO()
    with ctx.tr.span("cli.emit"):
        cli.emit(table, "csv", sink)
    text = sink.getvalue()
    ctx.add("cli.emit_rows", len(table.rows))
    ctx.add("cli.emit_bytes", len(text))
    if p["check"] == "lattice":
        total, last = lattice_step_counts(p)
        ctx.add("dynamics.lattice_steps_total", total)
        ctx.add("dynamics.lattice_steps_last", last)
    CLI_CHECKS[p["check"]](p, text)


# ------------------------------------------------------------ sampling-enum


def source(p) -> RandomSource:
    return RandomSource(p["source"])


def gen_snlaw(rng, slot):
    return {"n": 12, "samples": 200_000}


def run_snlaw(p, ctx):
    N, S = p["n"], p["samples"]
    with ctx.tr.span("prob.sn_fixed_point_law"):
        res = prob.sn_fixed_point_law(N, 1.0, rng=source(p), samples=S)
    ctx.add("prob.sn_fixed_point_law.samples", res.samples)
    require(not res.exact and res.samples == S, "sampling mode and sample count")
    counts = fixed_point_counts(N, N)
    got = dict(res.law.atoms)
    for k in range(N + 1):
        mu = counts.get(k, 0) / math.factorial(N) * S
        seen = got.get(float(k), 0.0) * S
        require(abs(seen - mu) <= Z * math.sqrt(mu) + Z * Z / 2, f"{k} fixed points: {seen:.0f} vs {mu:.1f}")


def gen_mc(rng, slot):
    a = float(rng.uniform(-1.0, 0.0))
    return {"fn": tuple(INTEGRANDS)[slot % len(INTEGRANDS)], "a": a, "b": a + float(rng.uniform(0.5, 2.0)), "n": 100_000}


def run_mc(p, ctx):
    f, exact, _ = INTEGRANDS[p["fn"]]
    with ctx.tr.span("quad.monte_carlo"):
        est, se = quad.monte_carlo(f, p["a"], p["b"], p["n"], source(p))
    want = exact(p["a"], p["b"])
    require(abs(est - want) <= Z * se + 1e-12, f"{p['fn']}: {est} vs {want} (se {se:.1e})")


def _criterion06_keys() -> list[list[tuple[tuple[int, ...], bool]]]:
    """The criterion-06 sphere-moment keys, in one class per (dimension, field)."""
    import itertools

    classes = []
    for N, total, cplx in [(N, 6, False) for N in range(1, 6)] + [(N, 3, True) for N in range(1, 5)]:
        found = set()
        for combo in itertools.combinations_with_replacement(range(total + 1), N):
            if sum(combo) <= total:
                found.add(tuple(sorted(combo, reverse=True)))
        classes.append([(k, cplx) for k in sorted(found)])
    return classes


SPHERE_KEYS = _criterion06_keys()


def gen_spheremc(rng, slot):
    # the slot fixes the class, so every round samples the same dimensions
    keys = SPHERE_KEYS[slot % len(SPHERE_KEYS)]
    ks, cplx = keys[int(rng.integers(0, len(keys)))]
    return {"key": ks, "complex": cplx, "samples": 200_000}


def run_spheremc(p, ctx):
    with ctx.tr.span("quad.sphere_moment_mc"):
        key = quad.SphereMomentKey(tuple(p["key"]), field="complex" if p["complex"] else "real")
        est, se = quad.sphere_moment_mc(key, p["samples"], source(p))
    want = sphere_moment_exact(tuple(p["key"]), p["complex"])
    if se > 0:
        require(abs(est - want) <= Z * se, f"{p['key']}: {est} vs {want} (se {se:.1e})")
    else:
        require(abs(est - want) <= 1e-12, f"{p['key']}: {est} vs {want}")


def gen_su2(rng, slot):
    return {"k": 1 + slot % 3, "samples": 200_000}


def run_su2(p, ctx):
    with ctx.tr.span("prob.su2_character_moment_mc"):
        est, se = prob.su2_character_moment_mc(p["k"], p["samples"], source(p))
    require(abs(est - catalan(p["k"])) <= Z * se, f"k={p['k']}: {est} (se {se:.1e})")


def gen_cgm(rng, slot):
    return {"p": 4 + slot % 4, "t": float(rng.uniform(0.5, 2.0))}


def run_cgm(p, ctx):
    k, t = p["p"], p["t"]
    with ctx.tr.span("prob.complex_gaussian_moment", f"p{k}"):
        got = prob.complex_gaussian_moment(t, "ob" * k)
    ctx.add("combinat.pairings_useful", math.factorial(k))
    ctx.add("combinat.pairings_enumerated", double_factorial(2 * k - 1))
    require(close(got, t**k * math.factorial(k), 1e-12), f"(ob)^{k}: {got}")


def gen_wick(rng, slot):
    p = (4, 5, 6)[slot % 3]
    balanced = slot % 4 != 3
    counts = rng.multinomial(p, [1 / 3] * 3)
    o = [i for i, c in enumerate(counts) for _ in range(c)]
    b = list(o)
    if not balanced:
        b[-1] = (b[-1] + 1) % 3
    factors = [(int(i), "o") for i in o] + [(int(i), "b") for i in b]
    order = rng.permutation(len(factors))
    return {"factors": [factors[i] for i in order], "t": float(rng.uniform(0.5, 2.0))}


def run_wick(p, ctx):
    factors, t = p["factors"], p["t"]
    with ctx.tr.span("prob.wick"):
        got = prob.wick(t, factors)
    o = [i for i, c in factors if c == "o"]
    b = [i for i, c in factors if c == "b"]
    useful = math.prod(math.factorial(o.count(i)) for i in set(o)) if sorted(o) == sorted(b) else 0
    ctx.add("combinat.pairings_useful", useful)
    ctx.add("combinat.pairings_enumerated", double_factorial(len(factors) - 1))
    require(close(got, t ** (len(factors) // 2) * useful, 1e-12), f"wick {got} vs {useful}")


def gen_sncounts(rng, slot):
    return {"n": (8, 9)[slot % 2], "t": float(rng.choice([0.5, 0.75, 1.0]))}


def run_sncounts(p, ctx):
    N, t = p["n"], p["t"]
    with ctx.tr.span("prob.sn_fixed_point_counts"):
        got = prob.sn_fixed_point_counts(N, t)
    require(got == fixed_point_counts(N, int(t * N)), f"S_{N} counts at t={t}")


def gen_matchings(rng, slot):
    p = (6, 7, 6)[slot % 3]
    balanced = slot % 3 != 2
    word = ["o"] * p + ["b"] * p
    if not balanced:
        word[0] = "b"
    return {"word": "".join(word[i] for i in rng.permutation(2 * p))}


def run_matchings(p, ctx):
    word = p["word"]
    with ctx.tr.span("combinat.count_matching_pairings", f"len{len(word)}"):
        got = combinat.count_matching_pairings(word)
    want = math.factorial(len(word) // 2) if word.count("o") == word.count("b") else 0
    ctx.add("combinat.pairings_useful", want)
    ctx.add("combinat.pairings_enumerated", double_factorial(len(word) - 1))
    require(got == want, f"{word}: {got} vs {want}")


# ---------------------------------------------------------------- workloads


@dataclass(frozen=True)
class Workload:
    name: str
    kinds: dict[str, Kind]
    round_s: float  # seconds one round takes on the reference host (see run.py)
    modules: tuple[str, ...]  # modules this workload is meant to exercise
    sampled: bool = False

    @property
    def round_size(self) -> int:
        return sum(k.weight for k in self.kinds.values())

    def build(self, seed: int, rounds: int) -> list[tuple[str, dict]]:
        """The seeded deck: `rounds` rounds of the interleaved kind order."""
        rng = np.random.default_rng(seed)
        order = interleave({k: v.weight for k, v in self.kinds.items()})
        deck = []
        for _ in range(rounds):
            slots: dict[str, int] = {}
            for kind in order:
                slot = slots.get(kind, 0)
                slots[kind] = slot + 1
                params = self.kinds[kind].gen(rng, slot)
                if self.sampled:
                    params["source"] = (seed * 0x9E3779B97F4A7C15 + len(deck) + 1) % 2**64
                deck.append((kind, params))
        return deck


def _cli_kinds() -> dict[str, Kind]:
    return {name: Kind("cli", gen, run_cli_process, 1) for name, gen in CLI_ONESHOT.items()}


WORKLOADS = {
    "cli-oneshot": Workload("cli-oneshot", _cli_kinds(), round_s=5.5, modules=("cli",)),
    "numerics": Workload(
        "numerics",
        {
            "eig16": Kind("linalg", gen_eig(16), run_eig, 3, 0.2, "jacobi-stop"),
            "eig32": Kind("linalg", gen_eig(32), run_eig, 3, 0.25, "jacobi-stop"),
            "eig48": Kind("linalg", gen_eig(48), run_eig, 5, 0.75, "jacobi-stop"),
            "roots": Kind("linalg", gen_roots, run_roots, 8),
            "roots_rep3": Kind("linalg", gen_roots_repeated(3), run_roots_repeated, 1),
            "roots_rep4": Kind("linalg", gen_roots_repeated(4), run_roots_repeated, 1),
            "moments": Kind("prob", gen_moments, run_moments, 12),
            "kepler": Kind("dynamics", gen_kepler, run_kepler, 2),
            "flux": Kind("dynamics", gen_flux, run_flux, 1),
            "green": Kind("dynamics", gen_green, run_green, 1),
            "stokes": Kind("dynamics", gen_stokes, run_stokes, 1),
            "divergence": Kind("dynamics", gen_divergence, run_divergence, 1),
            "critical": Kind("diffcalc", gen_critical, run_critical, 88),
            "hydrogen": Kind("hydrogen", gen_hydrogen, run_hydrogen, 30),
            "cli_orbit": Kind("cli", gen_orbit_cmd, run_cli_inprocess, 1),
            "cli_wave": Kind("cli", gen_wave_cmd, run_cli_inprocess, 1),
            "cli_heat": Kind("cli", gen_heat_cmd, run_cli_inprocess, 1),
            "cli_hwave": Kind("cli", gen_hwave_cmd, run_cli_inprocess, 1),
        },
        round_s=9.0,
        modules=("cli", "linalg", "prob", "diffcalc", "dynamics", "hydrogen"),
    ),
    "sampling-enum": Workload(
        "sampling-enum",
        {
            "snlaw": Kind("prob", gen_snlaw, run_snlaw, 1),
            "mc": Kind("quad", gen_mc, run_mc, 8),
            "spheremc": Kind("quad", gen_spheremc, run_spheremc, 18),
            "su2": Kind("prob", gen_su2, run_su2, 3),
            "cgm": Kind("prob", gen_cgm, run_cgm, 4),
            "wick": Kind("prob", gen_wick, run_wick, 6),
            "sncounts": Kind("prob", gen_sncounts, run_sncounts, 2),
            "matchings": Kind("combinat", gen_matchings, run_matchings, 3),
        },
        round_s=5.0,
        modules=("prob", "quad", "combinat"),
        sampled=True,
    ),
}


def write_inputs(deck, workdir: Path) -> None:
    """Write the files that CLI cases read, and point their argv at them."""
    workdir.mkdir(parents=True, exist_ok=True)
    for i, (_, p) in enumerate(deck):
        if "file_text" in p:
            path = workdir / f"case{i}.csv"
            path.write_text(p["file_text"])
            p["resolved_argv"] = [a.replace("{file}", str(path)) for a in p["argv"]]
        elif "argv" in p:
            p["resolved_argv"] = list(p["argv"])


def check_sampled_reproducible(seed: int) -> list[str]:
    """Call every sampled function twice with one RandomSource; list mismatches."""
    rs = RandomSource(seed)
    key = quad.SphereMomentKey((2, 0, 1))
    calls = {
        "quad.monte_carlo": lambda: quad.monte_carlo(math.sin, 0.0, 1.0, 2000, rs),
        "quad.sample_real_sphere": lambda: quad.sample_real_sphere(3, 1000, rs).tobytes(),
        "quad.sample_complex_sphere": lambda: quad.sample_complex_sphere(3, 1000, rs).tobytes(),
        "quad.sphere_moment_mc": lambda: quad.sphere_moment_mc(key, 1000, rs),
        "prob.su2_character_moment_mc": lambda: prob.su2_character_moment_mc(2, 1000, rs),
        "prob.sn_fixed_point_law": lambda: prob.sn_fixed_point_law(12, 1.0, rng=rs, samples=500).law.atoms,
    }
    return [name for name, call in calls.items() if call() != call()]


def warm_up(workload: str) -> None:
    """One small call per module function the workload times, so lazy set-up is done."""
    if workload == "numerics":
        linalg.symmetric_eigen(np.diag([3.0, 1.0, 2.0]))
        linalg.all_roots(linalg.Polynomial([-6, 11, -6, 1]))
        prob.moments(prob.semicircle_law(), 2, nodes=64)
        dynamics.conic_fit(dynamics.kepler_integrate(dynamics.OrbitState(1.0, 0.0, 0.0, 1.0, 1.0), 0.1, 0.01))
        dynamics.flux_through_sphere(dynamics.ChargeConfig(charges=((1.0, (0.0, 0.0, 0.0)),)), (0, 0, 0), 1.0, order=4)
        dynamics.green_check(lambda x, y: -y, lambda x, y: x, dynamics.disk_map(), n=4)
        dynamics.stokes_check(lambda q: (-q[1], q[0], 0.0), (lambda u, v: (u, v, 0.0), (0.0, 1.0), (0.0, 1.0)), n=4)
        dynamics.divergence_check(lambda q: (q[0], q[1], q[2]), order=4, radial_nodes=4)
        diffcalc.classify_critical(lambda v: float(v @ v), [0.0, 0.0])
        hydrogen.radial_wavefunction(2, 1)(1.0)
        cli.emit(cli.run(["sequence", "--kind", "catalan", "--n", "3"]), "csv", io.StringIO())
    elif workload == "sampling-enum":
        prob.complex_gaussian_moment(1.0, "ob")
        prob.wick(1.0, [(0, "o"), (0, "b")])
        prob.sn_fixed_point_counts(3)
        combinat.count_matching_pairings("ob")
