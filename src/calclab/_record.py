"""Immutable value records whose behaviour follows from ``__slots__``, and the one table of work caps with
its refusal, here because every module that caps a count imports this one."""

# Every count that sets the amount of work, by name: (cap, unit, seconds of one process at the cap on a 2-vCPU
# x86, why that passes about 5 s).  Each cap is at least 10x the largest count of any test, benchmark case, CI
# line or README example, except sequence --n, where a test prints 1700!.  Each is refused before the work starts.
# Beside each entry: where it is counted, and the slowest run timed at the cap.
_CAPS = {
    "grid points": (10**5, "points", 2.2, ""),  # stieltjes --x, wavefunction --grid, harmonic --samples (inv_r)
    "series terms": (10**7, "terms", 2.8, ""),  # constants --terms (e)
    "sequence terms": (3000, "terms", 5.3, ""),  # sequence --n (bell)
    "moment orders": (4000, "orders", 21.4, "ROADMAP item 11: law --name poisson --t 1e-300 sums each order exactly"),
    "binomial trials": (10**5, "trials", 0.8, ""),  # law --count (20 moments)
    "series levels": (10**5, "levels", 0.3, ""),  # hydrogen lines --upto
    "orbit steps": (10**5, "RK4 steps", 1.5, ""),  # kepler_integrate, orbit (91 MB)
    "lattice points": (10**5, "points", 0.8, ""),  # simulate_heat, simulate_wave, heat, wave (heat)
    "lattice steps": (32_000, "steps", 0.6, ""),  # the same (wave, 401 points)
    "lattice point-steps": (10**9, "point-steps", 3.0, ""),  # the same: points times steps (heat, 10^5 points)
    "subintervals": (10**6, "subintervals", 0.7, ""),  # riemann, trapezoid, simpson, integrate --n (trapezoid)
    "Gauss-Legendre nodes": (8192, "nodes", 28.6, "ROADMAP item 15: flux --order 8192's Newton rule is O(n^2)"),
    "samples": (10**7, "samples", 1.6, ""),  # monte_carlo, sphere_moment_mc, sn_fixed_point_law (integrate --method mc)
    "permutation N": (2**16, "points", 2.3, ""),  # sn_fixed_point_law's N, one block's entries
    "permutation entries": (12 * 10**7, "entries", 1.9, ""),  # sn_fixed_point_law's N times samples (N = 12)
}


def _refuse(count: int, name: str, what: str, detail: str = "") -> None:
    """ValueError naming what, the count written exactly, the unit of cap ``name``, detail and the cap,
    where count passes that cap."""
    cap, unit, _, _ = _CAPS[name]
    if count > cap:
        raise ValueError(f"{what} {count:,} {unit}{detail}, past the cap of {cap:,}")


class Record:
    """A frozen field tuple: a subclass lists its fields in ``__slots__`` and
    its ``__init__`` passes their values, in that order, to :meth:`_set`.

    repr (``Name(field=value, ...)``), == and hash follow the field tuple, as
    for a frozen data class; assigning or deleting raises AttributeError; and
    unpickling calls the constructor, so its checks run again.

    ``_set`` calls each field's slot-descriptor setter, taken once per class
    into ``_setters`` in field order.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def _set(self, *values) -> None:
        for setter, value in zip(self._setters, values):
            setter(self, value)

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__])
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        return self._fields() == other._fields() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields()
