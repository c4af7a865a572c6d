"""The one code generator of calclab: straight-line functions compiled from generated source.

Only kernels that workloads call in loops, and whose shape follows the
input, are generated, two kinds, each cached by its caller: ``hydrogen``'s
radial functions rho_nl per (n, l) (an unrolled Horner) and ``diffcalc``'s
derivatives kernels per dimension and differences (a stencil's points, the
calls of f and the differences).
The source a caller builds holds only float ``repr`` literals (which read back as
the same floats, signed zeros included), ints, local names, the globals it
passes and the text of its own error messages, never text a user supplied.  A kernel is a plain function: it cannot
be pickled, and ``inspect.getsource`` finds no source for it.
"""

from __future__ import annotations

from typing import Callable


def compile_function(module: str, qualname: str, doc: str, args: str, body: str, **names: object) -> Callable:
    """The function ``def <name>(args): body`` of ``module``, its name the last part of qualname.

    ``names`` are its globals besides ``__name__``.  Compiling costs about
    0.1 ms for a small body and grows with the length of the source.
    """
    name = qualname.rpartition(".")[2]
    namespace = {"__name__": module, **names}
    exec(compile(f"def {name}({args}):\n{body}", f"<{module}.{name}>", "exec"), namespace)
    fn = namespace[name]
    fn.__qualname__ = qualname
    fn.__doc__ = doc
    return fn
