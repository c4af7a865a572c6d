"""The one binding of numpy in calclab, made on first use.

Each module that computes with arrays takes ``from ._numpy import np``, and
gets a placeholder, so importing calclab never loads numpy.  The first
attribute read on the placeholder imports numpy and rebinds ``np`` to it,
here and in every calclab module that still holds the placeholder; from then
on ``np.<name>`` is an ordinary global lookup.
"""

import sys


class _Deferred:
    __slots__ = ()

    def __getattr__(self, name: str):
        global np
        import numpy

        np = numpy
        for key, module in list(sys.modules.items()):
            if key.partition(".")[0] == __package__ and vars(module).get("np") is self:
                module.np = numpy
        return getattr(numpy, name)


np = _Deferred()
