"""The suite's hypothesis profile: no per-example deadline.

Several property tests build exact enumerations or generated kernels per
example, and a loaded host can take longer than hypothesis's default 200 ms
on one of them; the example counts, not a timer, bound these tests.
"""

from hypothesis import settings

settings.register_profile("calclab", deadline=None)
settings.load_profile("calclab")
