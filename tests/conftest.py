"""One hypothesis profile for every property test in this suite.

Each run draws the same examples (``derandomize``), so a tier-1 result
does not depend on the run, and no example is timed out (``deadline``):
a kernel call or a short training run can take longer than hypothesis's
default limit on a loaded host.  A test sets only its own
``max_examples``.
"""

from hypothesis import settings

settings.register_profile("frkan", derandomize=True, deadline=None)
settings.load_profile("frkan")
