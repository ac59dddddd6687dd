"""Suite-wide test settings.

Hypothesis draws the same examples on every run (``derandomize``), and no
example fails for running slowly on a busy host (``deadline=None``).
"""

from hypothesis import settings

settings.register_profile("postsched", derandomize=True, deadline=None)
settings.load_profile("postsched")
