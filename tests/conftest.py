"""Shared test settings: hypothesis runs derandomized, with no example database.

Hypothesis also caches the constants it finds in local modules.  That cache
goes to a temporary directory removed at exit, so a run leaves no .hypothesis/.
"""

import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("fhsmooth", derandomize=True, database=None, deadline=None)
settings.load_profile("fhsmooth")

_HOME = tempfile.TemporaryDirectory(prefix="fhsmooth-hypothesis-")
set_hypothesis_home_dir(_HOME.name)
