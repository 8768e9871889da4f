"""One hypothesis profile for the whole suite: every property test runs
derandomized, with no example database and no deadline, so a run is the
same on every machine.  A test sets only its ``max_examples``."""

from hypothesis import settings

settings.register_profile("ergolab", deadline=None, derandomize=True, database=None)
settings.load_profile("ergolab")
