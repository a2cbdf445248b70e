"""Shared test settings.

Property tests run a fixed, derandomized set of examples with no per-example
deadline: tier-1 must give the same verdict on every run, and a loaded
machine can slow any single call.
"""

try:
    from hypothesis import settings
except ImportError:  # the property-test modules skip themselves
    pass
else:
    settings.register_profile("trialopt", deadline=None, derandomize=True)
    settings.load_profile("trialopt")
