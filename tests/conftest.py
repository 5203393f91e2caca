"""Every Hypothesis property draws the same examples on every run: the seed
comes from the test's own code, so a run's result does not depend on chance.
Each property keeps its own max_examples and deadline."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
