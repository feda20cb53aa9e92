from hypothesis import settings

# One profile for every property test: the same examples on every run, no
# example database written to disk, and no per-example deadline, since the
# subset sweeps run for a variable while.
settings.register_profile("mforge", derandomize=True, database=None, deadline=None)
settings.load_profile("mforge")
