from hypothesis import settings

# every @given test draws the same examples on every run (and reads no
# example database), so its time and its outcome repeat; each test's own
# settings still set its number of examples
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")
