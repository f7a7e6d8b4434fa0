import numpy as np
import pytest
from hypothesis import settings

from poolscreen.matrices import SensingMatrix

# every @given test draws the same examples on every run (and reads no
# example database), so its time and its outcome repeat; each test's own
# settings still set its number of examples
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


@pytest.fixture
def kts9():
    """Build the first c parallel classes of KTS(9), for 1 <= c <= 4.

    The design is the affine plane AG(2,3): point (x, y) is row 3x + y, each
    line is a column, and the three lines of one slope (infinite, 0, 1, 2)
    form one parallel class.
    """

    def build(c: int) -> SensingMatrix:
        lines = [[(b, y) for y in range(3)] for b in range(3)]
        lines += [[(x, (a * x + b) % 3) for x in range(3)] for a in range(3) for b in range(3)]
        entries = np.zeros((9, 3 * c), dtype=np.uint8)
        for j, line in enumerate(lines[: 3 * c]):
            for x, y in line:
                entries[3 * x + y, j] = 1
        return SensingMatrix(entries)

    return build
