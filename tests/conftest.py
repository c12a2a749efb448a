import functools
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from npcount import PrecisionContext, SlopeRange, bundled_zeros, count_series, refine_catalog
from npcount import special

BUNDLED = Path(special.__file__).parent / "data" / "zeta_zeros.txt"


def bundled_table(places=None):
    """The bundled table's lines, each t truncated to that many decimal places if given."""
    lines = [line for line in BUNDLED.read_text("utf-8").splitlines() if not line.startswith("#")]
    return [line if places is None else line[:line.index(".") + 1 + places] for line in lines]


@pytest.fixture(autouse=True)
def fresh_pass_cache():
    """Each test starts with no cached ζ/ζ′ pass, so pass counts see only its own calls."""
    special._pass_cache.clear()


@pytest.fixture(scope="session")
def ctx():
    return PrecisionContext(192)


@pytest.fixture(scope="session")
def catalog():
    return bundled_zeros()


@pytest.fixture(scope="session")
def zeros25(catalog, ctx):
    return refine_catalog(catalog[:25], ctx)


@pytest.fixture(scope="session")
def first25():
    """bits -> the first 25 bundled zeros refined at that precision, each computed once."""
    @functools.lru_cache(maxsize=None)
    def refined(bits):
        return refine_catalog(bundled_zeros()[:25], PrecisionContext(bits))
    return refined


@pytest.fixture(scope="session")
def zero_file_20(tmp_path_factory):
    """A --zero-file with the bundled zeros truncated to 20 decimal places."""
    path = tmp_path_factory.mktemp("zeros") / "zeros20.txt"
    path.write_text("\n".join(bundled_table(20)) + "\n")
    return path


@pytest.fixture(scope="session")
def series_half_10k():
    """Exact [0,1) counts up to n = 10^4 (shared: this takes a few seconds)."""
    return count_series(SlopeRange.HALF_OPEN_01, 10_000)


@pytest.fixture(scope="session")
def series_halfrange_10k():
    """Exact [0,1/2] counts up to n = 10^4."""
    return count_series(SlopeRange.CLOSED_0_HALF, 10_000)
