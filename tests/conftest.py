import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# a failing draw also prints the blob that @reproduce_failure replays
settings.register_profile("frobsep", print_blob=True)
settings.load_profile("frobsep")

from frobsep import CurveSpec, compute_range


@pytest.fixture(scope="session")
def c11():
    return CurveSpec.elliptic("11a1", (0, -1, 1, -10, -20), 11)


@pytest.fixture(scope="session")
def c37():
    return CurveSpec.elliptic("37a1", (0, 0, 1, -1, 0), 37)


@pytest.fixture(scope="session")
def c32():
    # y^2 = x^3 + x
    return CurveSpec.elliptic("32a", (0, 0, 0, 1, 0), 32)


@pytest.fixture(scope="session")
def g2a():
    # y^2 = x^5 + 1, bad at {2, 5}
    return CurveSpec.hyperelliptic("g2a", [1, 0, 0, 0, 0, 1], [], 50)


@pytest.fixture(scope="session")
def g2b():
    # y^2 + (x^3 + x + 1) y = x^5 + x^4, bad at {2, 13}
    return CurveSpec.hyperelliptic("g2b", [0, 0, 0, 0, 1, 1], [1, 1, 0, 1], 52)


@pytest.fixture(scope="session")
def t11(c11):
    return compute_range(c11, 3000)


@pytest.fixture(scope="session")
def t37(c37):
    return compute_range(c37, 3000)


@pytest.fixture(scope="session")
def curve_json(tmp_path_factory, c11, c37):
    """Curve JSON files on disk for CLI-level tests."""
    root = tmp_path_factory.mktemp("curves")
    import json

    paths = {}
    for curve in (c11, c37):
        path = root / f"{curve.label}.json"
        path.write_text(json.dumps(curve.to_json()), encoding="utf-8")
        paths[curve.label] = path
    return paths
