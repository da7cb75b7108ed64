import sys
from pathlib import Path

# Allow running the suite from a source checkout without installing.
ROOT = Path(__file__).resolve().parent.parent
for p in (ROOT / "src", ROOT / "tests"):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))


def pytest_configure(config):
    # `pytest -m "not pin"` runs the checks of answers alone; `-m pin` lists
    # what a change that moves an output must re-pin.
    config.addinivalue_line(
        "markers", "pin: compares with stored bytes, digests, counts or the "
        "current value of a result")
