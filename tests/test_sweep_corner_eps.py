import hashlib
import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "sweep_corner_eps.py"
_SPEC = importlib.util.spec_from_file_location("sweep_corner_eps", _PATH)
sweep_corner_eps = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(sweep_corner_eps)


def test_corner_eps_sweep_keeps_its_bytes(tmp_path):
    # Ten of the 14 rows fail a certificate, at eps values no shipped
    # report reaches, so this pins the glued charts and both certificates
    # on both sides of the valid band.
    path = sweep_corner_eps.sweep(tmp_path)
    assert path == tmp_path / "corner_eps_sweep.csv"
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "8a7e9573599131faba076fd5352ac6b5e77d18a84cdcbb158942b1e26e3894c2")
