import hashlib
import importlib.util
from pathlib import Path

from test_golden_reports import GOLDEN

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "host_variance.py"
_SPEC = importlib.util.spec_from_file_location("host_variance", _PATH)
host_variance = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(host_variance)


def test_reports_keep_their_bytes_without_avx512_and_fma(tmp_path):
    # numpy without its AVX-512 loops and glibc without its FMA kernels
    # move the last bits of some exp, sin and cos values, and so some CSV
    # cells, but no certificate, check or result: every report.json keeps
    # its pinned digest. The variables are set in the child process only.
    summary = host_variance.run_scenarios(
        tmp_path, host_variance.ENVIRONMENTS["numpy+glibc"])
    assert summary.count(" exit 0  ok\n") == len(GOLDEN)
    for name, digest in GOLDEN.items():
        report = tmp_path / Path(name).stem / "report.json"
        assert hashlib.sha256(report.read_bytes()).hexdigest() == digest, name
