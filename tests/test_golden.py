"""Golden CLI digests: the determinism contract as a checked gate.

tests/cli_digests.txt is the output of tools/cli_digests.py for the current
source. Floating-point results may differ on another numpy version, machine
or SIMD baseline, so on a platform whose header line differs from the file's
the test is skipped, naming the mismatch, rather than passed.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "cli_digests.txt"


def _invocation(line: str) -> str:
    return line.split()[-1].split("/")[0]


def test_cli_outputs_match_golden_digests():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "cli_digests.py")],
                          capture_output=True, text=True, check=True)
    header, *got = proc.stdout.splitlines()
    golden_header, *want = GOLDEN.read_text().splitlines()
    if header != golden_header:
        pytest.skip(f"golden digests were recorded on {golden_header!r}; "
                    f"this platform is {header!r}")
    moved = sorted({_invocation(line) for line in set(got) ^ set(want)})
    assert got == want, f"output bytes moved for: {', '.join(moved)}"
