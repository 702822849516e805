"""The CSV byte contract: every command of a fixed matrix keeps the bytes in ``golden.json``.

The same digests hold at one and two worker threads; CI reruns Tier-1 under
one BLAS thread for the BLAS half of the contract.
"""

import json

import pytest

from write_golden import MANIFEST, digests


@pytest.mark.parametrize("threads", [1, 2])
def test_csv_bytes_match_the_golden_manifest(tmp_path, threads):
    expected = json.loads(MANIFEST.read_text())
    actual = digests(tmp_path, threads)
    moved = sorted(name for name in expected.keys() | actual.keys()
                   if expected.get(name) != actual.get(name))
    assert not moved, (f"CSV bytes moved at --threads {threads} (see tests/write_golden.py):\n"
                       + "\n".join(moved))
