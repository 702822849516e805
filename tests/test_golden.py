"""The CSV byte contract: every command of a fixed matrix keeps the bytes in ``golden.json``."""

import json

from write_golden import MANIFEST, digests


def test_csv_bytes_match_the_golden_manifest(tmp_path):
    expected = json.loads(MANIFEST.read_text())
    actual = digests(tmp_path)
    moved = sorted(name for name in expected.keys() | actual.keys()
                   if expected.get(name) != actual.get(name))
    assert not moved, "CSV bytes moved (see tests/write_golden.py):\n" + "\n".join(moved)
