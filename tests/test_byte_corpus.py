"""Every command-line case of the byte corpus keeps its exit code, stdout,
stderr and output files (see byte_corpus.py)."""

import json

import pytest

import byte_corpus

EXPECTED = json.loads(byte_corpus.EXPECTED.read_text(encoding="utf-8"))
CASES = byte_corpus.cases()


def test_every_case_has_an_expected_result():
    assert list(EXPECTED["cases"]) == list(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_case_keeps_its_bytes(name):
    # The digests were taken on the recorded Python and numpy; a mismatch on
    # another numpy is a finding about its float kernels, not a reason to skip.
    assert byte_corpus.run(CASES[name]) == EXPECTED["cases"][name], (
        f"recorded on {EXPECTED['python']}/numpy {EXPECTED['numpy']}, "
        f"run on {byte_corpus.versions()}")
