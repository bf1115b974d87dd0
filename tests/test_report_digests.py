"""The bundled suites' report bytes, pinned by SHA-256.

Reports must be byte-stable across refactors of the arithmetic underneath
(every exact path reproduces the same verdicts, tables and floats).  The
digests were taken from the suites at their default seeds; a change that moves
them changes what a user's report says and must say why.
"""

import hashlib

import pytest

from modshift.experiment import run_file

DIGESTS = {
    "example_checkerboard": {
        "report.json": "e8f547f2d868b8060aea6c1eeb8f6ccfcd96224b9416655ceb36f4d3d17115b2",
        "fourier.csv": "ef46dd0a245dc023e94e1105080eb1b145d4469d658b4be875ca7d4a1689dd09",
        "mixing.csv": "e8c231b272ab3f543f506b42a2e58fdcdd3bc6317dbddd5399cabe035b1d1385",
    },
    "frobenius_suite": {
        "report.json": "58cef4333d8c1081ccc0db8c52f3f6648639e7f707b8aea81f0a3392acab8443",
        "fourier.csv": "b30cf4389977158541d8ca8bfe63af1860531c0970c4b05690a6c52e234a55ac",
        "mixing.csv": "1b9c4b1b9ca63dbb6a5a8254835d3b1260f19d144c7f504326ad6de4dfb2856a",
    },
}


@pytest.mark.parametrize("suite", sorted(DIGESTS))
def test_bundled_suite_report_bytes_are_pinned(suite, tmp_path):
    assert run_file(suite, str(tmp_path)) == 0
    got = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in DIGESTS[suite]
    }
    assert got == DIGESTS[suite]
