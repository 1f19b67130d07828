"""Every soak / crash-matrix report CI promises to hold, pinned.

``results/DIGEST_soaks.txt`` has one ``name sha256`` line per invocation;
each is re-run here through its CLI and must print that digest.  A pin
named ``suite@N`` is ``python -m repro.chaos suite --ops N``.  A change
that moves a report — an engine behaviour, a scenario's window, a counter
— fails here, not only in a prose comparison between two PRs.
"""

from pathlib import Path

import pytest

from repro.chaos import SUITES
from repro.chaos.__main__ import main as chaos_main
from repro.faultcheck.__main__ import main as faultcheck_main

PINS = dict(
    line.split()
    for line in (Path(__file__).parent.parent / "results" / "DIGEST_soaks.txt")
    .read_text()
    .splitlines()
)

FAULTCHECK_ARGS = {
    "faultcheck": ["--lsm-points", "12", "--hyperdb-points", "10"],
    "faultcheck-6x6": [
        "--lsm-points", "6", "--hyperdb-points", "6", "--skip-transient",
    ],
}


def test_every_suite_is_pinned():
    assert set(SUITES) <= {pin.partition("@")[0] for pin in PINS}


@pytest.mark.parametrize("pin", sorted(PINS))
def test_report_digest_is_pinned(pin, capsys):
    if pin in FAULTCHECK_ARGS:
        status = faultcheck_main([*FAULTCHECK_ARGS[pin], "--digest"])
    else:
        suite, _, ops = pin.partition("@")
        status = chaos_main([suite, *(["--ops", ops] if ops else []), "--digest"])
    out = capsys.readouterr().out
    assert status == 0, out
    assert out.splitlines()[-1] == f"DIGEST {PINS[pin]}", out
