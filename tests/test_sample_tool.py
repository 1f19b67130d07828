"""The sampler (``tools/sample.py``) on a toy two-phase function: samples
land in the phase the root frame's callee names, and self / inclusive
shares name the functions that burned the time."""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import sample  # noqa: E402


def spin(seconds: float) -> None:
    stop = time.process_time() + seconds
    while time.process_time() < stop:
        pass


def load_phase() -> None:
    spin(0.15)


def run_phase() -> None:
    spin(0.1)


def toy() -> str:
    load_phase()
    run_phase()
    return "done"


def test_samples_are_filed_by_phase():
    sampler = sample.Sampler(root="toy", phase_of={"load_phase": "load", "run_phase": "run"})
    assert sampler.profile(toy, interval_s=0.002) == "done"
    assert sampler.samples["load"] > 10 and sampler.samples["run"] > 5
    assert sampler.samples["other"] <= 2
    # Inclusive, not self, shares: under a tracing hook (the reach report
    # records tier-1 through one) the sampled frame is often the hook.
    assert 0.99 <= sum(share for _, share in sampler.top("load")) <= 1.0

    def inclusive(phase, name):
        return sampler.counts[phase, "inclusive"][name] / sampler.samples[phase]

    assert inclusive("load", "test_sample_tool.load_phase") == 1.0
    assert inclusive("load", "test_sample_tool.spin") > 0.9
    assert inclusive("run", "test_sample_tool.run_phase") == 1.0
    assert inclusive("run", "test_sample_tool.load_phase") == 0.0
    report = sampler.report()
    assert "== load:" in report and "-- inclusive" in report
