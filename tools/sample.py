"""Sampled host profile of one perfbench workload, standard library only.

    python tools/sample.py --workload write_tight --seed 7 --seconds 13

Runs ``perfbench/run.py --trace 0`` in this interpreter under a ``SIGPROF``
interval timer (CPU time).  A sample is filed under the phase named by the
function ``bench.repetition`` was in: ``put_many`` / ``finalize`` are the
load, ``run`` the run, anything else (set-up, checks) is other.  Per phase it
prints the top 15 functions by self share (the sampled frame) and by
inclusive share (anywhere on the stack below ``repetition``, once per
sample).
"""

from __future__ import annotations

import argparse
import runpy
import signal
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PHASES = ("load", "run", "other")


class Sampler:
    """Stack samples, filed by the phase ``phase_of`` gives the callee of
    the ``root`` frame."""

    def __init__(self, root="repetition", phase_of=None) -> None:
        self.root = root
        self.phase_of = phase_of or {"put_many": "load", "finalize": "load", "run": "run"}
        self.samples = Counter()
        self.counts = {(p, kind): Counter() for p in PHASES for kind in ("self", "inclusive")}

    def _tick(self, signum, frame) -> None:
        names, phase, callee = [], "other", None
        while frame is not None:
            code = frame.f_code
            if code.co_name == self.root and callee is not None:
                phase = self.phase_of.get(callee, "other")
                break  # the harness above the root is on every sample
            names.append(f"{Path(code.co_filename).stem}.{code.co_qualname}")
            callee, frame = code.co_name, frame.f_back
        self.samples[phase] += 1
        self.counts[phase, "self"][names[0]] += 1
        self.counts[phase, "inclusive"].update(set(names))

    def profile(self, target, interval_s: float = 0.0005):
        """Call ``target()`` with the timer armed; returns what it returns."""
        previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, interval_s, interval_s)
        try:
            return target()
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)

    def top(self, phase: str, kind: str = "self", n: int = 15) -> list[tuple[str, float]]:
        total = self.samples[phase] or 1
        return [(name, c / total) for name, c in self.counts[phase, kind].most_common(n)]

    def report(self) -> str:
        lines = []
        for phase in PHASES:
            lines.append(f"== {phase}: {self.samples[phase]} samples")
            for kind in ("self", "inclusive"):
                lines.append(f"-- {kind}")
                lines += [f"{share:7.1%}  {name}" for name, share in self.top(phase, kind)]
        return "\n".join(lines)


def run_perfbench(argv: list[str]) -> None:
    sys.argv = ["run.py", *argv]
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        runpy.run_path(str(ROOT / "perfbench" / "run.py"), run_name="__main__")
    except SystemExit as done:
        if done.code:
            raise


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", default="7")
    ap.add_argument("--seconds", default="13")
    ap.add_argument("--interval-ms", type=float, default=0.5)
    args = ap.parse_args()
    argv = ["--workload", args.workload, "--seed", args.seed, "--seconds", args.seconds,
            "--trace", "0"]
    sampler = Sampler()
    sampler.profile(lambda: run_perfbench(argv), args.interval_ms / 1000)
    print(sampler.report())
