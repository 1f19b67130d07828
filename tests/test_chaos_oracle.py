"""The acked-write oracle (repro.chaos.oracle) and how the soak result
counts its verdicts: one table over every verdict, and a property — a
plain dict never earns anything but ``OK``."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.chaos import Oracle, SoakResult, Verdict

#: (acked values in order, observed read, store-flagged?, verdict)
CASES = [
    ([b"v1"], b"v1", False, Verdict.OK),
    ([], None, False, Verdict.OK),  # never written, reads missing
    ([b"v1", None], None, False, Verdict.OK),
    ([b"v1"], None, True, Verdict.EXCUSED),
    ([b"v1", b"v2"], b"v1", True, Verdict.EXCUSED),
    # A flag excuses a mismatch only; a correct read is just correct.
    ([b"v1"], b"v1", True, Verdict.OK),
    ([b"v1"], None, False, Verdict.LOST),
    ([b"v1", b"v2"], b"v1", False, Verdict.STALE),
    ([b"v1", None], b"v1", False, Verdict.RESURRECTED),
    ([], b"ghost", False, Verdict.RESURRECTED),
]

#: The one result field each non-OK verdict bumps.
FIELD = {
    Verdict.EXCUSED: "excused_losses",
    Verdict.LOST: "lost_writes",
    Verdict.STALE: "stale_reads",
    Verdict.RESURRECTED: "resurrections",
}


@pytest.mark.parametrize("history, got, suspect, verdict", CASES)
def test_verdict_table(history, got, suspect, verdict):
    oracle = Oracle()
    for value in history:
        oracle.acked(b"k", value)
    assert oracle.classify(b"k", got, suspect=suspect) is verdict


@pytest.mark.parametrize("verdict", list(Verdict))
@pytest.mark.parametrize("final", [False, True])
def test_result_counts_each_verdict_once(verdict, final):
    r = SoakResult(scenario="t", engine="x")
    r.score(verdict, final=final)
    # A final read always counts as a verified key; a mid-stream read
    # counts as ok only when it is.
    assert r.keys_verified == (1 if final else 0)
    assert r.reads_ok == (1 if verdict is Verdict.OK and not final else 0)
    for v, name in FIELD.items():
        assert getattr(r, name) == (1 if v is verdict else 0), name
    violation = verdict in (Verdict.LOST, Verdict.STALE, Verdict.RESURRECTED)
    assert r.passed == (final and not violation)


def test_live_is_the_sorted_non_deleted_acked_state():
    oracle = Oracle()
    oracle.acked(b"b", b"2")
    oracle.acked(b"a", b"1")
    oracle.acked(b"c", b"3")
    oracle.acked(b"c", None)
    assert oracle.live() == [(b"a", b"1"), (b"b", b"2")]


keys = st.sampled_from([b"a", b"b", b"c", b"d"])
ops = st.one_of(
    st.tuples(st.just("put"), keys, st.binary(min_size=1, max_size=4)),
    st.tuples(st.just("del"), keys, st.none()),
    st.tuples(st.just("get"), keys, st.none()),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(ops, max_size=60))
def test_a_plain_dict_is_always_ok(stream):
    """Any interleaving of acked puts / deletes, with reads answered from
    a dict that applies them, classifies ``OK`` and nothing else."""
    oracle, model = Oracle(), {}
    for op, key, value in stream:
        if op == "get":
            assert oracle.classify(key, model.get(key)) is Verdict.OK
        else:
            model[key] = value
            oracle.acked(key, value)
    for key, value in oracle.expected.items():
        assert oracle.classify(key, model.get(key)) is Verdict.OK
    assert oracle.live() == sorted((k, v) for k, v in model.items() if v is not None)
