"""``verify.run_all`` against a golden record, byte for byte.

``golden_run_all.txt`` holds one line per criterion for seeds 0, 7 and 1000:
the ``repr`` of ``(seed, number, passed, repr(detail))``.  It was written once
by ``render()`` below from the code before the sparse products, the Gram memo
and the integer factor check went in, so any speed change that moves a result,
a check or a detail fails here.  Regenerate it only together with a change
that means to move a ``verify-paper`` result, and say so in CHANGES.md.
"""

from pathlib import Path

from k3lat import verify

GOLDEN = Path(__file__).with_name("golden_run_all.txt")
SEEDS = (0, 7, 1000)


def render() -> str:
    return "".join(
        repr((seed, r.number, r.passed, repr(r.detail))) + "\n"
        for seed in SEEDS
        for r in verify.run_all(seed)
    )


def test_run_all_matches_the_golden_record():
    assert render() == GOLDEN.read_text(encoding="utf-8")
