"""The large-p differential fuzz of `large_p_fuzz` at its Tier-1 size: the
grouped decomposition of 80 seeded cases against the oracle, about 3 s.  CI
runs the same generator on more cases under a timeout."""

from large_p_fuzz import run


def test_grouped_decompositions_at_large_p_agree_with_the_oracle():
    failures = run(seed=1, cases=80)
    assert not failures, "\n".join(failures)
