"""The benchmark's own tests: the request generator is deterministic, and
the committed expected answers and reference times cover exactly the
pools it draws from."""

import json
import os

import pytest

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_the_same_requests(name):
    pool = workloads.build_pool(name)
    assert pool == workloads.build_pool(name)
    assert workloads.requests(pool, 7) == workloads.requests(pool, 7)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_different_seeds_give_different_requests(name):
    pool = workloads.build_pool(name)
    assert workloads.requests(pool, 7) != workloads.requests(pool, 8)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_expected_answers_cover_the_pool(name):
    with open(os.path.join(HERE, "expected.json")) as fh:
        expected = json.load(fh)["workloads"][name]
    pool = workloads.build_pool(name)
    assert [(e["id"], e["argv"]) for e in expected] == [(e["id"], e["argv"]) for e in pool]
    assert all("answer" in e and e["reference"] for e in expected)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_reference_times_cover_the_pool(name):
    with open(os.path.join(HERE, "reftimes.json")) as fh:
        ref = json.load(fh)
    times = ref["workloads"][name]
    assert sorted(times) == sorted(e["id"] for e in workloads.build_pool(name))
    assert ref["setup_s"] > 0 and all(t > 0 for t in times.values())
