"""The suite harness: id order, names, timing and the piece registry."""

from planevar.suite import CRITERIA, run_suite


def test_registry_hands_the_built_pieces_to_criterion_13():
    results = list(run_suite(seed=0, only=[13, 9]))
    assert [r.cid for r in results] == [9, 13]
    assert [r.name for r in results] == [CRITERIA[9][0], CRITERIA[13][0]]
    assert all(r.seconds >= 0 for r in results)
    assert results[1].detail == "functions=1 pieces=512 violations=0"


def test_criterion_13_alone_checks_the_pyramid():
    (result,) = run_suite(seed=0, only=[13])
    assert (result.cid, result.name) == (13, CRITERIA[13][0])
    assert result.passed
    assert result.detail == "functions=1 pieces=8 violations=0"
