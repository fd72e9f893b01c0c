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


def test_criterion_01_counts_on_the_sweep_ranks_without_a_sign_table(monkeypatch):
    """Both vfs of a trial come off one ``_dense_ranks`` of the longer list."""
    from planevar import _vfcore

    calls = {"build_sign_table": 0, "vf_of_indices": 0, "_dense_ranks": 0, "_sweep_counts": 0}

    def spy(name):
        original = getattr(_vfcore, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(_vfcore, name, wrapper)

    for name in calls:
        spy(name)
    (result,) = run_suite(seed=0, only=[1])
    assert result.passed
    assert result.detail == "trials=10000 violations=0 bound_violations=0"
    assert calls == {"build_sign_table": 0, "vf_of_indices": 0,
                     "_dense_ranks": 10_000, "_sweep_counts": 20_000}
