"""The lists of tests/mutate_replay.py name live code: a renamed target
or a stale equivalent is caught here, without running the mutants."""

import time

import mutate_replay


def test_mutation_lists_match_the_code():
    t0 = time.perf_counter()
    assert mutate_replay.stale_names() == []
    assert time.perf_counter() - t0 < 1.0


def test_stale_names_are_reported(monkeypatch):
    path, names, own = mutate_replay.TARGETS[0]
    monkeypatch.setattr(mutate_replay, "TARGETS",
                        ((path, names + ("_no_such_function",), own),))
    monkeypatch.setattr(mutate_replay, "EQUIVALENT", {"_replay: no such site": ""})
    assert mutate_replay.stale_names() == [
        f"{path}: no function _no_such_function",
        "EQUIVALENT: no mutant '_replay: no such site'"]
