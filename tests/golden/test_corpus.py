"""Results stay exactly as the golden corpus recorded them.

On the environment the corpus was made on, every digest, stat and number
must match bit for bit; elsewhere the plain numbers must match to
``corpus.RTOL``.  See ``corpus.py`` for the entries and how to regenerate
them after a deliberate change.
"""

import pytest

import corpus


@pytest.fixture(scope="module")
def stored():
    return corpus.load()


@pytest.fixture(scope="module")
def exact(stored):
    same = stored["environment"] == corpus.environment()
    print(f"golden corpus: {'exact' if same else 'cross-machine'} mode")
    return same


@pytest.mark.parametrize("group", sorted(corpus.GROUPS))
def test_group_unchanged(stored, exact, group):
    fresh = corpus.GROUPS[group]()
    want = {k: v for k, v in stored["entries"].items() if k.startswith(f"{group}/")}
    assert sorted(fresh) == sorted(want)
    moved = {}
    for name, entry in want.items():
        diff = corpus.compare(entry, fresh[name], exact)
        if diff:
            moved[name] = diff
    mode = "exact" if exact else "cross-machine"
    assert not moved, f"{len(moved)} entries moved ({mode} mode): {moved}"
