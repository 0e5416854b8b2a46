"""The shared batch order: one pass, and a fixed number of iterations that
runs past one pass."""
import numpy as np
import pytest

from protostudent.optim import batches


def one_permutation_batches(ids, batch_size, iterations, rng):
    """The one-permutation order: batch `it` from (it * batch_size) mod
    len(ids), cut at the end. It agrees with `batches` while the
    iterations fit in one pass."""
    order = rng.permutation(len(ids))
    if iterations is None:
        iterations = (len(ids) + batch_size - 1) // batch_size
    return [ids[order[lo:lo + batch_size]]
            for lo in ((it * batch_size) % len(ids) for it in range(iterations))]


@pytest.mark.parametrize("n,batch_size,iterations", [(51, 16, None), (51, 16, 3), (64, 16, 4),
                                                     (10, 16, None), (10, 16, 1)])
def test_one_pass_matches_one_permutation_order(n, batch_size, iterations):
    ids = np.arange(100, 100 + n)
    got = list(batches(ids, batch_size, iterations, np.random.default_rng(3)))
    want = one_permutation_batches(ids, batch_size, iterations, np.random.default_rng(3))
    assert [b.tolist() for b in got] == [b.tolist() for b in want]


@pytest.mark.parametrize("n,batch_size,iterations", [(51, 16, 6), (10, 16, 4), (32, 16, 5)])
def test_iterations_past_one_pass_draw_full_fresh_batches(n, batch_size, iterations):
    """Each pass is a fresh permutation cut into full batches: no short
    batch, no row twice within a pass, and the first pass is the
    one-permutation order's."""
    ids = np.arange(100, 100 + n)
    got = list(batches(ids, batch_size, iterations, np.random.default_rng(4)))
    size = min(batch_size, n)
    assert len(got) == iterations and all(len(b) == size for b in got)
    per_pass = n // size
    for start in range(0, iterations, per_pass):
        rows = np.concatenate(got[start:start + per_pass])
        assert len(np.unique(rows)) == len(rows) and set(rows) <= set(ids)
    first = one_permutation_batches(ids, batch_size, per_pass, np.random.default_rng(4))
    assert [b.tolist() for b in got[:per_pass]] == [b.tolist() for b in first]
