"""The numpy facts the array CART builder (``repro.ml.trees``) relies on.

- ``np.mean``, ``np.var`` and ``np.sum`` along axis 1 of a C-ordered
  block give every row the bits of the 1-D call on that row.  The
  builder gathers each group of equal-length slices with
  ``trees._block`` (flat indices into a 1-D buffer) and reduces it in
  one call.  Checked for lengths 1-399, and for the Gini sum of
  ``p * p`` over 1-39 classes.
- A segmented ``np.lexsort((values, segment))`` orders every segment as
  its own 1-D stable argsort would, with ties, -0.0, +-inf and NaN.
- The counterexample the builder avoids: a block gathered along axis 1
  of a 2-D array is F-ordered, and its row reductions do not match the
  1-D calls from length 8 up (numpy sums such rows across the block,
  not pairwise along each row).

If a numpy upgrade or a refactor breaks one of these, the test named
after it fails, before the tree equivalence suite and the end-to-end
goldens do.
"""

import numpy as np

from repro.ml.trees import _block, _var_of_slices


def _scaled_rows(rng, rows, length):
    """Rows whose magnitudes span many binades, so rounding shows."""
    scale = rng.choice([1e-6, 1.0, 1e3, 1e9], size=(rows, 1))
    return rng.normal(size=(rows, length)) * scale + rng.normal(size=(rows, 1))


def test_axis1_reductions_of_a_flat_gather_equal_the_1d_calls():
    rng = np.random.default_rng(0)
    for length in range(1, 400):
        rows = 6
        buf = _scaled_rows(rng, rows, length + 5).ravel()
        starts = rng.integers(0, 5, size=rows) + np.arange(rows) * (length + 5)
        block = _block(buf, starts, length)
        assert block.flags.c_contiguous
        slices = [buf[s:s + length] for s in starts]
        for reduce in (np.mean, np.var, np.sum):
            expected = np.array([reduce(s) for s in slices])
            assert reduce(block, axis=1).tobytes() == expected.tobytes(), \
                (reduce.__name__, length)


def test_var_of_slices_mixes_lengths_without_moving_bits():
    rng = np.random.default_rng(1)
    buf = _scaled_rows(rng, 1, 600).ravel()
    sizes = rng.integers(1, 120, size=300)
    starts = rng.integers(0, 600 - sizes)
    expected = np.array([np.var(buf[s:s + n]) for s, n in zip(starts, sizes)])
    assert _var_of_slices(buf, starts, sizes).tobytes() == expected.tobytes()


def test_gini_sum_over_classes_equals_the_1d_call():
    rng = np.random.default_rng(2)
    for n_classes in range(1, 40):
        counts = rng.integers(0, 50, size=(200, n_classes))
        counts[rng.random(200) < 0.2] = 0
        counts[:, 0] += 1
        sizes = counts.sum(axis=1)
        p = np.ascontiguousarray(counts) / sizes[:, None]
        rows = 1.0 - np.sum(p * p, axis=1)
        expected = np.array([1.0 - np.sum((c / n) * (c / n))
                             for c, n in zip(counts, sizes)])
        assert rows.tobytes() == expected.tobytes(), n_classes


def test_segmented_lexsort_equals_each_segments_stable_argsort():
    rng = np.random.default_rng(3)
    pool = np.array([-np.inf, -1.5, -0.0, 0.0, 0.5, 2.0, np.inf, np.nan])
    for trial in range(200):
        sizes = rng.integers(0, 40, size=int(rng.integers(1, 12)))
        values = (rng.choice(pool, size=int(sizes.sum())) if trial % 2
                  else rng.normal(size=int(sizes.sum())).round(1))
        segment = np.repeat(np.arange(sizes.size), sizes)
        order = np.lexsort((values, segment))
        offsets = np.cumsum(sizes) - sizes
        for i, (o, n) in enumerate(zip(offsets, sizes)):
            expected = o + np.argsort(values[o:o + n], kind="stable")
            assert order[o:o + n].tolist() == expected.tolist(), (trial, i)


def test_axis1_fancy_gather_is_f_ordered_and_differs_from_length_8():
    rng = np.random.default_rng(4)
    for length in range(1, 64):
        matrix = _scaled_rows(rng, 64, 400)
        block = matrix[:, rng.permutation(400)[:length]]
        assert block.flags.f_contiguous
        for reduce in (np.mean, np.var, np.sum):
            expected = np.array([reduce(row) for row in block])
            same = reduce(block, axis=1) == expected
            if length < 8:
                assert same.all(), (reduce.__name__, length)
            else:
                assert not same.all(), (reduce.__name__, length)
