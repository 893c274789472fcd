"""The two numpy ``Generator`` facts the front-end kernels rely on.

- Synthesis draws a source level as ``bisect_right(cdf, random())``
  with ``cdf = (w / w.sum()).cumsum(); cdf /= cdf[-1]``, in place of
  ``rng.choice(len(w), p=w / w.sum())``: the same value from the same
  single uniform, interleaved with ``integers`` draws.
- The global router draws its tie bits as one
  ``integers(0, 2, size=m)`` instead of m single ``integers(0, 2)``
  calls: the same values, and the generator continues identically.

If a numpy upgrade breaks either, these tests fail by name (before the
synthesis and routing equivalence suites and the end-to-end goldens).
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np


def test_choice_with_p_is_bisect_of_its_cdf():
    for trial in range(300):
        shape = np.random.default_rng(trial)
        k = int(shape.integers(1, 40))
        w = shape.random(k) * shape.choice([1e-9, 1.0, 1e6], size=k)
        w[shape.random(k) < 0.2] = 0.0  # empty levels weigh nothing
        if not w.sum() > 0:
            w[0] = 1.0
        p = w / w.sum()
        cdf = p.cumsum()
        cdf /= cdf[-1]
        cdf = cdf.tolist()
        a = np.random.default_rng(1000 + trial)
        b = np.random.default_rng(1000 + trial)
        for _ in range(25):
            assert int(a.choice(k, p=p)) == bisect_right(cdf, b.random())
            n = int(shape.integers(1, 300))
            assert int(a.integers(0, n)) == int(b.integers(0, n))
        assert a.bit_generator.state == b.bit_generator.state


def test_batched_bits_equal_single_draws():
    for seed in range(500):
        m = seed % 97
        single = np.random.default_rng(seed)
        batched = np.random.default_rng(seed)
        expected = [int(single.integers(0, 2)) for _ in range(m)]
        assert batched.integers(0, 2, size=m).tolist() == expected
        assert batched.bit_generator.state == single.bit_generator.state
        assert batched.random() == single.random()
        assert batched.integers(0, 1000) == single.integers(0, 1000)
