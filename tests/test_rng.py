"""The coupled-simulation loop shared by the AR(1), MH and Langevin simulators."""
import numpy as np
import pytest

from wperturb._rng import coupled_steps


@pytest.mark.parametrize("n, replicas", [(0, 3), (3, 0), (-1, 3), (2.0, 3)])
def test_coupled_steps_rejects_non_positive_sizes(n, replicas):
    with pytest.raises(ValueError, match="positive integer"):
        list(coupled_steps(lambda k, x, xt: (x, xt), 0.0, n, replicas))


def test_coupled_steps_order_start_and_count():
    seen = []

    def step(k, x, xt):
        seen.append((k, x.copy(), xt.copy()))
        return x + 1.0, xt - 1.0

    out = list(coupled_steps(step, 2.5, 4, 3))
    assert [k for k, _, _ in seen] == [0, 1, 2, 3]
    np.testing.assert_array_equal(seen[0][1], np.full(3, 2.5))
    np.testing.assert_array_equal(seen[0][2], np.full(3, 2.5))
    assert len(out) == 4
    for k, (x, xt) in enumerate(out):
        # each yielded pair is the step's own output, fed to the next step
        np.testing.assert_array_equal(x, np.full(3, 2.5 + k + 1))
        np.testing.assert_array_equal(xt, np.full(3, 2.5 - k - 1))
        if k + 1 < len(out):
            np.testing.assert_array_equal(seen[k + 1][1], x)
