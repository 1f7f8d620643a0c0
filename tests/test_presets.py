"""Preset joints against per-row loops over their definitions."""

import numpy as np
import pytest

from ibplane.presets import hierarchical_joint, xor_joint


def hierarchical_rows(eps1, eps2, levels):
    """p(x, y) of hierarchical_joint one leaf at a time, offsets summed level by level."""
    o1 = 0.5 - eps1
    offsets = [o1 * (eps2 / o1) ** level for level in range(levels)]
    rows = np.empty((2**levels, 2))
    for x in range(2**levels):
        p0 = 0.5
        for level in range(levels):
            bit = (x >> (levels - 1 - level)) & 1
            p0 += offsets[level] * (1.0 if bit == 0 else -1.0)
        if not 0 < p0 < 1:
            raise ValueError("offsets leave the probability simplex; shrink eps2")
        rows[x] = (p0, 1.0 - p0)
    return rows / 2**levels


# (0.1, 0.3) leaves the probability simplex from 2 levels on, (0.3, 0.19) from 3
@pytest.mark.parametrize("eps1, eps2", [(0.2, 0.05), (0.1, 0.3), (0.45, 0.04), (0.3, 0.19)])
@pytest.mark.parametrize("levels", range(1, 11))
def test_hierarchical_joint_matches_the_per_row_loop_bit_for_bit(eps1, eps2, levels):
    # the same rows, bit for bit, or the same simplex ValueError
    try:
        want = hierarchical_rows(eps1, eps2, levels)
    except ValueError as e:
        with pytest.raises(ValueError, match=f"^{e}$"):
            hierarchical_joint(eps1, eps2, levels)
    else:
        assert hierarchical_joint(eps1, eps2, levels).p.tobytes() == want.tobytes()


@pytest.mark.parametrize("d", range(1, 13))
def test_xor_joint_matches_the_per_row_loop_bit_for_bit(d):
    want = np.zeros((2**d, 2))
    for x in range(2**d):
        want[x, bin(x).count("1") % 2] = 1.0 / 2**d
    assert xor_joint(d).p.tobytes() == want.tobytes()
