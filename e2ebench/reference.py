"""Independent reference computations the benchmark checks answers against.

Nothing here imports ``repro``: the EH3 signs are evaluated from a
generator's public seed (``s0``, ``s1``) and the paper's definition

    xi_i = (-1)^(s0 XOR parity(S1 & i) XOR h(i)),
    h(i) = (i_0 OR i_1) XOR (i_2 OR i_3) XOR ...          (paper Eq. 6)

and every exact answer comes from dense integer frequency vectors.  The
predicted standard error of a product estimate is the paper's
4-wise variance bound (Eq. 11),

    Var(X_R X_S) = F2(R) F2(S) + (R.S)^2 - 2 sum_i r_i^2 s_i^2,

divided by the number of averaged copies.

Run ``python3 e2ebench/reference.py`` for the brute-force self-test.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "eh3_h",
    "eh3_signs",
    "FrequencyVector",
    "counter_value",
    "predicted_se",
    "heavy_threshold",
    "rect_role_vectors",
    "rect_reduction_truth",
    "rect_intersections",
    "self_test",
]


def eh3_h(indices: np.ndarray, domain_bits: int) -> np.ndarray:
    """``h(i)`` of paper Eq. 6 over an index array (0/1 per index)."""
    indices = np.asarray(indices, dtype=np.int64)
    out = np.zeros(indices.shape, dtype=np.int64)
    for pair in range((domain_bits + 1) // 2):
        low = (indices >> (2 * pair)) & 1
        high = (indices >> (2 * pair + 1)) & 1
        out ^= low | high
    return out


def _parity_of_and(indices: np.ndarray, s1: int, domain_bits: int) -> np.ndarray:
    out = np.zeros(indices.shape, dtype=np.int64)
    for bit in range(domain_bits):
        if (s1 >> bit) & 1:
            out ^= (indices >> bit) & 1
    return out


def eh3_signs(s0: int, s1: int, domain_bits: int) -> np.ndarray:
    """EH3 values (+1/-1, int64) over the whole domain ``[0, 2^bits)``."""
    indices = np.arange(1 << domain_bits, dtype=np.int64)
    bits = _parity_of_and(indices, s1, domain_bits) ^ eh3_h(indices, domain_bits)
    bits ^= s0
    return 1 - 2 * bits


class FrequencyVector:
    """Exact integer frequencies of one relation over ``[0, 2^bits)``.

    Points land in a dense vector; intervals in a difference array, so an
    interval update costs O(1) however long it is.  :meth:`dense` fills one
    preallocated float64 buffer (exact for integers below 2^53), so the
    reference's memory footprint does not depend on how often it is read.
    """

    def __init__(self, domain_bits: int) -> None:
        self.domain_bits = domain_bits
        size = 1 << domain_bits
        self._points = np.zeros(size, dtype=np.int64)
        self._diff = np.zeros(size + 1, dtype=np.int64)
        self._dense = np.zeros(size, dtype=np.float64)
        self._fresh = True

    def add_points(self, items: np.ndarray, weights: np.ndarray | int = 1) -> None:
        np.add.at(self._points, np.asarray(items, dtype=np.int64), weights)
        self._fresh = False

    def add_intervals(
        self, lows: np.ndarray, highs: np.ndarray, weights: np.ndarray | int = 1
    ) -> None:
        np.add.at(self._diff, np.asarray(lows, dtype=np.int64), weights)
        np.add.at(
            self._diff, np.asarray(highs, dtype=np.int64) + 1, -np.asarray(weights)
        )
        self._fresh = False

    def dense(self) -> np.ndarray:
        """The frequency vector as float64 (valid until the next update)."""
        if not self._fresh:
            np.cumsum(self._diff[:-1], out=self._dense)
            self._dense += self._points
            self._fresh = True
        return self._dense


def counter_value(frequencies: np.ndarray, s0: int, s1: int, domain_bits: int) -> float:
    """The atomic sketch ``sum_i f_i xi_i`` of one counter, exactly."""
    signs = eh3_signs(s0, s1, domain_bits)
    return float(np.dot(frequencies, signs))


def _variance(r: np.ndarray, s: np.ndarray) -> float:
    r = np.asarray(r, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    rs = r * s
    return float(np.dot(r, r) * np.dot(s, s) + rs.sum() ** 2 - 2.0 * np.dot(rs, rs))


def predicted_se(r: np.ndarray, s: np.ndarray, averages: int) -> float:
    """Standard error of an ``averages``-wide product estimate (Eq. 11)."""
    return math.sqrt(max(_variance(r, s), 0.0) / averages)


def heavy_threshold(frequencies: np.ndarray, floor: float, margin: float) -> float:
    """Smallest threshold >= ``floor`` with no item in ``[T, T + margin)``.

    Every item at or above the returned threshold clears it by at least
    ``margin``, so recall at a given slack is not decided by an item that
    sits on the threshold itself.
    """
    ordered = np.unique(frequencies[frequencies >= floor])
    threshold = float(floor)
    for value in ordered:  # ascending
        if value < threshold:
            continue
        if value < threshold + margin:
            threshold = float(value) + 1.0
        else:
            break
    return threshold


def _axis_roles(rects: np.ndarray, axis: int, whole: bool, size: int) -> np.ndarray:
    """Per-rectangle axis vectors as a (count, size) 0/1/2 matrix."""
    count = rects.shape[0]
    out = np.zeros((count, size + 1), dtype=np.int64)
    rows = np.arange(count)
    lows = rects[:, axis, 0]
    highs = rects[:, axis, 1]
    if whole:
        np.add.at(out, (rows, lows), 1)
        np.add.at(out, (rows, highs + 1), -1)
        return np.cumsum(out[:, :size], axis=1)
    np.add.at(out, (rows, lows), 1)
    np.add.at(out, (rows, highs), 1)
    return out[:, :size]


def rect_role_vectors(
    rects: np.ndarray, domain_bits: tuple[int, int], combo: tuple[bool, bool]
) -> np.ndarray:
    """Dense 2-D frequency grid of one dataset's role in one combination.

    ``combo[k]`` True: the rectangle contributes its whole extent on axis
    ``k``; False: its two end-points.  The grid is indexed ``[x, y]``.
    """
    x = _axis_roles(rects, 0, combo[0], 1 << domain_bits[0])
    y = _axis_roles(rects, 1, combo[1], 1 << domain_bits[1])
    return x.T @ y


def rect_counter_value(
    rects: np.ndarray,
    domain_bits: tuple[int, int],
    combo: tuple[bool, bool],
    seeds: tuple[tuple[int, int], tuple[int, int]],
) -> float:
    """One product-channel counter: per-rectangle product of axis sums."""
    total = np.ones(rects.shape[0], dtype=np.int64)
    for axis in range(2):
        bits = domain_bits[axis]
        signs = eh3_signs(seeds[axis][0], seeds[axis][1], bits)
        roles = _axis_roles(rects, axis, combo[axis], 1 << bits)
        total *= roles @ signs
    return float(total.sum())


def rect_reduction_truth(first: np.ndarray, second: np.ndarray) -> float:
    """All pairs: product over axes of (e_k + f_k) / 2 (the estimator's mean).

    ``e_k`` counts the second rectangle's end-points inside the first's
    extent on axis ``k`` and ``f_k`` the reverse; the product is 1 for an
    intersecting pair except where end-points coincide.
    """
    total = np.ones((first.shape[0], second.shape[0]), dtype=np.float64)
    for axis in range(first.shape[1]):
        a_lo = first[:, axis, 0][:, None]
        a_hi = first[:, axis, 1][:, None]
        b_lo = second[:, axis, 0][None, :]
        b_hi = second[:, axis, 1][None, :]
        e = ((a_lo <= b_lo) & (b_lo <= a_hi)).astype(np.int64) + (
            (a_lo <= b_hi) & (b_hi <= a_hi)
        )
        f = ((b_lo <= a_lo) & (a_lo <= b_hi)).astype(np.int64) + (
            (b_lo <= a_hi) & (a_hi <= b_hi)
        )
        total *= (e + f) / 2.0
    return float(total.sum())


def rect_intersections(first: np.ndarray, second: np.ndarray) -> int:
    """All pairs: how many rectangle pairs intersect on every axis."""
    meet = np.ones((first.shape[0], second.shape[0]), dtype=bool)
    for axis in range(first.shape[1]):
        meet &= np.maximum.outer(first[:, axis, 0], second[:, axis, 0]) <= (
            np.minimum.outer(first[:, axis, 1], second[:, axis, 1])
        )
    return int(meet.sum())


# -- self-test -------------------------------------------------------------


def _brute_h(i: int, bits: int) -> int:
    out = 0
    for pair in range((bits + 1) // 2):
        out ^= ((i >> (2 * pair)) & 1) | ((i >> (2 * pair + 1)) & 1)
    return out


def _brute_sign(s0: int, s1: int, bits: int, i: int) -> int:
    bit = s0 ^ (bin(s1 & i).count("1") & 1) ^ _brute_h(i, bits)
    return -1 if bit else 1


def self_test(domain_bits: int = 6, seed: int = 7) -> None:
    """Check every reference routine against a brute-force loop.

    Raises ``AssertionError`` on the first disagreement, including the
    negative check that flipping any single seed bit changes the signs.
    """
    rng = np.random.default_rng(seed)
    size = 1 << domain_bits
    for _ in range(8):
        s0 = int(rng.integers(0, 2))
        s1 = int(rng.integers(0, size))
        signs = eh3_signs(s0, s1, domain_bits)
        brute = [_brute_sign(s0, s1, domain_bits, i) for i in range(size)]
        assert signs.tolist() == brute, "EH3 evaluator disagrees with brute force"
        flipped = [eh3_signs(s0 ^ 1, s1, domain_bits)] + [
            eh3_signs(s0, s1 ^ (1 << bit), domain_bits) for bit in range(domain_bits)
        ]
        for other in flipped:
            assert not np.array_equal(other, signs), "a flipped seed bit went unseen"

    freq = FrequencyVector(domain_bits)
    brute_freq = [0] * size
    for _ in range(20):
        item = int(rng.integers(0, size))
        weight = int(rng.integers(1, 4))
        freq.add_points(np.array([item]), weight)
        brute_freq[item] += weight
        low = int(rng.integers(0, size))
        high = int(rng.integers(low, size))
        freq.add_intervals(np.array([low]), np.array([high]), 1)
        for i in range(low, high + 1):
            brute_freq[i] += 1
    assert freq.dense().tolist() == brute_freq, "difference array disagrees"
    s0, s1 = 1, int(rng.integers(0, size))
    expected = sum(
        f * _brute_sign(s0, s1, domain_bits, i) for i, f in enumerate(brute_freq)
    )
    assert counter_value(freq.dense(), s0, s1, domain_bits) == expected

    r = freq.dense()
    s = np.roll(r, 3)
    brute_var = (
        sum(x * x for x in r) * sum(x * x for x in s)
        + sum(a * b for a, b in zip(r, s)) ** 2
        - 2 * sum(a * a * b * b for a, b in zip(r, s))
    )
    assert abs(predicted_se(r, s, 4) - math.sqrt(brute_var / 4)) < 1e-9

    threshold = heavy_threshold(np.array([1, 5, 6, 20]), 5, 3)
    assert threshold == 7.0, threshold

    bits = (3, 3)
    lows = rng.integers(0, 6, (7, 2, 1))
    rects = np.concatenate([lows, lows + rng.integers(0, 2, (7, 2, 1))], axis=2)
    other = np.concatenate([lows[::-1], lows[::-1] + 1], axis=2)
    pairs = 0
    reduction = 0.0
    for a in rects:
        for b in other:
            pairs += all(max(a[k, 0], b[k, 0]) <= min(a[k, 1], b[k, 1]) for k in range(2))
            term = 1.0
            for k in range(2):
                e = sum(a[k, 0] <= p <= a[k, 1] for p in b[k])
                f = sum(b[k, 0] <= p <= b[k, 1] for p in a[k])
                term *= (e + f) / 2
            reduction += term
    assert rect_intersections(rects, other) == pairs
    assert abs(rect_reduction_truth(rects, other) - reduction) < 1e-9
    seeds = ((1, 5), (0, 3))
    for combo in ((True, True), (True, False), (False, True), (False, False)):
        grid = rect_role_vectors(rects, bits, combo)
        brute = 0
        for rect in rects:
            term = 1
            for axis in range(2):
                points = (
                    range(rect[axis, 0], rect[axis, 1] + 1)
                    if combo[axis]
                    else (rect[axis, 0], rect[axis, 1])
                )
                term *= sum(_brute_sign(*seeds[axis], bits[axis], p) for p in points)
            brute += term
        x_signs = eh3_signs(*seeds[0], bits[0])
        y_signs = eh3_signs(*seeds[1], bits[1])
        assert float(x_signs @ grid @ y_signs) == brute
        assert rect_counter_value(rects, bits, combo, seeds) == brute


if __name__ == "__main__":
    self_test()
    print("reference self-test passed")
