import random
from fractions import Fraction

import pytest

from oracles import (
    InvalidSegmentError,
    Segment,
    admissible_segments,
    count_segment_multisets,
    polygon_from_segments,
)


def test_breakpoints_basic():
    p = polygon_from_segments([(1, 0), (2, 1)])
    assert p.breakpoints == ((0, 0), (1, 0), (3, 1))
    assert p.height == 3 and p.depth == 1


def test_empty_polygon():
    p = polygon_from_segments([])
    assert p.breakpoints == ((0, 0),)
    assert p.height == 0 and p.depth == 0


def test_multiset_order_independent():
    assert polygon_from_segments([(3, 1), (1, 0)]) == polygon_from_segments([(1, 0), (3, 1)])


@pytest.mark.parametrize("m,n", [(2, 4), (6, 3), (0, 1), (1, -1)])
def test_invalid_segments_rejected(m, n):
    with pytest.raises(InvalidSegmentError):
        Segment(m, n)


def test_slope():
    assert Segment(3, 2).slope == Fraction(2, 3)


def test_random_multisets_are_lower_convex():
    rng = random.Random(99)
    pool = admissible_segments(8, lambda n, m: n <= m)
    for _ in range(50):
        segs = [rng.choice(pool) for _ in range(rng.randint(0, 8))]
        p = polygon_from_segments(segs)
        assert p.height == sum(s.m for s in segs)
        assert p.depth == sum(s.n for s in segs)
        pts = p.breakpoints
        for (x0, y0), (x1, y1), (x2, y2) in zip(pts, pts[1:], pts[2:]):
            # cross product >= 0: slopes non-decreasing
            assert (x1 - x0) * (y2 - y1) - (y1 - y0) * (x2 - x1) >= 0


def test_admissible_segments_order_and_content():
    segs = admissible_segments(4, lambda n, m: n < m)
    assert segs[0] == Segment(1, 0)
    assert segs == sorted(segs, key=lambda s: (s.m, s.n))
    # phi(1) + phi(2) + phi(3) + phi(4) segments for slopes in [0, 1)
    assert len(segs) == 1 + 1 + 2 + 2


def test_count_segment_multisets_small():
    segs = admissible_segments(3, lambda n, m: n < m)
    # height 3, depth 1: {(3,1)} and {(1,0),(2,1)}
    assert count_segment_multisets(segs, 3, 1) == 2
    assert count_segment_multisets(segs, 0, 0) == 1
    assert count_segment_multisets(segs, 0, 1) == 0
