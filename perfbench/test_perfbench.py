"""Unit tests for the benchmark's own helpers (no package import needed).

    python3 -m pytest perfbench/test_perfbench.py
"""

import itertools

import numpy as np
import pytest

from hypervolume import (hypervolume_2d, hypervolume_inclusion_exclusion,
                         hypervolume_int_f2)
from spans import Span, SpanRecorder, installed, self_times


def test_hypervolume_matches_inclusion_exclusion():
    rng = np.random.default_rng(0)
    ref = (5.0, 7.0, 0.0)
    for _ in range(60):
        n = int(rng.integers(1, 9))
        pts = np.column_stack([
            rng.uniform(-3.0, 6.0, n),  # some points lie beyond the f1 reference
            rng.integers(1, 8, n).astype(float),
            -rng.integers(0, 30, n).astype(float),  # ties and f3 == reference occur
        ])
        assert hypervolume_int_f2(pts, ref) == pytest.approx(
            hypervolume_inclusion_exclusion(pts, ref), rel=1e-12, abs=1e-12)


def test_hypervolume_hand_cases():
    # one point: a box of 2 x 3 x 4
    assert hypervolume_int_f2([[1.0, 4.0, -4.0]], (3.0, 7.0, 0.0)) == 24.0
    # a dominated point adds nothing
    assert hypervolume_int_f2([[1.0, 4.0, -4.0], [2.0, 5.0, -1.0]], (3.0, 7.0, 0.0)) == 24.0
    assert hypervolume_int_f2(np.zeros((0, 3)), (3.0, 7.0, 0.0)) == 0.0
    assert hypervolume_2d([(0.0, 2.0), (1.0, 1.0)], (2.0, 3.0)) == 2.0 + 1.0
    with pytest.raises(ValueError):
        hypervolume_int_f2([[1.0, 2.5, -1.0]], (3.0, 7.0, 0.0))


def fake_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_subtracts_two_disjoint_children():
    # parent [0, 10] with children [1, 3] and [5, 9]; the grandchild
    # [6, 7] is subtracted from its own parent only
    rec = SpanRecorder(clock=fake_clock([0.0, 1.0, 3.0, 5.0, 6.0, 7.0, 9.0, 10.0]))
    with rec.span("parent"):
        with rec.span("a"):
            pass
        with rec.span("b"):
            with rec.span("b.inner"):
                pass
    assert [s.name for s in rec.spans] == ["parent", "a", "b", "b.inner"]
    assert [s.parent for s in rec.spans] == [None, 0, 0, 2]
    assert self_times(rec.spans) == [4.0, 2.0, 3.0, 1.0]


def test_self_time_counts_overlapping_children_once():
    spans = [Span("root", 0.0, 10.0), Span("x", 2.0, 6.0, 0), Span("y", 4.0, 8.0, 0),
             Span("z", 9.0, 12.0, 0)]  # z runs past the parent's end
    assert self_times(spans) == [10.0 - 6.0 - 1.0, 4.0, 4.0, 3.0]


def test_installed_wraps_and_restores():
    class Module:
        @staticmethod
        def double(x):
            return 2 * x

    original = Module.double
    rec = SpanRecorder(clock=fake_clock(itertools.count()))
    with installed(rec, [(Module, "double", lambda args, result: {"x": args[0]})]):
        assert Module.double(4) == 8
    assert Module.double is original
    (span,) = rec.spans
    assert span.name.endswith(".double") and span.attrs == {"x": 4}
    assert span.end - span.start == 1
