"""The log-log SVG writer on series and guides it cannot place on log axes."""

import pytest

from otlab.svgplot import loglog_svg

GOOD = ("measured", [0.1, 0.2, 0.4], [1.0, 0.5, 0.25])


def test_a_series_without_a_positive_point_is_left_out():
    empty = ("all zero", [0.1, 0.2, 0.4], [0.0, 0.0, -1.0])
    svg = loglog_svg([empty, GOOD], title="t")
    assert "all zero" not in svg
    assert svg == loglog_svg([GOOD], title="t")
    # the points that are positive are still drawn, the others not
    partial = ("partial", [0.1, 0.2, 0.4], [0.0, 0.5, 0.25])
    assert loglog_svg([partial]).count("<circle") == 2


def test_a_guide_with_a_non_positive_anchor_is_left_out():
    kept = (-1.0, 0.1, 1.0, "slope -1")
    for x0, y0 in ((0.1, 0.0), (0.0, 1.0), (0.1, -2.0), (float("nan"), 1.0)):
        svg = loglog_svg([GOOD], guides=[kept, (-2.0, x0, y0, "dropped")])
        assert "dropped" not in svg
        assert svg == loglog_svg([GOOD], guides=[kept])
    assert "slope -1" in loglog_svg([GOOD], guides=[kept])


def test_no_series_left_raises():
    with pytest.raises(ValueError, match="nothing positive"):
        loglog_svg([("zero", [1.0, 2.0], [0.0, 0.0]), ("negative x", [-1.0], [1.0])])
    with pytest.raises(ValueError, match="nothing positive"):
        loglog_svg([])
