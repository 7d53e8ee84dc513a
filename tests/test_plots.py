import re

import numpy as np

from luq.plots import PALETTE, svg_line_plot


def test_two_series_with_band_and_a_nan(tmp_path):
    x = np.linspace(0.0, 4.0, 5)
    prediction = np.array([0.0, 1.0, np.nan, 3.0, 4.0])
    target = x + 0.5
    paths = [tmp_path / "a.svg", tmp_path / "b.svg"]
    for path in paths:
        svg_line_plot(path, x, [("prediction", prediction), ("target", target)],
                      band=(target - 1.0, target + 1.0), title="t", x_label="x", y_label="y")
    assert paths[0].read_bytes() == paths[1].read_bytes()
    svg = paths[0].read_text()

    assert f'fill="{PALETTE[0]}">prediction</text>' in svg
    assert f'fill="{PALETTE[1]}">target</text>' in svg
    assert svg.count("<polygon") == 1
    lines = dict(re.findall(r'<polyline [^>]*stroke="([^"]+)"[^>]*points="([^"]*)"', svg))
    xs = [[float(p.split(",")[0]) for p in lines[c].split()] for c in PALETTE[:2]]
    # the NaN point is left out of the prediction line, not of the target line
    assert len(xs[0]) == 4 and len(xs[1]) == 5
    assert xs[1][2] not in xs[0]
    assert re.search(r"\bnan\b", svg) is None


def test_band_points_that_are_not_finite_are_left_out(tmp_path):
    x = np.linspace(0.0, 5.0, 6)
    lower = np.array([0.0, np.nan, 1.0, 2.0, 3.0, 4.0])
    upper = np.array([1.0, 2.0, 3.0, np.inf, 5.0, 6.0])
    path = tmp_path / "band.svg"
    svg_line_plot(path, x, [("mean", x)], band=(lower, upper))
    svg = path.read_text()

    (points,) = re.findall(r'<polygon [^>]*points="([^"]*)"', svg)
    xs = [float(p.split(",")[0]) for p in points.split()]
    # indices 1 and 3 dropped from both edges: four points forward, four back
    assert len(xs) == 8 and xs[:4] == xs[:3:-1]
    line = re.search(r'<polyline [^>]*points="([^"]*)"', svg).group(1)
    line_xs = [float(p.split(",")[0]) for p in line.split()]
    assert xs[:4] == [line_xs[i] for i in (0, 2, 4, 5)]
    assert re.search(r"\bnan\b|\binf\b", points) is None
