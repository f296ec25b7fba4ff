"""SVG plot output: text escaping (&, < and > become entities, quotes
stay as typed, the rule of ``xml.sax.saxutils.escape``, which earlier
versions used) and point lists that hold only finite numbers."""

import math
import xml.etree.ElementTree as ET

import pytest

from mpslab.svgplot import line_plot


def test_text_escaping(tmp_path):
    path = tmp_path / "figure.svg"
    line_plot(path, [{"x": [1, 2, 3], "y": [3.0, 1.0, 2.0],
                      "band": ([2.5, 0.5, 1.5], [3.5, 1.5, 2.5]),
                      "label": "a<b & \"c\" > 'd'"}],
              title="Loss & <chi> \"mean\" 'sigma'",
              xlabel="chi < 10 & \"bond\"", ylabel="loss > 0 'test'")
    text = path.read_text()
    for want in (
            '>Loss &amp; &lt;chi&gt; "mean" \'sigma\'</text>',
            '>chi &lt; 10 &amp; "bond"</text>',
            '>loss &gt; 0 \'test\'</text>',
            '>a&lt;b &amp; "c" &gt; \'d\'</text>'):
        assert text.count(want) == 1, want
    assert "&quot;" not in text and "&#x27;" not in text
    # well-formed XML whose text content reads back as given
    texts = {el.text for el in ET.parse(path).getroot()
             if el.tag.endswith("text")}
    assert texts >= {"Loss & <chi> \"mean\" 'sigma'", "chi < 10 & \"bond\"",
                     "loss > 0 'test'", "a<b & \"c\" > 'd'"}


def points_of(path, tag):
    """The parsed (x, y) pairs of every ``tag`` element's points."""
    return [[tuple(float(v) for v in pair.split(","))
             for pair in el.get("points").split()]
            for el in ET.parse(path).getroot() if el.tag.endswith(tag)]


def test_curves_and_bands_break_at_non_finite_values(tmp_path):
    """A non-finite mean or band value splits the curve or band there;
    every drawn coordinate is a finite number."""
    nan, inf = float("nan"), float("inf")
    path = tmp_path / "figure.svg"
    line_plot(path, [{"x": [1, 2, 3, 4, 5], "y": [3.0, nan, 1.0, 2.0, 2.5],
                      "band": ([2.5, 1.0, 0.5, nan, 2.0],
                               [3.5, 2.0, 1.5, inf, 3.0])}],
              title="scan")
    lines, bands = points_of(path, "polyline"), points_of(path, "polygon")
    assert [len(line) for line in lines] == [1, 3]
    assert [len(band) for band in bands] == [6, 2]
    assert all(math.isfinite(v) for shape in lines + bands
               for point in shape for v in point)


def test_nothing_finite_to_plot_names_the_title(tmp_path):
    nan = float("nan")
    with pytest.raises(ValueError, match="'fig2: test_loss vs chi'"):
        line_plot(tmp_path / "figure.svg",
                  [{"x": [1, 2], "y": [nan, nan], "band": ([nan] * 2,) * 2}],
                  title="fig2: test_loss vs chi")


@pytest.mark.parametrize("x, y", [(2.0, 2.0), (3.0, 1.0)])
def test_ticks_of_an_empty_range_span_one_unit(tmp_path, x, y):
    """A one-point x axis and a flat curve have empty ranges, which
    ``line_plot`` widens to one unit: each axis draws finite ticks from
    the value to one unit above it, the x ticks across the plot width."""
    path = tmp_path / "figure.svg"
    line_plot(path, [{"x": [x], "y": [y]}], title="one point")
    ticks = {"middle": [], "end": []}  # x and y tick labels by anchor
    for el in ET.parse(path).getroot():
        if el.tag.endswith("text") and el.get("font-size") == "11":
            ticks[el.get("text-anchor")].append(
                (float(el.text), float(el.get("x")), float(el.get("y"))))
    for axis, lo in (("middle", x), ("end", y)):
        values = [t[0] for t in ticks[axis]]
        assert all(math.isfinite(v) for t in ticks[axis] for v in t)
        assert (values[0], values[-1]) == (lo, lo + 1.0)
        assert values == sorted(values)
    x_px = [t[1] for t in ticks["middle"]]
    assert (x_px[0], x_px[-1]) == (70.0, 620.0)  # MARGIN_L, WIDTH - MARGIN_R
