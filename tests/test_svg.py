"""SVG line plots: the tick labels of a fixed plot."""

import re

from tghnet.svg import render_plot


def test_tick_labels_sit_at_the_data_range_ends(tmp_path):
    # x ticks under the x axis, centred; y ticks left of the y axis, right-aligned;
    # each labelled with its value to 4 significant digits
    path = tmp_path / "plot.svg"
    render_plot(path, [([0.001234567, 2.5, 12345.6], [-1.25, 3.0, 0.5], "a"),
                       ([1.0, 2.0], [0.0, 1e-5], "")], title="t", xlabel="x", ylabel="y")
    ticks = re.findall(r'<text [^>]*font-size="10">[^<]*</text>', path.read_text())
    assert ticks == [
        '<text x="50.0" y="448" text-anchor="middle" font-size="10">0.001235</text>',
        '<text x="590.0" y="448" text-anchor="middle" font-size="10">1.235e+04</text>',
        '<text x="44" y="430.0" text-anchor="end" font-size="10">-1.25</text>',
        '<text x="44" y="50.0" text-anchor="end" font-size="10">3</text>',
    ]
