import xml.etree.ElementTree as ET

import pytest

from imids_sim.charts import Series, line_chart

SVG_NS = "{http://www.w3.org/2000/svg}"


def render(series, title="t", x="x", y="y"):
    return ET.fromstring(line_chart(series, title, x, y))


def test_output_is_wellformed_svg_with_one_polyline_per_series():
    root = render([
        Series("alpha", (0, 1, 2), (5, 3, 4)),
        Series("beta", (0, 1, 2), (1, 2, 0)),
    ])
    assert root.tag == f"{SVG_NS}svg"
    assert len(root.findall(f"{SVG_NS}polyline")) == 2


def test_legend_and_axis_labels_present():
    root = render(
        [Series("IMIDS", (0, 10), (70, 55))],
        title="alive nodes",
        x="time (s)",
        y="alive nodes",
    )
    texts = [t.text for t in root.iter(f"{SVG_NS}text")]
    assert "IMIDS" in texts
    assert "time (s)" in texts
    assert "alive nodes" in texts


def test_single_point_series_falls_back_to_a_dot():
    root = render([Series("only", (3,), (7,))])
    assert root.findall(f"{SVG_NS}polyline") == []
    assert len(root.findall(f"{SVG_NS}circle")) == 1


def test_markup_in_labels_is_escaped():
    doc = line_chart(
        [Series("<b>&bad</b>", (0, 1), (0, 1))], "a < b", "x & y", "y"
    )
    assert "<b>" not in doc
    assert "&bad" not in doc
    ET.fromstring(doc)  # still parses


def test_points_stay_inside_the_canvas():
    root = render([
        Series("wide", tuple(range(50)), tuple((x * 37) % 11 - 5 for x in range(50))),
    ])
    for poly in root.findall(f"{SVG_NS}polyline"):
        for pair in poly.attrib["points"].split():
            x, y = map(float, pair.split(","))
            assert 0 <= x <= 760
            assert 0 <= y <= 440


def test_mismatched_lengths_and_empty_input_are_rejected():
    with pytest.raises(ValueError):
        Series("bad", (0, 1), (0,))
    with pytest.raises(ValueError):
        line_chart([], "t", "x", "y")


def test_series_without_points_get_axes_and_a_legend_but_no_line():
    doc = line_chart([Series("a", (), ()), Series("b", (), ())], "t", "x", "y")
    root = ET.fromstring(doc)
    assert not root.findall(f"{SVG_NS}polyline") and not root.findall(f"{SVG_NS}circle")
    assert "nan" not in doc and ">a<" in doc and ">b<" in doc


def test_flat_series_is_padded_not_degenerate():
    # constant y must not divide by zero
    doc = line_chart([Series("flat", (0, 1, 2), (4, 4, 4))], "t", "x", "y")
    assert "nan" not in doc and "inf" not in doc
