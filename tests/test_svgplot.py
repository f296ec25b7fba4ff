"""SVG text escaping: &, < and > become entities, quotes stay as typed
(the rule of ``xml.sax.saxutils.escape``, which earlier versions used)."""

import xml.etree.ElementTree as ET

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
