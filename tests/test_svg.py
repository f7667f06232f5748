"""Tests for the SVG line charts."""

import os
import pathlib
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np

from fsim import svg

SVG = "{http://www.w3.org/2000/svg}"


def test_text_is_escaped(tmp_path):
    path = tmp_path / "chart.svg"
    title, label = "a < b & c", "g<hat> & co"
    svg.line_chart(path, np.linspace(0.0, 1.0, 5), {label: np.arange(5.0)}, title=title)
    texts = [node.text for node in ET.parse(path).getroot().iter(SVG + "text")]
    assert texts[0] == title
    assert texts[-1] == label


def test_cli_start_does_not_import_urllib():
    # xml.sax.saxutils.escape would import urllib.request and its own
    # dependencies, tens of milliseconds on every start of the CLI
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    code = "import sys, fsim.cli; print('urllib.request' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), check=True)
    assert done.stdout.strip() == "False"
