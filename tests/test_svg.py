"""Deterministic SVG rendering: byte-stable output, valid XML, and the
expected element inventory for both panels.
"""

import os
import random
import xml.etree.ElementTree as ET
from fractions import Fraction as F

import pytest

from andbox.constructors import blockwise_cand1, cycle_cand1
from andbox.families import random_block_graph
from andbox.realization import Realization, RealizationError
from andbox.svg import render_realization_svg

from conftest import (
    random_prime_denominator_realization,
    random_realization,
    random_tied_realization,
    reference_render_svg,
)

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def tag_counts(svg: str) -> dict:
    counts = {}
    for el in ET.fromstring(svg).iter():
        tag = el.tag.rsplit("}", 1)[-1]
        counts[tag] = counts.get(tag, 0) + 1
    return counts


def golden(name: str) -> str:
    with open(os.path.join(GOLDEN_DIR, name), "r", encoding="utf-8") as fh:
        return fh.read()


def test_matches_golden_bytes():
    assert render_realization_svg(cycle_cand1(4, F(1, 2))) == golden("square-cycle.svg")


def test_matches_golden_bytes_with_long_denominators():
    # block graph: denominators of up to 16 digits and negative coordinates
    r = blockwise_cand1(random_block_graph(40, 108).graph)
    coords = [x for _, box, point in r.items() for x in box[0] + point]
    assert max(len(str(x.denominator)) for x in coords) == 16
    assert min(coords) < 0
    assert render_realization_svg(r) == golden("block-graph-40.svg")


def test_matches_golden_bytes_for_one_point():
    # zero span and zero width: both panels fall back to a unit frame
    r = Realization.build(1, {1: ((F(-7, 3), F(-7, 3)), F(-7, 3))})
    assert render_realization_svg(r) == golden("one-point.svg")


@pytest.mark.parametrize("family", ["small", "tied", "prime", "huge", "tiny"])
def test_matches_fraction_reference(family):
    # every number drawn is float() of the exact Fraction it stands for
    rng = random.Random(f"svg-{family}")
    for _ in range(40):
        n = rng.randint(1, 30)
        if family == "small":
            r = random_realization(rng, n)
        elif family == "tied":
            r = random_tied_realization(rng, n)
        else:
            scale = {"prime": 1, "huge": F(10**300), "tiny": F(1, 10**300)}[family]
            r = random_prime_denominator_realization(rng, n, scale)
        assert render_realization_svg(r) == reference_render_svg(r)


def test_repeated_renders_are_identical():
    r = cycle_cand1(6, F(1, 4))
    assert render_realization_svg(r) == render_realization_svg(r)


def test_parses_as_xml_with_expected_inventory():
    rng = random.Random(3333)
    for _ in range(10):
        n = rng.randint(1, 9)
        r = random_realization(rng, n)
        svg = render_realization_svg(r)
        counts = tag_counts(svg)
        assert counts["svg"] == 1
        # per vertex: interval bar + two end ticks, plus the dashed diagonal
        assert counts["line"] == 3 * n + 1
        # a point dot in each panel
        assert counts["circle"] == 2 * n
        assert counts["rect"] == n
        # two panel captions plus a label per vertex per panel
        assert counts["text"] == 2 * n + 2


def test_zero_width_instance_renders():
    r = Realization.build(1, {1: ((F(1), F(1)), F(1))})
    svg = render_realization_svg(r)
    ET.fromstring(svg)
    assert 'width="720.00"' in svg


def test_rejects_higher_dimensions():
    r = Realization.build(2, {1: (((F(0), F(1)), (F(0), F(1))), (F(0), F(0)))})
    with pytest.raises(RealizationError):
        render_realization_svg(r)
