"""Static SVG rendering of one-dimensional realizations.

Two panels: on the left, one row per vertex with its interval drawn as a
horizontal bar and the representative point as a dot; on the right, the
planar corner boxes with their lower-left corners on the dashed diagonal
x + y = 0.  All geometry is scaled deterministically and numbers are
printed with two decimals, so repeated renders are byte-identical.
Extremes are found among the realization's int numerators, and floats
come only from int true divisions of those, which round correctly: each
drawn number equals float() of the exact rational it stands for.  Each
vertex's elements in a panel are written by one "%" template: its row
heights _TOP + (i + 0.5) * _ROW are whole in floating point and are
written as ints with ".00", and every other number is "%.2f" of its
float, which is what _fmt writes for a number that is not negative.
"""

from __future__ import annotations

import math

from .realization import Realization, RealizationError

_PLOT = 320.0
_MARGIN = 20.0
_TOP = 30.0
_ROW = 22.0
_GAP = 40.0


def _fmt(x: float) -> str:
    s = f"{x:.2f}"
    return "0.00" if s == "-0.00" else s


# One vertex's elements in each panel.  Their numbers are never negative,
# so "%.2f" never writes the "-0.00" that _fmt guards against; an x drawn
# more than once is formatted once and passed as "%s".
_LEFT_ROW = (
    '<line x1="%s" y1="%d.00" x2="%s" y2="%d.00" stroke="#1f77b4" stroke-width="2"/>\n'
    '<line x1="%s" y1="%d.00" x2="%s" y2="%d.00" stroke="#1f77b4" stroke-width="2"/>\n'
    '<line x1="%s" y1="%d.00" x2="%s" y2="%d.00" stroke="#1f77b4" stroke-width="2"/>\n'
    '<circle cx="%.2f" cy="%d.00" r="3" fill="#d62728"/>\n'
    '<text x="4" y="%d.00">%d</text>'
)
_RIGHT_ROW = (
    '<rect x="%s" y="%.2f" width="%.2f" height="%.2f"'
    ' fill="#1f77b4" fill-opacity="0.12" stroke="#1f77b4"/>\n'
    '<circle cx="%s" cy="%.2f" r="3" fill="#d62728"/>\n'
    '<text x="%.2f" y="%.2f">%d</text>'
)


def render_realization_svg(r: Realization) -> str:
    if r.d != 1:
        raise RealizationError("SVG rendering handles d = 1 realizations")

    # every coordinate below is a numerator over den
    den = r.den
    los = [box[0][0] for box in r.boxes]
    his = [box[0][1] for box in r.boxes]
    pts = [point[0] for point in r.points]
    least, hi = min(los), max(his)
    lo, span = least, hi - least
    if span == 0:
        lo, span = lo - den, 2 * den

    n = r.n
    left_h = n * _ROW
    # corner boxes [p, R] x [-p, -L]; every point lies in its box, so x runs
    # from the least point to the greatest R and y from minus the greatest
    # point to minus the least L; the drawing is relative to the least x
    # and the greatest y.
    xmin = min(pts)
    wide = max(hi - xmin, max(pts) - least)
    if wide == 0:
        wide = 2 * den
        xmin -= den
        least -= den
    try:
        # the diagonal runs from L to R, the widest difference drawn
        pad = (hi - least) / den * 0.05
        wide_f = wide / den
    except OverflowError:
        raise RealizationError("coordinates too large to draw") from None
    scale = _PLOT / wide_f if wide_f else math.inf
    if scale == math.inf:
        raise RealizationError("coordinates too close together to draw")
    bx0 = _MARGIN + _PLOT + _GAP

    def bx(t) -> float:
        # x of the corner-box coordinate t
        return bx0 + (t - xmin) / den * scale

    def by(t) -> float:
        # y of the corner-box coordinate -t
        return _TOP + (t - least) / den * scale

    width = _MARGIN * 2 + _PLOT * 2 + _GAP
    height = _TOP + max(left_h, _PLOT) + _MARGIN

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}"'
        f' height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
        '<style>text{font-family:monospace;font-size:11px;fill:#333}</style>',
        f'<text x="{_fmt(_MARGIN)}" y="18">intervals and points</text>',
        f'<text x="{_fmt(bx0)}" y="18">corner boxes on x+y=0</text>',
    ]

    # row i's y is _TOP + (i + 0.5) * _ROW, an int in floating point
    rows = range(int(_TOP + _ROW / 2), int(_TOP + (n + 0.5) * _ROW), int(_ROW))
    for y, v, a, b, p in zip(rows, r.ids, los, his, pts):
        xa = "%.2f" % (_MARGIN + (a - lo) / span * _PLOT)
        xb = "%.2f" % (_MARGIN + (b - lo) / span * _PLOT)
        out.append(_LEFT_ROW % (
            xa, y, xb, y, xa, y - 4, xa, y + 4, xb, y - 4, xb, y + 4,
            _MARGIN + (p - lo) / span * _PLOT, y, y + 4, v,
        ))

    out.append(
        f'<line x1="{_fmt(bx(least) - pad * scale)}" y1="{_fmt(by(least) - pad * scale)}"'
        f' x2="{_fmt(bx(hi) + pad * scale)}" y2="{_fmt(by(hi) + pad * scale)}"'
        ' stroke="#999999" stroke-width="1" stroke-dasharray="4 3"/>'
    )
    # bx(p), by(a), by(p) and bx(b), written out
    for v, a, b, p in zip(r.ids, los, his, pts):
        x, ytop = "%.2f" % (bx0 + (p - xmin) / den * scale), _TOP + (a - least) / den * scale
        out.append(_RIGHT_ROW % (
            x, ytop, (b - p) / den * scale, (p - a) / den * scale,
            x, _TOP + (p - least) / den * scale,
            bx0 + (b - xmin) / den * scale - 12, ytop + 13, v,
        ))
    out.append("</svg>\n")  # the final newline, without a copy of the whole text
    return "\n".join(out)
