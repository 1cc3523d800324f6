"""Static SVG rendering of one-dimensional realizations.

Two panels: on the left, one row per vertex with its interval drawn as a
horizontal bar and the representative point as a dot; on the right, the
planar corner boxes with their lower-left corners on the dashed diagonal
x + y = 0.  All geometry is scaled deterministically and numbers are
printed with two decimals, so repeated renders are byte-identical.
"""

from __future__ import annotations

from .realization import Realization, RealizationError

_PLOT = 320.0
_MARGIN = 20.0
_TOP = 30.0
_ROW = 22.0
_GAP = 40.0


def _fmt(x: float) -> str:
    s = f"{x:.2f}"
    return "0.00" if s == "-0.00" else s


def _esc(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_realization_svg(r: Realization) -> str:
    if r.d != 1:
        raise RealizationError("SVG rendering handles d = 1 realizations")

    coords = [c for _, box, _ in r.items() for c in box[0]]
    lo, hi = min(coords), max(coords)
    span = hi - lo
    if span == 0:
        lo, span = lo - 1, 2

    def sx(t) -> float:
        return _MARGIN + float((t - lo) / span) * _PLOT

    n = r.n
    left_h = n * _ROW
    # corner boxes [p, R] x [-p, -L]; the drawing is relative to xmin and
    # ymax, so to_corner_boxes' positivity shift would cancel exactly
    corners = [(v, (p, hi), (-p, -lo)) for v, ((lo, hi),), (p,) in r.items()]
    xs = [x for _, xf, _ in corners for x in xf]
    ys = [y for _, _, yf in corners for y in yf]
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    wide = max(xmax - xmin, ymax - ymin)
    if wide == 0:
        wide = 2
        xmin -= 1
        ymax += 1
    scale = _PLOT / float(wide)
    bx0 = _MARGIN + _PLOT + _GAP

    def bx(t) -> float:
        return bx0 + float(t - xmin) * scale

    def by(t) -> float:
        return _TOP + float(ymax - t) * scale

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

    for i, (v, box, point) in enumerate(r.items()):
        (a, b) = box[0]
        p = point[0]
        y = _TOP + (i + 0.5) * _ROW
        out.append(
            f'<line x1="{_fmt(sx(a))}" y1="{_fmt(y)}" x2="{_fmt(sx(b))}"'
            f' y2="{_fmt(y)}" stroke="#1f77b4" stroke-width="2"/>'
        )
        for end in (a, b):
            out.append(
                f'<line x1="{_fmt(sx(end))}" y1="{_fmt(y - 4)}"'
                f' x2="{_fmt(sx(end))}" y2="{_fmt(y + 4)}"'
                f' stroke="#1f77b4" stroke-width="2"/>'
            )
        out.append(
            f'<circle cx="{_fmt(sx(p))}" cy="{_fmt(y)}" r="3" fill="#d62728"/>'
        )
        out.append(f'<text x="4" y="{_fmt(y + 4)}">{_esc(str(v))}</text>')

    d0 = min(xmin, -ymax)
    d1 = max(xmax, -ymin)
    pad = float(d1 - d0) * 0.05
    out.append(
        f'<line x1="{_fmt(bx(d0) - pad * scale)}" y1="{_fmt(by(-d0) - pad * scale)}"'
        f' x2="{_fmt(bx(d1) + pad * scale)}" y2="{_fmt(by(-d1) + pad * scale)}"'
        ' stroke="#999999" stroke-width="1" stroke-dasharray="4 3"/>'
    )
    for v, (xl, xh), (yl, yh) in corners:
        out.append(
            f'<rect x="{_fmt(bx(xl))}" y="{_fmt(by(yh))}"'
            f' width="{_fmt(float(xh - xl) * scale)}"'
            f' height="{_fmt(float(yh - yl) * scale)}"'
            ' fill="#1f77b4" fill-opacity="0.12" stroke="#1f77b4"/>'
        )
        out.append(
            f'<circle cx="{_fmt(bx(xl))}" cy="{_fmt(by(yl))}" r="3" fill="#d62728"/>'
        )
        out.append(
            f'<text x="{_fmt(bx(xh) - 12)}" y="{_fmt(by(yh) + 13)}">'
            f'{_esc(str(v))}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
