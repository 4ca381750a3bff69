"""Minimal SVG bar chart of experiment rejection rates (batch emission)."""

from __future__ import annotations

WIDTH, HEIGHT = 640, 320


def rejection_rate_svg(entries) -> str:
    """Bar chart string for a list of experiment entries."""
    n = len(entries)
    if n == 0:
        return "<svg xmlns='http://www.w3.org/2000/svg'/>"
    margin, base = 40, HEIGHT - 60
    bar_w = max(10, (WIDTH - 2 * margin) // max(1, n) - 10)
    parts = [f"<svg xmlns='http://www.w3.org/2000/svg' width='{WIDTH}' height='{HEIGHT}'>",
             f"<line x1='{margin}' y1='{base}' x2='{WIDTH - margin}' y2='{base}' "
             "stroke='black'/>"]
    for k, e in enumerate(entries):
        rate = float(e["rejection_rate"])
        h = int(rate * (base - 30))
        x = margin + k * (bar_w + 10)
        parts.append(f"<rect x='{x}' y='{base - h}' width='{bar_w}' height='{h}' "
                     "fill='steelblue'/>")
        parts.append(f"<text x='{x}' y='{base + 14}' font-size='9'>"
                     f"{e['dgp'][:10]}@{e['N']}</text>")
        parts.append(f"<text x='{x}' y='{base - h - 4}' font-size='9'>"
                     f"{rate:.2f}</text>")
    parts.append("</svg>")
    return "\n".join(parts)
