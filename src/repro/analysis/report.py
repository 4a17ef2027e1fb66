"""Plain-text table rendering for harness and benchmark output.

Every figure-reproduction bench prints the same rows/series the paper's
figure reports; these helpers keep that output aligned and uniform
without pulling in a plotting stack.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Union

Cell = Union[str, int, float]


def format_fraction(value: float, digits: int = 1) -> str:
    """Render a fraction as a signed percentage string (``-3.2%``)."""
    return f"{100.0 * value:+.{digits}f}%"


def _render_cell(value: Cell, width: int, numeric: bool) -> str:
    if isinstance(value, float):
        text = f"{value:.3f}"
    else:
        text = str(value)
    return text.rjust(width) if numeric else text.ljust(width)


def format_table(headers: Sequence[str],
                 rows: Iterable[Sequence[Cell]],
                 title: Optional[str] = None) -> str:
    """Render rows as an aligned monospace table.

    Numeric columns (every value int/float) right-align; text columns
    left-align.  Floats render with three decimals.
    """
    materialised: List[List[Cell]] = [list(row) for row in rows]
    for row in materialised:
        if len(row) != len(headers):
            raise ValueError(
                f"row width {len(row)} != header width {len(headers)}")
    n_cols = len(headers)
    numeric = [all(isinstance(row[c], (int, float)) for row in materialised)
               if materialised else False
               for c in range(n_cols)]
    widths = []
    for c in range(n_cols):
        cells = [_render_cell(row[c], 0, numeric[c]).strip()
                 for row in materialised]
        widths.append(max([len(headers[c])] + [len(x) for x in cells]))
    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    header_line = "  ".join(h.rjust(widths[c]) if numeric[c]
                            else h.ljust(widths[c])
                            for c, h in enumerate(headers))
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for row in materialised:
        lines.append("  ".join(_render_cell(row[c], widths[c], numeric[c])
                               for c in range(n_cols)))
    return "\n".join(lines)
