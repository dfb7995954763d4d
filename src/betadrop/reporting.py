"""Sparsity reports: CSV emission/parsing and a static SVG tradeoff plot.

CSV schema (stable column order, '.' decimal separator, LF line endings):
method,kl_scale,error_pct,speedup,memory_pct,kept_counts
Kept counts are dash-joined ("137-90-37"); floats are written with repr so a
parse round trip reproduces the exact values.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import DataFormatError, DomainError

CSV_HEADER = ["method", "kl_scale", "error_pct", "speedup", "memory_pct", "kept_counts"]


@dataclass
class SparsityReport:
    method: str  # "bb" | "dbb" | "pretrained" ...
    kl_scale: float
    error_pct: float
    speedup: float
    memory_pct: float
    kept_counts: list[int] = field(default_factory=list)

    def __post_init__(self):
        # the name goes unescaped into the SVG and the RESULT line's key=value pairs
        if not (isinstance(self.method, str) and re.fullmatch(r"[\w.-]+", self.method, re.ASCII)):
            raise DomainError(f"method must be a non-empty run of letters, digits, '_', '.' "
                              f"and '-', got {self.method!r}")
        if not (math.isfinite(self.kl_scale) and math.isfinite(self.speedup)):
            raise DomainError(f"kl_scale and speedup must be finite, got {self.kl_scale} and "
                              f"{self.speedup}")
        if not 0.0 <= self.error_pct <= 100.0:  # also rejects NaN
            raise DomainError(f"error_pct must lie in [0, 100], got {self.error_pct}")
        if self.speedup < 1.0 - 1e-12:
            raise DomainError(f"speedup must be >= 1, got {self.speedup}")
        if not 0.0 < self.memory_pct <= 100.0 + 1e-12:
            raise DomainError(f"memory_pct must lie in (0, 100], got {self.memory_pct}")

    def result_line(self) -> str:
        kept = "-".join(str(k) for k in self.kept_counts)
        return (
            f"RESULT method={self.method} kl_scale={self.kl_scale:g} "
            f"error_pct={self.error_pct:.4f} speedup={self.speedup:.4f} "
            f"memory_pct={self.memory_pct:.4f} kept={kept}"
        )


def emit_report_csv(reports: list[SparsityReport], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for r in reports:
            writer.writerow(
                [
                    r.method,
                    repr(float(r.kl_scale)),
                    repr(float(r.error_pct)),
                    repr(float(r.speedup)),
                    repr(float(r.memory_pct)),
                    "-".join(str(int(k)) for k in r.kept_counts),
                ]
            )


def parse_report_csv(path) -> list[SparsityReport]:
    """The reports of a CSV that :func:`emit_report_csv` wrote; any other
    content raises :class:`~betadrop.errors.DataFormatError`."""
    out: list[SparsityReport] = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CSV_HEADER:
            raise DataFormatError(f"{path}: unexpected report header {header}")
        for row in reader:
            try:
                method, kl_scale, err, speedup, mem, kept = row
                out.append(
                    SparsityReport(
                        method=method,
                        kl_scale=float(kl_scale),
                        error_pct=float(err),
                        speedup=float(speedup),
                        memory_pct=float(mem),
                        kept_counts=[int(k) for k in kept.split("-")] if kept else [],
                    )
                )
            except ValueError as exc:  # DomainError is a ValueError too
                raise DataFormatError(f"{path} line {reader.line_num}: {exc}") from None
    return out


def _extent(values) -> tuple[float, float]:
    """The least of ``values`` and their span, or 1 for a span of 0."""
    lo = min(values, default=0.0)
    return lo, (max(values, default=0.0) - lo) or 1.0


def emit_tradeoff_svg(reports: list[SparsityReport], path) -> None:
    """Error vs speedup, one polyline per method, SVG 1.1, 480 x 360 pixels."""
    width, height = 480, 360
    methods: dict[str, list[SparsityReport]] = {}
    for r in reports:
        methods.setdefault(r.method, []).append(r)
    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b"]
    pad = 45.0
    # every method is mapped against the extents of all points, so methods share axes
    x0, xr = _extent([r.speedup for r in reports])
    y0, yr = _extent([r.error_pct for r in reports])
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="45" y1="{height - 45}" x2="{width - 20}" y2="{height - 45}" stroke="black"/>',
        f'<line x1="45" y1="20" x2="45" y2="{height - 45}" stroke="black"/>',
        f'<text x="{width // 2}" y="{height - 12}" font-size="12" '
        f'text-anchor="middle">speedup (x)</text>',
        f'<text x="14" y="{height // 2}" font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 14 {height // 2})">test error (%)</text>',
    ]
    for mi, (method, rs) in enumerate(sorted(methods.items())):
        rs = sorted(rs, key=lambda r: r.speedup)
        xs = np.array([r.speedup for r in rs])
        ys = np.array([r.error_pct for r in rs])
        px = pad + (xs - x0) / xr * (width - 2 * pad)
        py = height - pad - (ys - y0) / yr * (height - 2 * pad)
        color = palette[mi % len(palette)]
        pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(px, py))
        lines.append(
            f'<polyline class="series-{method}" points="{pts}" fill="none" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        for x, y in zip(px, py):
            lines.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="{color}"/>')
        lines.append(
            f'<text x="{width - 150}" y="{30 + 16 * mi}" font-size="12" '
            f'fill="{color}">{method}</text>'
        )
    lines.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
