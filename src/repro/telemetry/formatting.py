"""Shared human-readable formatting for telemetry quantities.

Both CLI surfaces that report wire statistics — the one-shot
``repro compress`` path and the training ``repro train`` path — print
through these helpers, so the two always expose the same field names
with the same units.
"""

from __future__ import annotations

Fields = list[tuple[str, str]]


def wire_stats_fields(raw_nbytes: float, wire_nbytes: float,
                      framing_nbytes: float,
                      kernel_seconds: float) -> Fields:
    """The canonical wire-stats block (one-shot and training paths).

    ``raw_nbytes`` is the uncompressed tensor traffic, ``wire_nbytes``
    what the compressor actually put on the wire, ``framing_nbytes`` the
    header overhead of :mod:`repro.core.wire`'s byte format, and
    ``kernel_seconds`` the measured compress wall time (training sums it
    over every (rank, unit) call).
    """
    ratio = wire_nbytes / raw_nbytes if raw_nbytes else 0.0
    return [
        ("raw size", f"{raw_nbytes:,.0f} bytes"),
        ("wire size", f"{wire_nbytes:,.0f} bytes"),
        ("compression", f"{ratio:.4f}x"),
        ("framing overhead", f"{framing_nbytes:,.0f} bytes"),
        ("kernel time", format_seconds(kernel_seconds)),
    ]


def format_seconds(seconds: float) -> str:
    """Millisecond rendering for kernel-scale durations."""
    return f"{seconds * 1e3:.3f} ms"


def render_fields(fields: Fields, width: int = 17) -> str:
    """Aligned ``name : value`` lines matching the CLI's house style."""
    return "\n".join(f"{name:<{width}}: {value}" for name, value in fields)
