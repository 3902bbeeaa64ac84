"""The standard frame format with a seeded hopping code.

Timing numbers follow the standard short-range TH-PPM setup this tool
targets: 0.8 ns pulses sampled at 50 GHz, 32 frames of 35 ns per symbol,
a 35-chip hopping alphabet with 1 ns chips, and a 1 ns PPM shift.  The
numbers themselves are the ``FrameConfig`` field defaults.
"""

from __future__ import annotations

from .waveform import FrameConfig, make_th_code

__all__ = [
    "DEFAULT_TH_SEED",
    "default_frame_config",
]

# First small seed whose uniform code draw satisfies the no-leak frame
# constraint (chips >= 34 would push a pulse past the frame end).
DEFAULT_TH_SEED = 0


def default_frame_config(th_seed: int = DEFAULT_TH_SEED) -> FrameConfig:
    """The standard frame format with a seeded hopping code."""
    template = FrameConfig()
    code = make_th_code(th_seed, template)
    return template.with_th_code(code)
