"""Default parameter set shared by the CLI, the tests, and the docs.

Timing numbers follow the standard short-range TH-PPM setup this tool
targets: 0.8 ns pulses sampled at 50 GHz, 32 frames of 35 ns per symbol,
a 35-chip hopping alphabet with 1 ns chips, and a 1 ns PPM shift.
"""

from __future__ import annotations

from .waveform import FrameConfig, make_th_code
from .harness import ExperimentPlan

__all__ = [
    "DEFAULT_TH_SEED",
    "DEFAULT_BASE_SEED",
    "default_frame_config",
    "default_plan",
]

# First small seed whose uniform code draw satisfies the no-leak frame
# constraint (chips >= 34 would push a pulse past the frame end).
DEFAULT_TH_SEED = 0

DEFAULT_BASE_SEED = 20260801


def default_frame_config(th_seed: int = DEFAULT_TH_SEED) -> FrameConfig:
    """The standard frame format with a seeded hopping code."""
    template = FrameConfig()
    code = make_th_code(th_seed, template)
    return template.with_th_code(code)


def default_plan(**overrides) -> ExperimentPlan:
    kwargs = dict(frame_cfg=default_frame_config(), base_seed=DEFAULT_BASE_SEED)
    kwargs.update(overrides)
    return ExperimentPlan(**kwargs)
