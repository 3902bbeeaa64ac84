"""Baseband simulator and two-floor timing synchronizer for UWB TH-PPM radios."""

from .waveform import (
    ConfigError,
    FrameConfig,
    SampledWaveform,
    sampled_monocycle,
    draw_th_code,
)
from .channel import (
    ChannelRealization,
    generate_cm1,
    single_path,
    propagate,
    generate_tx,
    aggregate_template,
    partial_energies,
)
from .sync import (
    CoarseConfig,
    FineConfig,
    training_pattern,
    coarse_sync,
    fine_sync,
)
from .harness import (
    ExperimentPlan,
    MseRecord,
    TrialResult,
    wrapped_error,
    run_trial,
    run_sweep,
    records_to_csv,
)

__version__ = "0.1.0"
