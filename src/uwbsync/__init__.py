"""Baseband simulator and two-floor timing synchronizer for UWB TH-PPM radios."""

from .waveform import (
    ConfigError,
    FrameConfig,
    SampledWaveform,
    SymbolSequence,
    monocycle,
    sampled_monocycle,
    draw_th_code,
    generate_tx,
)
from .channel import (
    ChannelRealization,
    LinkParams,
    generate_cm1,
    single_path,
    propagate,
    aggregate_template,
    partial_energies,
    rms_delay_spread,
    taps_to_text,
    taps_from_text,
)
from .sync import (
    CoarseConfig,
    FineConfig,
    SyncEstimate,
    training_pattern,
    coarse_sync,
    fine_sync,
    two_floor_sync,
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
