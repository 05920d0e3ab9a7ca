"""Gaze event detection and concept-influence evaluation.

Detects fixations and saccades in fixed-rate gaze velocity sequences,
dissects saccades into pre/rise/peak/fall/post phases, and quantifies
how much each event concept overlaps the top-k steps of model feature
attributions.
"""

from .binning import BinSpec, BinnedInfluence, bin_events, binned_influence
from .detect import (
    DetectionParams,
    GazeEvent,
    detect_fixations_ivt,
    detect_saccades_ek,
    ek_noise_threshold,
    compute_event_properties,
    retained,
)
from .dissect import SaccadeDissection, SubEvent, dissect_saccade
from .errors import (
    AlignmentError,
    ConfigError,
    DataError,
    DegenerateDataError,
    EmptyConceptError,
    FormatError,
    GazeError,
    SizeError,
)
from .influence import (
    ConceptSegmentation,
    InfluenceResult,
    TopKSegmentation,
    aggregate_influence,
    concept_influence,
    concept_segmentation,
    default_k,
    squash_channels,
    topk_segmentation,
)
from .io import (
    AttributionMap,
    GazeRecording,
    RunManifest,
    load_attribution,
    load_gaze_csv,
    load_manifest,
    read_events,
    select_eye,
    write_events,
    write_gaze_csv,
    write_report,
)
from .pipeline import RunConfig, run
from .preprocess import (
    ChannelStats,
    SavGolParams,
    VelocityWindow,
    WindowStack,
    clamp_velocities,
    compute_channel_stats,
    savgol_derivative,
    savgol_weights,
    window_sequence,
    zscore_normalize,
)
from .synth import (
    CorpusSpec,
    PlannedFixation,
    PlannedSaccade,
    ScanpathSpec,
    TrueEvent,
    gen_proxy_attributions,
    gen_scanpath,
    ground_truth_in_window,
    positional_noise_sigma,
    random_plan,
    write_demo_corpus,
)

__version__ = "0.1.0"
