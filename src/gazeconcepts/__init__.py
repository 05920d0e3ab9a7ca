"""Gaze event detection and concept-influence evaluation.

Detects fixations and saccades in fixed-rate gaze velocity sequences,
dissects saccades into pre/rise/peak/fall/post phases, and quantifies
how much each event concept overlaps the top-k steps of model feature
attributions.
"""

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
from .io import load_manifest
from .pipeline import RunConfig, run
from .synth import CorpusSpec, write_demo_corpus

__version__ = "0.1.0"
