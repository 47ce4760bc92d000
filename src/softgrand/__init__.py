"""Guess-and-check decoding of short linear block codes with soft output.

The library decodes by flipping candidate noise patterns off the
hard-decision word in a likelihood-driven order and testing code-book
membership, maintains a per-query confidence LLR from the running sum of
guessed pattern probabilities against a geometric wrong-hit model, abandons
decoding when that LLR falls below a threshold, and ships a seeded Monte
Carlo harness for block-error, calibration, and query-cost experiments.
"""

from .channel import (ChannelParams, SoftObservation, bsc_crossover,
                      capacity_markers, flip_probability, transmit)
from .codes import LinearCode, encode, is_codeword, make_crc, make_rlc, syndrome
from .decoder import DecodeOutcome, DecodePolicy, decode, extract_message
from .harness import (ErrorQueryDistribution, GuardError, OracleReport,
                      SweepResult, SweepStats, collect_error_query_distribution,
                      oracle_exact_accounting, run_sweep, write_sweep_csv,
                      write_trials_csv)
from .patterns import (QueryOrder, QueryPattern, pattern_log_probability,
                       query_patterns, realized_positions)
from .softout import (ConfidenceLedger, LlrReport, confidence_llr,
                      p_incorrect_cum, record_query)

__version__ = "0.1.0"

__all__ = [
    "ChannelParams", "SoftObservation", "bsc_crossover", "capacity_markers",
    "flip_probability", "transmit",
    "LinearCode", "encode", "is_codeword", "make_crc", "make_rlc", "syndrome",
    "DecodeOutcome", "DecodePolicy", "decode", "extract_message",
    "ErrorQueryDistribution", "GuardError", "OracleReport", "SweepResult",
    "SweepStats", "collect_error_query_distribution", "oracle_exact_accounting",
    "run_sweep", "write_sweep_csv", "write_trials_csv",
    "QueryOrder", "QueryPattern", "pattern_log_probability", "query_patterns",
    "realized_positions",
    "ConfidenceLedger", "LlrReport", "confidence_llr", "p_incorrect_cum",
    "record_query",
    "__version__",
]
