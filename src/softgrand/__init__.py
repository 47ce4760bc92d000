"""Guess-and-check decoding of short linear block codes with soft output.

The library decodes by flipping candidate noise patterns off the
hard-decision word in a likelihood-driven order and testing code-book
membership, maintains a per-query confidence LLR from the running sum of
guessed pattern probabilities against a geometric wrong-hit model, abandons
decoding when that LLR falls below a threshold, and ships a seeded Monte
Carlo harness for block-error, calibration, and query-cost experiments.
"""

from .channel import ChannelParams, transmit
from .codes import encode, make_rlc
from .decoder import DecodePolicy, decode

__version__ = "0.1.0"

__all__ = [
    "ChannelParams", "DecodePolicy", "decode", "encode", "make_rlc", "transmit",
    "__version__",
]
