"""Trace the confidence LLR through one decode, with and without a threshold.

Run:  python3 demos/04_confidence_trace.py
"""

import math

import numpy as np

from softgrand.channel import ChannelParams, transmit
from softgrand.codes import encode, make_rlc
from softgrand.decoder import decode_batch
from softgrand.patterns import (QueryOrder, pattern_log_probability,
                                query_patterns, realized_positions)
from softgrand.softout import (ConfidenceLedger, confidence_llr, record_query)

rng = np.random.default_rng(12)
code = make_rlc(32, 20, seed=5)
params = ChannelParams(ebn0_db=2.0, rate=code.rate)

cw = encode(code, rng.integers(0, 2, size=code.k, dtype=np.uint8))
obs = transmit(cw, params, rng)
print(f"[{code.n},{code.k}] block at {params.ebn0_db} dB, "
      f"{int(np.sum(obs.hard != cw))} hard errors")

# replay the ledger by hand for the first queries: the LLR starts at the
# confidence of the top pattern and drifts down as wrong-hit mass grows
order = QueryOrder("logistic", code.n)
ledger = ConfidenceLedger(redundancy=code.redundancy)
trace = []
for pat in query_patterns(order):
    pos = realized_positions(pat, order, obs)
    record_query(ledger, pattern_log_probability(obs, pos))
    trace.append(confidence_llr(ledger).llr_bits)
    if ledger.q >= 2000:
        break
print("confidence LLR after q queries:")
for q in (1, 2, 5, 10, 50, 200, 1000, 2000):
    print(f"  q = {q:>5}: {trace[q - 1]:+.3f} bits")

# the decoder reports the same number at its stopping point; one scan of a
# one-row block serves every threshold, since only the abandonment test
# depends on tau: row j of the result is the outcome under taus[j]
taus = (None, 0.0, 2.0, 6.0)
batch = decode_batch(code, obs.hard[np.newaxis], obs.reliab[np.newaxis], taus)
decoded, qs, llrs = batch.decoded[:, 0], batch.q[:, 0], batch.llr_bits[:, 0]
print(f"\ntau=None: decoded at q={qs[0]}, llr={llrs[0]:+.3f} bits, "
      f"correct={bool(np.array_equal(batch.words[0], cw))}")
for tau, hit, q, llr in zip(taus[1:], decoded[1:], qs[1:], llrs[1:]):
    if hit:
        print(f"tau={tau:g}: decoded at q={q} (llr {llr:+.3f} >= {tau:g} throughout)")
    else:
        print(f"tau={tau:g}: abandoned at q={q} (llr {llr:+.3f} < {tau:g})")

# optional picture of the trace
try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("\nmatplotlib not installed; skipping plot")
else:
    qs = np.arange(1, len(trace) + 1)
    plt.figure(figsize=(6, 4))
    plt.semilogx(qs, trace, lw=1.5)
    plt.axvline(qs[0], color="tab:green", ls="--", label=f"decode q={qs[0]}")
    for tau, color in ((0.0, "tab:orange"), (2.0, "tab:red")):
        plt.axhline(tau, color=color, ls=":", label=f"tau={tau:g}")
    plt.xlabel("queries q")
    plt.ylabel("confidence LLR (bits)")
    plt.title(f"[{code.n},{code.k}] block at {params.ebn0_db} dB")
    plt.legend()
    plt.tight_layout()
    plt.savefig("confidence_trace.png", dpi=120)
    print("\nwrote confidence_trace.png")
