"""Two-listener story: reliable decoding for one, starved decoding for the other.

The same transmission reaches a well-placed receiver and an eavesdropper
whose channel sits near the hard-detection limits.  An abandonment
threshold barely touches the good receiver but forces the eavesdropper to
discard nearly every block -- and the few blocks it keeps are far from
certain.

Run:  python3 demos/05_wiretap_operating_points.py  (about half a minute)
"""

import numpy as np

from softgrand.channel import capacity_markers
from softgrand.codes import make_rlc
from softgrand.harness import run_sweep, write_sweep_csv

code = make_rlc(128, 116, seed=1)
markers = capacity_markers(code.rate)
print(f"rate {code.k}/{code.n}: shannon marker {markers['shannon_ebn0_db']:.3f} dB, "
      f"min-capacity marker {markers['mincap_ebn0_db']:.3f} dB")

good_point = 6.0
eve_a = markers["shannon_ebn0_db"] - 3.0   # deep below the Shannon marker
eve_b = markers["mincap_ebn0_db"]          # at the min-capacity marker

result = run_sweep(code, (None, 0.0, 2.0), [good_point, eve_a, eve_b],
                   trials_per_point=10_000, master_seed=7)

names = {good_point: "receiver @ 6 dB",
         eve_a: f"eavesdropper @ marker-3dB ({eve_a:.2f} dB)",
         eve_b: f"eavesdropper @ min-capacity ({eve_b:.2f} dB)"}
print()
print(f"{'point':<42} {'policy':<9} {'kept':>7} {'cond. correct':>14} {'avg q':>9}")
for st in result.stats:
    cond = "n/a" if st.nonabandon_frac == 0 else f"{st.success_cond:.3f}"
    print(f"{names[st.ebn0_db]:<42} {st.policy:<9} {st.nonabandon_frac:>7.4f} "
          f"{cond:>14} {st.avg_queries_to_decision:>9.1f}")

write_sweep_csv("wiretap_points.csv", result.stats,
                meta={"master_seed": 7, "trials": 10_000,
                      "code": "rlc:128:116:1"})
print("\nwrote wiretap_points.csv (+ .json sidecar)")
print("reading the table: with tau=2 the good receiver keeps ~everything at")
print("unchanged correctness, while the eavesdropper keeps ~1% of blocks and")
print("is wrong on a visible fraction of even those.")
