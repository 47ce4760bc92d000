"""Golden outputs: SHA-256 of the files small seeded CLI runs write.

The other tests compare configurations with each other (batch sizes,
worker counts, separate decodes); these hold the bytes themselves fixed,
so a speed-up that changes any outcome, query count or confidence digit
of a seeded run fails here.
"""

import hashlib
import json

import pytest

from softgrand.cli import main

CODE = ["--code", "rlc:128:116:1", "--seed", "3"]

GOLDEN = {
    # Four thresholds at 6-8 dB: almost every decode stops within 64
    # queries, a few run deep.
    "soft_sweep": (
        ["--mode", "sweep", "--tau", "none,0,1,2", "--ebn0", "6:1:8",
         "--trials", "1000", "--trials-csv"],
        {"sweep.csv": "47bce4c6d5c3145a2647f316410da33364996ba02aa0b01bf73239475d208a7d",
         "trials.csv": "6d4b1c97c158d93014b3d21aad49ec4e59e2b30f35c9257fa71cf5c874e9dfac"}),
    # Hamming order with hard-detection (BSC) accounting.
    "grand_sweep": (
        ["--mode", "sweep", "--decoder", "grand", "--tau", "none,2",
         "--ebn0", "4:1:6", "--trials", "200", "--trials-csv"],
        {"sweep.csv": "d4eda3bb796c88627ec05f5be0ffb6016da48715cf9ebb9df60fa2a781962964",
         "trials.csv": "fc6f76ffce4cf16ead98228655fe904979cd2ac146ce1948d4954be325540b1d"}),
    # The eavesdropper's operating points: tau=2 at 1.115 dB escalates to
    # eight times the base trials.
    "wiretap_sweep": (
        ["--mode", "sweep", "--tau", "0,2", "--ebn0", "1.115278,1.488889",
         "--trials", "150", "--trials-csv"],
        {"sweep.csv": "424f8ce3d43f76f4f055e630ddd2ea646cb3611b0110f3f7b0f4ea532db88ff9",
         "trials.csv": "0bee13cbfa37baf3abbf33728c802a5d8eb96b5f9d6cb1f564613c3ccf516dd6"}),
    # Deep searches that carry the confidence ledger: at 0-1 dB the
    # tau=none rows run through 4096-query chunks, and the last bit of a
    # flip sum shows in trials.csv.
    "deep_ledger_sweep": (
        ["--mode", "sweep", "--tau", "none,0,2", "--ebn0", "0:1:3",
         "--trials", "200", "--trials-csv"],
        {"sweep.csv": "ca0a12a539e1a17578f5d61b467ebaa89c0eb040acd4aae6080e8875106093f3",
         "trials.csv": "d906214ace9ccc8f1130bec164a6b26160001f6465963cb8615014077773b989"}),
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_sweep_outputs_are_golden(name, tmp_path):
    argv, digests = GOLDEN[name]
    assert main(argv + CODE + ["--out", str(tmp_path)]) == 0
    assert {f: _sha256(tmp_path / f) for f in digests} == digests


def test_wiretap_run_escalates(tmp_path):
    argv, _ = GOLDEN["wiretap_sweep"]
    main(argv + CODE + ["--out", str(tmp_path)])
    rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
    assert max(int(r.split(",")[2]) for r in rows) == 1200


def test_bsc_fig1_is_golden(tmp_path):
    """Hamming order with BSC accounting in fig1 mode, which decodes its
    trials in blocks under tau=None, as a sweep does."""
    argv = ["--mode", "fig1", "--code", "rlc:64:54:1", "--decoder", "grand",
            "--ebn0", "1", "--trials", "200", "--seed", "3", "--out", str(tmp_path)]
    assert main(argv) == 0
    assert _sha256(tmp_path / "fig1.csv") == (
        "c1703f0a5a894c1c3d53874cb42a3e2a6fd5fceb2ce43499417aad2697417e9a")
    fig1 = json.loads((tmp_path / "fig1.csv.json").read_text())["fig1"]
    assert (fig1["samples"], fig1["trials"]) == (200, 215)


def test_soft_fig1_is_golden(tmp_path):
    """Logistic order with soft accounting in fig1 mode at 0 dB, where every
    decode searches about 4000 queries deep."""
    argv = ["--mode", "fig1", "--code", "rlc:128:116:1", "--ebn0", "0",
            "--trials", "200", "--seed", "3", "--out", str(tmp_path)]
    assert main(argv) == 0
    assert _sha256(tmp_path / "fig1.csv") == (
        "b2240aa447aa8f3df11ed374e4006c6950e4c6b375afe47b0f8830d59a6d3e29")
    fig1 = json.loads((tmp_path / "fig1.csv.json").read_text())["fig1"]
    assert (fig1["samples"], fig1["trials"]) == (200, 201)
