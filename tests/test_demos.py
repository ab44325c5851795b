"""Every demo script runs to completion against the package in ``src``,
so a change to the public API cannot silently break one; the codec
demo's output is pinned, so its fitted codebooks cannot drift either."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
PINNED_STDOUT = {"codebook_and_rates": """\
quantizing 400 requests, rates 0.5-3 kW, durations 0.5-4.5 epochs

   Q   mean distortion (kW^2 epochs)
   1   3.1306
   2   1.6945
   4   0.9783
   8   0.4580
  16   0.3458

smallest codebook with rate-weighted distortion <= 6.0
at 12.0 arrivals per interval: Q = 8

  id  rate_kw  duration
   1    0.970         1
   2    2.405         1
   3    1.028         2
   4    2.132         2
   5    0.997         3
   6    2.260         3
   7    1.465         4
   8    2.447         4

communication footprint at that size:
  per-home uplink      0.0933 bit/s (12 arrivals/interval, 16-slot arrival window)
  aggregate uplink     30.72 bits per 900-s interval
  threshold feedback   0.0047 bit/s (cutoff correlation 0.9, variance 4)
"""}


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_exits_cleanly(demo, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr[-2000:]
    if demo.stem in PINNED_STDOUT:
        assert proc.stdout == PINNED_STDOUT[demo.stem]
