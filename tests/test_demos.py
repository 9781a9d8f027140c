"""The demos print what they printed when their output was recorded.

Each demo runs in a fresh interpreter in its own working directory, since
`video_token_bucket.py` writes `video_figure.svg` into the current one.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import rtpshape

DEMOS = Path(__file__).resolve().parent.parent / "demos"

EXPECTED = {
    "audio_leaky_bucket.py": """\
sender: 1500 packets, one every 20 ms
channel: uniform jitter up to 15 ms, 1500 packets arrive
leaky bucket: 1500 departures, 0 drops, peak occupancy 1 packets
departure spacing: 1492 of 1499 gaps are exactly 20 ms

                  before      after
jitter (us)     5763.231124          0
pdv max (us)       14976       8208

price paid: mean added latency 7266.568667 us, max 14976 us
""",
    "video_token_bucket.py": """\
sender: 1215 packets, 1023289 bytes over 20 s (51164 B/s mean)
token bucket: rate 61397 B/s (120% of mean), capacity 6000 tokens
shaped: 1215 departures, 160 of them delayed, peak queue 3600 bytes
  panel: incoming traffic (1215 points)
  panel: shaped traffic (1215 points)
  panel: packet queue (bytes) (2430 points)
  panel: tokens available (2430 points)
wrote video_figure.svg
""",
    "pcap_import.py": """\
capture: 23904 bytes
imported 1 RTP stream(s); the DNS noise was skipped
stream ssrc=0xCAFE, 100 packets of 160 bytes
duration: 1981444 us, 16000 bytes, loss: 0 packets
against the nominal 20 ms grid:
  interarrival jitter: 2173.788324 us
  delay variation: max 7910 us, p99 7864 us
""",
}


@pytest.mark.parametrize("demo", list(EXPECTED))
def test_demo_output(tmp_path, demo):
    src = str(Path(rtpshape.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(DEMOS / demo)], cwd=tmp_path,
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == EXPECTED[demo]
