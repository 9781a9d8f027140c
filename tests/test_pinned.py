"""Pinned run artifacts: the sha256 of every file `rtpshape run` writes for
the pinned scenarios (`AUDIO_RUN_CONFIG`, `VIDEO_RUN_CONFIG` and the README
scenario).

A refactor preserves behaviour only if these hashes do not change. The
values were recorded before the Q64 jitter rewrite, so they also pin the
rendered output of the exact-`Fraction` jitter it replaced. A change that
moves a byte on purpose must update the table and say why.
"""

import hashlib

import pytest

from rtpshape.cli import main

from test_acceptance import AUDIO_RUN_CONFIG, VIDEO_RUN_CONFIG

# The scenario in README.md: 60 s CBR audio, 1/100 loss, one leaky stage.
README_SCENARIO = """\
generator.kind = audio
generator.ptime_us = 20000
generator.payload_bytes = 125
generator.duration_us = 60000000
channel.jitter = uniform(0,15000)
channel.loss_prob = 1/100
channel.seed = 42
pipeline.0.type = leaky
pipeline.0.capacity_packets = 15
pipeline.0.drain_interval_us = 20000
"""

CONFIGS = {"audio": AUDIO_RUN_CONFIG, "video": VIDEO_RUN_CONFIG,
           "readme": README_SCENARIO}

PINNED = {
    "audio": {
        "comparison.csv":
            "a3ceb547698a396f9d351c9b206255206e13ea73b7c961126eb6e70524ee9fb9",
        "input.csv":
            "4b4138b1812ac5202523422f8fe2fd8bdf519e534fb85ff74109011f065fe5b0",
        "metrics.input.jitter.csv":
            "2821fbac6e647cfd73b661d13dd64a9d06f2619261d915afec1f460cad341721",
        "metrics.input.pdv.csv":
            "78701aa16ab8fe669c81123fbf3a5261aef72ed3981254c9eb3c3ea9acf968ea",
        "metrics.input.summary.csv":
            "533876d4bedb6e2101f68725546e0d6b5d4fa98e06f0cee26cb58bbcee0bb4fe",
        "metrics.input.throughput.csv":
            "f61d720aca18d1b90f3068c329b4ec03265c6fce6f765871bb22c05abac99242",
        "metrics.output.jitter.csv":
            "c90993a8c09b3bd9e714f7ab66c407ddf23190bb669984ef579835d2d9d40d5f",
        "metrics.output.pdv.csv":
            "f9b85b414690619b2df0a5ad8b0c9d4194ce72e7cd05f20a32bae2b81dcd8e18",
        "metrics.output.summary.csv":
            "5365a12758e77ba262f21b845b90e06df4825c92899197c742d2c71134be6fce",
        "metrics.output.throughput.csv":
            "f61d720aca18d1b90f3068c329b4ec03265c6fce6f765871bb22c05abac99242",
        "stage0.drops.csv":
            "f75d214ea0025f7bb3bfaca736d64df8e753e79bbf3f47d48adc90c87c5b63db",
        "stage0.figure.panels.csv":
            "061387d92ca53e569866b06adcea3c8562885dec7caac51ad10c404b08d02e62",
        "stage0.figure.svg":
            "18c6ae890390cf29a0167449153f09a42df434d44eb02563d9659e62cec96405",
        "stage0.input.csv":
            "4b4138b1812ac5202523422f8fe2fd8bdf519e534fb85ff74109011f065fe5b0",
        "stage0.occupancy.csv":
            "16d7d56e4a2ae1f0847e239b2c7993a3a0fcc2dead6f067e082281c0417180cc",
        "stage0.shaped.csv":
            "e3fdc94dbd2671fe23d0587ddb9ee04e22aff43978207e98498360e577cea64a",
    },
    "video": {
        "comparison.csv":
            "bd74edbad302e1574973811eb693dcb4687ac1f9d2eba269f76a182c9c1c9f14",
        "input.csv":
            "889caad89468a5d1dce7052b9522dfcef714e560b430c4f69bf89c5b9cf0f5b9",
        "metrics.input.jitter.csv":
            "44eeb7e26aa0139c6a1d1148c24848f69910971694a8eb5965de3f4089f15a86",
        "metrics.input.pdv.csv":
            "27ceb5e440341c648af49b0910681999c7f34247e5f2aea05d0818d47fb538fc",
        "metrics.input.summary.csv":
            "d2f02f07229876f4f03f5030ddf420b58677bfb2f25f3fbe7df68a9f6605c400",
        "metrics.input.throughput.csv":
            "73ef9472b846f096ee24f7e265ea2fd7b3e83262c89c9fb5312c22446b961be2",
        "metrics.output.jitter.csv":
            "44eeb7e26aa0139c6a1d1148c24848f69910971694a8eb5965de3f4089f15a86",
        "metrics.output.pdv.csv":
            "27ceb5e440341c648af49b0910681999c7f34247e5f2aea05d0818d47fb538fc",
        "metrics.output.summary.csv":
            "d2f02f07229876f4f03f5030ddf420b58677bfb2f25f3fbe7df68a9f6605c400",
        "metrics.output.throughput.csv":
            "73ef9472b846f096ee24f7e265ea2fd7b3e83262c89c9fb5312c22446b961be2",
        "stage0.drops.csv":
            "f75d214ea0025f7bb3bfaca736d64df8e753e79bbf3f47d48adc90c87c5b63db",
        "stage0.figure.panels.csv":
            "bdcc05462e73f022f87f63664700ddb07c8c87a283cec87753a81268b99de4b1",
        "stage0.figure.svg":
            "c43e4f7cb240f42b76bcaea9f59786cbff8fa4d42ac28d6b572fd2280eb31741",
        "stage0.input.csv":
            "889caad89468a5d1dce7052b9522dfcef714e560b430c4f69bf89c5b9cf0f5b9",
        "stage0.occupancy.csv":
            "26d16ac17e048213e092b94c82e607750a270b0c556b6583e8540158bf895284",
        "stage0.shaped.csv":
            "889caad89468a5d1dce7052b9522dfcef714e560b430c4f69bf89c5b9cf0f5b9",
    },
    "readme": {
        "comparison.csv":
            "e71e50af7b2c7cbfdc59387d0e575ff4b21ced6c8e224998f060e349750cfe7a",
        "input.csv":
            "f781a65b95915696a6026f42fc8ea2f606fd46c03d9649c91d483ed34893da6c",
        "metrics.input.jitter.csv":
            "1876ea5fe21685e5010f79020c042f3c50f2ae0532f08a2b42a2a4b1840b2099",
        "metrics.input.pdv.csv":
            "c374320d3ce253be7f49afe32a489b661019e1c540ea1f1636e73c586d82f81c",
        "metrics.input.summary.csv":
            "01e89caa71e9821a1a693d6ed66e03b745a5b149657da3f6539bb6d78f826f30",
        "metrics.input.throughput.csv":
            "dc039ff9710943ee021ecd97ae9ad0d41ff154ff5d70615e1bf5977cfeb25620",
        "metrics.output.jitter.csv":
            "f5889eb336d05f4e521265335112ea7e5767bed34c104cd67e09898c07f7d630",
        "metrics.output.pdv.csv":
            "4c4731c27d09642865c7218eecb4c7401500d8b1cb7a7a41fa6fcc0bc989b646",
        "metrics.output.summary.csv":
            "cdcac9c299f421a3496e0b88432589c61a5d2e1b5be531bd541213ab69ff4fc2",
        "metrics.output.throughput.csv":
            "dc039ff9710943ee021ecd97ae9ad0d41ff154ff5d70615e1bf5977cfeb25620",
        "stage0.drops.csv":
            "f75d214ea0025f7bb3bfaca736d64df8e753e79bbf3f47d48adc90c87c5b63db",
        "stage0.figure.panels.csv":
            "9e5cf2d224829b673b4e8d1b85415e296e8d402fe019fd23e45e1da4ebaf261a",
        "stage0.figure.svg":
            "887ea956c8fc1f83f4fdb2f8b65afd8aa13c7fdaf182fee6ada648f423dcd168",
        "stage0.input.csv":
            "f781a65b95915696a6026f42fc8ea2f606fd46c03d9649c91d483ed34893da6c",
        "stage0.occupancy.csv":
            "515db3938b79b9ec895fc16df6946aac4da1acb5c48af2eaa4d358b79bc253a2",
        "stage0.shaped.csv":
            "a0d755569cef3deac0d4d9fdf79fed88621ca7c33aa38f7240519c60735634f1",
    },
}


@pytest.mark.parametrize("scenario", sorted(CONFIGS))
def test_run_directory_matches_pinned_hashes(scenario, tmp_path, capsys):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(CONFIGS[scenario])
    out = tmp_path / "run"
    assert main(["run", "--config", str(cfg), "--output", str(out)]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(out.iterdir())}
    assert got == PINNED[scenario]
