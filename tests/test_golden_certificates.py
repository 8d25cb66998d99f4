"""Certificates of the configuration templates and of the selftest, byte for byte.

``tests/data/<name>.cert`` is the certificate of ``configs/<name>.ini``,
and ``tests/data/selftest-seed<s>.cert`` that of ``smallhom selftest --seed
<s>`` (which carries no timings) for seeds 0, 1 and 7, so the property
suites' draws are pinned at three seeds; a change that alters any byte of
one must re-record it on purpose.
"""

from pathlib import Path

import pytest

from smallhom import cli

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.ini"))
DATA = Path(__file__).resolve().parent / "data"
SELFTEST_SEEDS = (0, 1, 7)
SELFTESTS = {DATA / f"selftest-seed{seed}.cert" for seed in SELFTEST_SEEDS}


def test_every_template_has_a_recorded_certificate():
    assert CONFIGS
    assert [c.stem for c in CONFIGS] == sorted(d.stem for d in DATA.glob("*.cert") if d not in SELFTESTS)


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.stem)
def test_certificate_is_byte_identical(config, tmp_path):
    out = tmp_path / f"{config.stem}.cert"
    assert cli.main(["certify", "--config", str(config), "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / f"{config.stem}.cert").read_bytes()


@pytest.mark.parametrize("seed", SELFTEST_SEEDS)
def test_selftest_certificate_is_byte_identical(seed, tmp_path):
    out = tmp_path / "selftest.cert"
    assert cli.main(["selftest", "--seed", str(seed), "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / f"selftest-seed{seed}.cert").read_bytes()
