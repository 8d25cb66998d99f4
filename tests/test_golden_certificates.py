"""Certificates of the configuration templates, byte for byte.

``tests/data/<name>.cert`` is the certificate of ``configs/<name>.ini``;
a change that alters any byte of one must re-record it on purpose.
"""

from pathlib import Path

import pytest

from smallhom import cli

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.ini"))
DATA = Path(__file__).resolve().parent / "data"


def test_every_template_has_a_recorded_certificate():
    assert CONFIGS
    assert [c.stem for c in CONFIGS] == sorted(d.stem for d in DATA.glob("*.cert"))


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.stem)
def test_certificate_is_byte_identical(config, tmp_path):
    out = tmp_path / f"{config.stem}.cert"
    assert cli.main(["certify", "--config", str(config), "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / f"{config.stem}.cert").read_bytes()
