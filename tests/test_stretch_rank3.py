"""The paper's rank-3 numbers, read off the recorded certificate.

``tests/data/chain-rank3-f2.cert`` is the certificate of
``configs/chain-rank3-f2.ini``: the ``ChainRun`` pipeline over
F_2[x,y,z]/(x^2, y^2, z^2), the smallest coproduct-carrying algebra of
rank 3.  The golden-certificate test re-runs that pipeline and compares it
byte for byte; this test states what the certificate must say.
"""

from pathlib import Path

from smallhom import cli

CERT = Path(__file__).resolve().parent / "data" / "chain-rank3-f2.cert"


def test_rank3_hypercube_and_cone_oracle():
    cert = cli.parse_tree(CERT.read_text())["certificate"]
    results, verdicts = cert["results"], cert["verdicts"]
    assert cert["summary"] == "pass 11/11"
    assert set(verdicts.values()) == {"pass"}

    assert results["betti"] == "[1, 3, 6, 10]"
    assert results["k_tensor_dim"] == "512" and verdicts["lemma_projective"] == "pass"
    assert results["tensor_dims"] == {"0": "512", "1": "1536", "2": "1536", "3": "512"}
    assert results["hypercube_homology"] == {"0": "1", "1": "3", "2": "3", "3": "1"}

    cone = results["cone"]
    assert cone["homology"] == {"0": "1", "1": "3", "2": "2", "4": "2", "5": "3", "6": "1"}
    assert cone["oracle"] == cone["homology"]
    assert cone["total"] == "12"
    assert cone["length"] == cone["length_formula"] == "7"
