"""Acceptance criteria, one test per criterion, one printed line each.

Every expected value here is exact; there are no tolerances anywhere.
"""

import pytest

from smallhom import acceptance


def _report(result, capsys):
    with capsys.disabled():
        print(f"\n{result.line()}")
        for note in result.details:
            print(f"    {note}")
    assert result.passed, result.details


def test_criterion_1_symbolic_total_rank8(capsys):
    _report(acceptance.criterion_symbolic_total(), capsys)


def test_criterion_2_closed_form_totals(capsys):
    _report(acceptance.criterion_closed_form(), capsys)


def test_criterion_3_lefschetz_profile(capsys):
    _report(acceptance.criterion_lefschetz_profile(), capsys)


def test_criterion_4_construction_rank1(capsys):
    _report(acceptance.criterion_rank1_construction(), capsys)


def test_criterion_5_hypercube_rank2(capsys):
    _report(acceptance.criterion_rank2_hypercube(), capsys)


def test_criterion_6_oracle_equivalence(capsys):
    _report(acceptance.criterion_oracle_equivalence(), capsys)


def test_criterion_7_bimodule_variant(capsys):
    _report(acceptance.criterion_bimodule_variant(), capsys)


def test_criterion_8_family_lengths(capsys):
    _report(acceptance.criterion_family_lengths(), capsys)


def test_criterion_9_property_suites(capsys):
    _report(acceptance.criterion_property_suites(seed=0), capsys)


def test_negative_control_sign_corruption(capsys):
    _report(acceptance.control_sign_corruption(), capsys)


def test_run_all_aggregates(monkeypatch):
    runs = []
    real = acceptance.rank2_report

    def recorded(coproduct="primitive"):
        runs.append(coproduct)
        return real(coproduct)

    monkeypatch.setattr(acceptance, "rank2_report", recorded)
    results = acceptance.run_all(seed=0)
    assert len(results) == 9
    assert all(r.passed for r in results)
    # the hypercube and oracle criteria share one primitive rank-2 run
    assert sorted(runs) == ["primitive", "shifted"]
