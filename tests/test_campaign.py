import numpy as np
import pytest

from entfrac import campaign
from entfrac.errors import OutOfRangeError

LEAN = campaign.SAMPLER_BUDGET

TSIRELSON = 2.0 * np.sqrt(2.0)


def test_header_matches_contract():
    assert campaign.CSV_COLUMNS == (
        "index,family,param1,param2,F,E,C,F_T_max,"
        "B_canonical,B_max_angles,lower_ok,upper_ok"
    )
    header = campaign.records_csv([]).splitlines()[0]
    assert header == campaign.CSV_COLUMNS


def test_rerun_is_identical():
    a = campaign.run_campaign(12, seed=7)
    b = campaign.run_campaign(12, seed=7)
    assert campaign.records_csv(a) == campaign.records_csv(b)


def test_worker_count_does_not_change_output():
    solo = campaign.records_csv(campaign.run_campaign(7, seed=5, family="fig2", workers=1))
    split = campaign.records_csv(campaign.run_campaign(7, seed=5, family="fig2", workers=3))
    assert solo == split
    # index order survives the chunked merge
    got = [int(line.split(",")[0]) for line in split.splitlines()[1:]]
    assert got == list(range(7))


@pytest.mark.parametrize(
    "family,n_params",
    [("raw", 0), ("fig2", 2), ("werner", 1), ("lower", 2), ("upper", 1)],
)
def test_family_rows_are_sane(family, n_params):
    for rec in campaign.run_campaign(5, seed=11, family=family):
        params = [p for p in (rec.param1, rec.param2) if p is not None]
        assert len(params) == n_params
        assert all(0.0 <= p <= np.pi for p in params)
        assert 0.25 - 1e-12 <= rec.f <= 1.0 + 1e-12
        assert rec.f_t_max == pytest.approx((1.0 + 2.0 * rec.f) / 3.0, abs=1e-15)
        assert rec.lower_ok and rec.upper_ok
        # the canonical setting is one member of the searched family
        assert rec.b_canonical <= rec.b_max_angles + 1e-9
        assert rec.b_max_angles <= TSIRELSON * rec.f + 1e-9


def test_row_formatting():
    rec = campaign.SampleRecord(
        index=3, family="werner", param1=0.5, param2=None,
        f=0.625, e=0.25, c=0.25, f_t_max=0.75,
        b_canonical=np.sqrt(2.0), b_max_angles=np.sqrt(2.0),
        lower_ok=True, upper_ok=False,
    )
    row = campaign.record_row(rec)
    assert row == "3,werner,0.5,,0.625,0.25,0.25,0.75,1.41421356237,1.41421356237,1,0"


def test_csv_uses_lf_and_trailing_newline():
    text = campaign.records_csv(campaign.run_campaign(2, seed=0))
    assert "\r" not in text
    assert text.endswith("\n") and not text.endswith("\n\n")
    assert len(text.splitlines()) == 3


def test_json_records_keep_missing_params_null():
    recs = campaign.run_campaign(2, seed=0, family="werner")
    docs = campaign.records_json(recs)
    assert docs[0]["param2"] is None
    assert isinstance(docs[0]["lower_ok"], bool)


def test_first_bound_violation():
    recs = campaign.run_campaign(6, seed=2, family="fig2")
    assert campaign.first_bound_violation(recs) is None
    import dataclasses
    broken = dataclasses.replace(recs[3], lower_ok=False)
    assert campaign.first_bound_violation(recs[:3] + [broken]) is broken


def test_bound_lines_table():
    text = campaign.bound_lines_csv(101)
    lines = text.splitlines()
    assert lines[0] == "E,C_min,C_max"
    assert len(lines) == 102
    assert lines[1] == "0,0,0.5"
    assert lines[-1] == "1,1,1"
    with pytest.raises(OutOfRangeError):
        campaign.bound_lines_csv(1)


def test_rejects_bad_arguments():
    with pytest.raises(OutOfRangeError):
        campaign.run_campaign(0)
    with pytest.raises(OutOfRangeError):
        campaign.run_campaign(3, family="nope")
    with pytest.raises(OutOfRangeError):
        campaign.run_campaign(3, workers=0)


def test_single_record_matches_campaign_row():
    rec = campaign.sample_record("fig2", 9, 4, LEAN)
    assert rec == campaign.run_campaign(5, seed=9, family="fig2")[4]


def test_row_below_two_to_the_63_is_pinned():
    # frozen when the Philox key became a uint64 array; key words below 2^63
    # are the same integers as before, so the draws are too
    rec = campaign.sample_record("raw", 2**63 - 1, 5)
    assert campaign.record_row(rec) == (
        "5,raw,,,0.584853108203,0.169706216407,0.19239583086,0.723235405469,"
        "1.01503789396,1.28447299633,1,1"
    )


def test_workers_capped_at_cpu_count(monkeypatch):
    sizes = []

    def no_pool(max_workers):
        # record the pool size asked for; start no process
        sizes.append(max_workers)
        raise RuntimeError("no processes in this test")

    monkeypatch.setattr(campaign, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(campaign.os, "cpu_count", lambda: 3)
    with pytest.raises(RuntimeError):
        campaign.run_campaign(1000, workers=1000)
    assert sizes == [3]
    # an unknown core count means one worker, so no pool at all
    monkeypatch.setattr(campaign.os, "cpu_count", lambda: None)
    assert len(campaign.run_campaign(2, workers=8)) == 2
    assert sizes == [3]
