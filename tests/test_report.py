import json
import math
from dataclasses import asdict, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privacy_lab import (
    MarketParams,
    ParamError,
    SweepSpec,
    privacy_subsidy,
    subsidy_analysis,
    sweep,
    write_report_bundle,
)
from privacy_lab._render import _cell, _to_csv
from privacy_lab.equilibrium import FORMS, _closed_forms
from privacy_lab.report import SWEEP_CSV_COLUMNS, ReportRow, regime_label, sweep_to_csv
from privacy_lab.welfare import FeeBreakEven, SubsidyAnalysis, WelfareDecomposition

SQRT2 = math.sqrt(2.0)
UNIT = MarketParams(1.0, 1.0)

TABLE1_ROUNDED = {
    0.0: (0.500, 1.000, 0.000),
    0.5: (0.447, 1.118, 0.112),
    1.0: (0.354, 1.414, 0.354),
    SQRT2: (0.289, 1.732, 0.577),
    2.0: (0.224, 2.236, 0.894),
    3.0: (0.158, 3.162, 1.423),
    5.0: (0.098, 5.099, 2.451),
}


class TestSweep:
    def test_dimensionless_table_rounds_to_reference(self):
        spec = SweepSpec(UNIT, tuple(sorted(TABLE1_ROUNDED)), frozenset({"equilibrium", "welfare"}))
        for row in sweep(spec):
            lam3, beta3, sub3 = TABLE1_ROUNDED[row.sigma_eps]
            assert round(row.lam, 3) == lam3
            assert round(row.beta, 3) == beta3
            assert round(row.subsidy, 3) == sub3

    def test_single_point_sweep(self):
        (row,) = sweep(SweepSpec(UNIT, (0.0,), frozenset({"equilibrium", "welfare"})))
        assert (round(row.lam, 3), round(row.beta, 3), round(row.subsidy, 3)) == (0.5, 1.0, 0.0)
        assert row.note == "textbook Kyle"
        # a slotted plain record: no instance dict, and the dataclass
        # helpers, equality and repr of a record
        assert not hasattr(row, "__dict__")
        assert asdict(row) == {
            "sigma_eps": 0.0, "note": "textbook Kyle", "lam": 0.5, "beta": 1.0, "pi_I": 0.5, "pi_N": -0.5,
            "pi_M": 0.0, "subsidy": 0.0, "d1": None, "d2": None, "fee_rate": None,
        }
        assert replace(row, note="other") == ReportRow(0.0, "other", 0.5, 1.0, 0.5, -0.5, -0.0, 0.0)
        assert replace(row, note="other") != row
        assert ReportRow(**asdict(row)) == row
        assert repr(row) == (
            "ReportRow(sigma_eps=0.0, note='textbook Kyle', lam=0.5, beta=1.0, pi_I=0.5, pi_N=-0.5, pi_M=-0.0, "
            "subsidy=0.0, d1=None, d2=None, fee_rate=None)"
        )

    def test_outputs_control_population(self):
        (row,) = sweep(SweepSpec(UNIT, (1.0,), frozenset({"equilibrium"})))
        assert row.lam is not None
        assert row.pi_I is None and row.subsidy is None and row.fee_rate is None

        (row,) = sweep(SweepSpec(UNIT, (1.0,), frozenset({"fee"})))
        assert row.fee_rate is not None and row.lam is None

    @pytest.mark.parametrize("values", [(), (1.0, 1.0), (2.0, 1.0), (-1.0,), (math.nan,), (True, 2.0), ("0.5",), (0, 10**400), 5])
    def test_bad_grids_rejected(self, values):
        with pytest.raises(ParamError) as exc:
            sweep(SweepSpec(UNIT, values))
        assert exc.value.field == "sigma_eps_values"

    def test_unknown_output_rejected(self):
        for outputs in (frozenset({"volatility"}), frozenset({5, "x"})):
            with pytest.raises(ParamError) as exc:
                sweep(SweepSpec(UNIT, (1.0,), outputs))
            assert exc.value.field == "outputs"

    @pytest.mark.parametrize("outputs", [frozenset(), "fee"])
    def test_outputs_must_be_a_nonempty_collection(self, outputs):
        with pytest.raises(ParamError) as exc:
            sweep(SweepSpec(UNIT, (1.0,), outputs))
        assert exc.value.field == "outputs"

    def test_every_record_field_is_a_named_closed_form(self):
        # the records read their fields from the kernel tuple by these names
        assert len(set(FORMS)) == len(FORMS) == len(_closed_forms(1.0, 1.0, 1.0))
        for record in (WelfareDecomposition, SubsidyAnalysis, FeeBreakEven, ReportRow):
            for f in fields(record):
                assert f.name in FORMS or (record is ReportRow and f.name in ("sigma_eps", "note")), (record, f.name)


class TestCsvEmission:
    def test_header_schema(self):
        text = sweep_to_csv(sweep(SweepSpec(UNIT, (0.0, 1.0))))
        assert text.split("\n")[0] == ",".join(SWEEP_CSV_COLUMNS)
        assert text.split("\n")[0] == "sigma_eps,lambda,beta,pi_I,pi_N,pi_M,subsidy,d1,d2,fee_rate,note"

    def test_byte_identical_reruns(self):
        spec = SweepSpec(UNIT, (0.0, 0.5, 1.0, SQRT2))
        assert sweep_to_csv(sweep(spec)) == sweep_to_csv(sweep(spec))

    def test_floats_round_trip(self):
        rows = sweep(SweepSpec(UNIT, (1.0,)))
        line = sweep_to_csv(rows).split("\n")[1]
        cells = line.split(",")
        parsed = float(cells[1])
        assert parsed == rows[0].lam

    def test_unpopulated_columns_are_empty(self):
        text = sweep_to_csv(sweep(SweepSpec(UNIT, (1.0,), frozenset({"equilibrium"}))))
        cells = text.split("\n")[1].split(",")
        by_col = dict(zip(SWEEP_CSV_COLUMNS, cells))
        assert by_col["pi_I"] == "" and by_col["fee_rate"] == ""
        assert by_col["lambda"] != ""
        # a hand-built row of int, bool and None cells goes through _cell
        row = ReportRow(2, "note", lam=True, pi_I=3, fee_rate=False)
        assert sweep_to_csv([row]).split("\n")[1] == "2,true,,3,,,,,,false,note"

    MIXED_ROWS = (
        (1.5, None, "a b", True, 3),
        (None, 2.0, "100%", False, -7),
        (0.1, 5e-324, -0.0, math.inf, -math.nan),
        (None, None, None),
        (1.0, None, "note"),
        (None, 1.0, "note"),
        (1.0, None, "note"),
        ("only",),
        (),
        [2.5, None],
        {"a": 1.0, "b": "x"}.values(),
    )

    def test_to_csv_matches_the_per_cell_reference(self):
        # the "%" template of each cell-type sequence against _cell, with the
        # None pattern changing from row to row within one call
        want = "\n".join(["h1,h2", *(",".join(map(_cell, row)) for row in self.MIXED_ROWS)]) + "\n"
        assert _to_csv(("h1", "h2"), self.MIXED_ROWS) == want

    @settings(derandomize=True, deadline=None, max_examples=200, database=None)
    @given(st.lists(st.lists(st.one_of(st.floats(), st.none(), st.text(max_size=4), st.booleans(), st.integers()))))
    def test_to_csv_matches_the_per_cell_reference_on_any_rows(self, rows):
        want = "\n".join(["h", *(",".join(map(_cell, row)) for row in rows)]) + "\n"
        assert _to_csv(("h",), rows) == want

    def test_format_float_is_round_trip_exact(self):
        # a float, and a number of another type (the cell's last line)
        for x in (0.1, 1 / 3, 0.35355339059327373, 1.0607e6, 5e-324):
            assert float(_cell(x)) == x
            assert _cell(np.float64(x)) == _cell(x)


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("bundle")
    assert write_report_bundle(outdir).ok
    return outdir


def read_rows(path) -> list[dict[str, float]]:
    """The rows of an all-numeric bundle CSV, keyed by its header."""
    header, *lines = path.read_text().splitlines()
    return [dict(zip(header.split(","), map(float, line.split(",")))) for line in lines]


class TestBtcTable:
    # the published approximate values this calibration should land near
    APPROX = {0.1: 15_000.0, 0.5: 335_000.0, 1.0: 1_060_000.0, SQRT2: 1_730_000.0, 2.0: 2_680_000.0}
    FRACTIONS = {0.1: 0.005, 0.5: 0.112, 1.0: 0.354, SQRT2: 0.577, 2.0: 0.894}

    def test_subsidies_within_one_percent(self, bundle):
        rows = read_rows(bundle / "table2.csv")
        assert [row["sigma_eps_over_sigma_u"] for row in rows] == list(self.APPROX)
        for row in rows:
            approx = self.APPROX[row["sigma_eps_over_sigma_u"]]
            assert abs(row["subsidy_usd_per_day"] - approx) / approx <= 0.01

    def test_fractions_round_to_reference(self, bundle):
        for row in read_rows(bundle / "table2.csv"):
            assert round(row["fraction_of_sigma_v_sigma_u"], 3) == self.FRACTIONS[row["sigma_eps_over_sigma_u"]]

    def test_sqrt2_row_is_symbolic(self, bundle):
        rows = {r["sigma_eps_over_sigma_u"]: r for r in read_rows(bundle / "table2.csv")}
        assert rows[SQRT2]["sigma_eps"] == SQRT2 * 1000.0

    def test_csv_has_header(self, bundle):
        text = (bundle / "table2.csv").read_text()
        assert text.startswith("sigma_eps_over_sigma_u,sigma_eps,subsidy_usd_per_day,fraction_of_sigma_v_sigma_u\n")

    def test_sweep_gives_the_same_subsidies(self, bundle):
        rows = read_rows(bundle / "table2.csv")
        spec = SweepSpec(MarketParams(3000.0, 1000.0), [row["sigma_eps"] for row in rows], {"welfare"})
        assert [r.subsidy for r in sweep(spec)] == [row["subsidy_usd_per_day"] for row in rows]


class TestSubsidyCurve:
    def test_endpoints_and_monotonicity(self, bundle):
        points = [(row["sigma_eps"], row["subsidy"]) for row in read_rows(bundle / "figure1.csv")]
        assert len(points) == 101
        assert points[0] == (0.0, 0.0)
        assert points[-1][0] == 5.0
        assert round(points[-1][1], 3) == 2.451
        subs = [s for _, s in points]
        assert all(b > a for a, b in zip(subs, subs[1:]))

    def test_inflection_marker(self, bundle):
        inflection = json.loads((bundle / "figure1.json").read_text())["inflection"]
        assert inflection == SQRT2 == subsidy_analysis(UNIT).inflection
        assert round(privacy_subsidy(MarketParams(1.0, 1.0, inflection)), 3) == 0.577

    def test_sidecar_and_csv(self, bundle):
        assert (bundle / "figure1.csv").read_text().startswith("sigma_eps,subsidy\n")
        assert (bundle / "figure1.json").read_text() == '{"inflection": 1.4142135623730951}\n'

    def test_sweep_gives_the_same_curve(self, bundle):
        rows = read_rows(bundle / "figure1.csv")
        spec = SweepSpec(UNIT, [row["sigma_eps"] for row in rows], {"welfare"})
        assert [r.subsidy for r in sweep(spec)] == [row["subsidy"] for row in rows]


class TestFeeRevenueComparison:
    def test_btc_narrative(self, bundle):
        cmp = json.loads((bundle / "fee_comparison.json").read_text())
        assert math.isclose(cmp["revenue_usd"], 1e6, rel_tol=1e-12)
        assert math.isclose(cmp["subsidy_usd"], 1060660.1717798212, rel_tol=1e-12)
        assert 5.0 <= cmp["shortfall_pct"] <= 7.0
        assert math.isclose(cmp["shortfall_pct"], 6.066017177982116, rel_tol=1e-9)


class TestReportBundle:
    def test_bundle_writes_and_verifies(self, tmp_path):
        result = write_report_bundle(tmp_path)
        assert result.ok, result.mismatches
        names = {p.split("/")[-1] for p in result.files}
        assert names == {"table1.csv", "table2.csv", "figure1.csv", "figure1.json", "fee_comparison.json"}
        for f in result.files:
            assert (tmp_path / f.split("/")[-1]).exists()

    def test_bundle_is_deterministic(self, tmp_path):
        write_report_bundle(tmp_path / "a")
        write_report_bundle(tmp_path / "b")
        for name in ("table1.csv", "table2.csv", "figure1.csv", "figure1.json", "fee_comparison.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_fee_comparison_payload(self, tmp_path):
        write_report_bundle(tmp_path)
        payload = json.loads((tmp_path / "fee_comparison.json").read_text())
        assert abs(payload["shortfall_pct"] - 6.07) < 0.01
        sidecar = json.loads((tmp_path / "figure1.json").read_text())
        assert abs(sidecar["inflection"] - 1.4142135623730951) < 1e-15


class TestRegimeLabels:
    @pytest.mark.parametrize("se,label", [
        (0.0, "textbook Kyle"),
        (0.5, "low-privacy regime"),
        (1.0, "sigma_eps = sigma_u"),
        (SQRT2, "inflection point"),
        (2.0, "past inflection"),
        (3.0, "high-privacy"),
        (5.0, "far high-privacy"),
    ])
    def test_labels(self, se, label):
        assert regime_label(se, 1.0) == label
