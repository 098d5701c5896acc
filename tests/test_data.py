import numpy as np
import pytest

from regfit import data
from regfit.errors import ValidationError


def test_load_csv_scalar(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("x0,y0\n0.0,1.0\n1.0,2.0\n2.0,3.0\n")
    d = data.load_csv(p)
    assert d.inputs.shape == (3, 1)
    assert d.targets.shape == (3, 1)
    np.testing.assert_array_equal(d.inputs[:, 0], [0.0, 1.0, 2.0])


def test_load_csv_bad_cell_names_row(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("x0,y0\n0.0,1.0\nabc,2.0\n")
    with pytest.raises(ValidationError, match="row 2"):
        data.load_csv(p)


def test_load_csv_two_inputs(tmp_path):
    p = tmp_path / "d.csv"
    rows = "\n".join(f"{i},{i + 1},{2 * i}" for i in range(5))
    p.write_text("x0,x1,y0\n" + rows + "\n")
    d = data.load_csv(p)
    assert d.inputs.shape == (5, 2)
    assert d.targets.shape == (5, 1)


def test_load_csv_column_order_is_by_name(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("y0,x0\n5.0,1.0\n")
    d = data.load_csv(p)
    assert d.inputs[0, 0] == 1.0
    assert d.targets[0, 0] == 5.0


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(ValidationError, match="cannot open"):
        data.load_csv(tmp_path / "nope.csv")


def test_load_csv_header_without_xy(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,b\n1,2\n")
    with pytest.raises(ValidationError):
        data.load_csv(p)


def test_load_csv_rejects_targets_only(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("y0\n1.0\n")
    with pytest.raises(ValidationError):
        data.load_csv(p)


def test_save_load_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(1)
    d = data.Dataset(rng.standard_normal((13, 2)), rng.standard_normal((13, 3)))
    p = tmp_path / "d.csv"
    data.save_csv(d, p)
    back = data.load_csv(p)
    np.testing.assert_array_equal(back.inputs, d.inputs)
    np.testing.assert_array_equal(back.targets, d.targets)


def test_dataset_invariants():
    with pytest.raises(ValidationError):
        data.Dataset(np.zeros((3, 1)), np.zeros((2, 1)))
    with pytest.raises(ValidationError):
        data.Dataset(np.array([[np.nan]]), np.array([[1.0]]))
    d = data.Dataset([[1.0]], [[2.0]])
    with pytest.raises(ValueError):
        d.inputs[0, 0] = 9.0  # read-only storage


class TestGenerator:
    def test_no_samples_in_gap(self):
        d = data.generate_fig2_like(60, seed=42)
        x = d.inputs[:, 0]
        lo, hi = data.FIG_GAP
        assert ((x > lo) & (x < hi)).sum() == 0
        assert d.n_points == 60

    def test_pure_function_of_seed(self):
        a = data.generate_fig2_like(60, seed=3)
        b = data.generate_fig2_like(60, seed=3)
        np.testing.assert_array_equal(a.inputs, b.inputs)
        np.testing.assert_array_equal(a.targets, b.targets)

    def test_outlier_count_at_5_percent(self):
        # round(0.05 * 60) = 3 by hand; outliers sit >= 2.5 off the curve
        # while the noise floor (sigma = 0.4) stays well below 2.0
        assert int(np.rint(data.FIG_OUTLIER_RATE * 60)) == 3
        d = data.generate_fig2_like(60, seed=42)
        dev = np.abs(d.targets[:, 0] - data._reference_curve(d.inputs[:, 0]))
        assert (dev > 2.0).sum() == 3

    def test_too_small_rejected(self):
        with pytest.raises(ValidationError):
            data.generate_fig2_like(9, seed=0)

    def test_inputs_cover_both_sides_of_gap(self):
        d = data.generate_fig2_like(200, seed=0)
        x = d.inputs[:, 0]
        assert (x < data.FIG_GAP[0]).any() and (x > data.FIG_GAP[1]).any()
