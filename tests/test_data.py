"""CSV ingestion, splits, and standardization."""

import csv

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tghnet import data
from tghnet.data import (
    ByColumnSplit,
    Dataset,
    FractionSplit,
    load_csv,
    standardize,
    write_csv,
)
from tghnet.errors import DataError


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_three_row_fixture(self, tmp_path):
        path = _write(tmp_path, "a,b,y\n1,2,3\n4,5,6\n7,8,9\n")
        ds = load_csv(path, "y", ["a", "b"])
        np.testing.assert_array_equal(ds.x, [[1, 2], [4, 5], [7, 8]])
        np.testing.assert_array_equal(ds.y, [3, 6, 9])
        assert ds.columns == ("a", "b")
        assert ds.n_dropped == 0

    def test_missing_target_rows_dropped_and_counted(self, tmp_path):
        path = _write(tmp_path, "a,y\n1,2\n3,\n5,nan\n7,8\n")
        ds = load_csv(path, "y", ["a"])
        assert len(ds) == 2
        assert ds.n_dropped == 2
        np.testing.assert_array_equal(ds.y, [2, 8])
        np.testing.assert_array_equal(ds.source_rows, [0, 3])

    def test_absent_column_named_in_error(self, tmp_path):
        path = _write(tmp_path, "a,y\n1,2\n")
        with pytest.raises(DataError, match="'b'"):
            load_csv(path, "y", ["a", "b"])

    def test_unparseable_feature_cell_has_context(self, tmp_path):
        path = _write(tmp_path, "a,y\n1,2\nfoo,4\n")
        with pytest.raises(DataError, match=r"row 3.*'a'.*'foo'"):
            load_csv(path, "y", ["a"])

    def test_non_finite_feature_rejected(self, tmp_path):
        path = _write(tmp_path, "a,y\ninf,2\n")
        with pytest.raises(DataError, match="non-finite"):
            load_csv(path, "y", ["a"])

    def test_unparseable_target_cell_is_error(self, tmp_path):
        path = _write(tmp_path, "a,y\n1,bad\n")
        with pytest.raises(DataError, match="'y'"):
            load_csv(path, "y", ["a"])

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot open"):
            load_csv(tmp_path / "nope.csv", "y", ["a"])

    def test_short_row_rejected(self, tmp_path):
        path = _write(tmp_path, "a,b,y\n1,2,3\n4\n")
        with pytest.raises(DataError, match="row 3 has 1 cells"):
            load_csv(path, "y", ["a", "b"])

    def test_column_order_follows_request(self, tmp_path):
        path = _write(tmp_path, "a,b,y\n1,2,3\n")
        ds = load_csv(path, "y", ["b", "a"])
        np.testing.assert_array_equal(ds.x, [[2, 1]])


    @pytest.mark.parametrize("first, fallbacks", [("1.5", 0), ("1_0", 1)],
                             ids=["vectorised", "per_cell"])
    def test_utf8_byte_order_mark_is_skipped(self, tmp_path, count_calls, first, fallbacks):
        # a "1_0" feature cell sends the file to the per-cell loop
        body = f"x,y\r\n{first},2.0\r\n3.0,4.0\r\n"
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + body.encode())
        loops = count_calls(data, "_parse_rows")
        ds = load_csv(path, "y", ["x"])
        assert len(loops) == fallbacks
        assert ds.x.tolist() == [[float(first)], [3.0]] and ds.y.tolist() == [2.0, 4.0]
        # write_csv adds no mark: its bytes are the file's after the mark
        write_csv(tmp_path / "out.csv", {"x": ds.x[:, 0], "y": ds.y})
        want = body.replace("1_0", "10.0").encode()
        assert (tmp_path / "out.csv").read_bytes() == want


class TestRoundtrip:
    def test_reemission_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(50, 2)) * np.array([1e-7, 1e9])
        y = rng.standard_cauchy(50)
        first = tmp_path / "first.csv"
        write_csv(first, {"a": x[:, 0], "b": x[:, 1], "y": y})
        ds = load_csv(first, "y", ["a", "b"])
        np.testing.assert_array_equal(ds.x, x)
        np.testing.assert_array_equal(ds.y, y)
        second = tmp_path / "second.csv"
        write_csv(second, {"a": ds.x[:, 0], "b": ds.x[:, 1], "y": ds.y})
        assert first.read_bytes() == second.read_bytes()


def _per_row_csv(path, columns):
    """The reference writer: one csv.writer row of repr(float(cell)) per row."""
    arrays = [np.asarray(c) for c in columns.values()]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(columns))
        for i in range(len(arrays[0])):
            writer.writerow([repr(float(a[i])) for a in arrays])


SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0, -3.0, 2.0 ** 53,
                  1e16, 1e-5, 0.1, float("inf"), float("-inf"), float("nan")]


@st.composite
def csv_columns(draw):
    n = draw(st.sampled_from([0, 1, 2, 7, 30]))
    names = draw(st.lists(st.text("abc ,\"", min_size=1, max_size=3),
                          min_size=1, max_size=4, unique=True))
    columns = {}
    for name in names:
        if draw(st.booleans()):
            cells = st.floats() | st.sampled_from(SPECIAL_FLOATS)
            columns[name] = np.array(draw(st.lists(cells, min_size=n, max_size=n)), dtype=float)
        else:
            ints = st.integers(-2 ** 62, 2 ** 62)
            columns[name] = np.array(draw(st.lists(ints, min_size=n, max_size=n)), dtype=np.int64)
    return columns


def _decimal(draw):
    digits = st.text("0123456789", max_size=20)
    whole, frac = draw(digits), draw(digits)
    if not whole and not frac:
        whole = "0"
    text = draw(st.sampled_from(["", "-", "+"])) + whole
    if frac or draw(st.booleans()):
        text += "." + frac
    if draw(st.booleans()):
        text += draw(st.sampled_from("eE")) + draw(st.sampled_from(["", "-", "+"]))
        text += str(draw(st.integers(0, 330)))
    return text


@st.composite
def csv_cells(draw):
    """A decimal cell as written to a file, and the text float() reads."""
    text = _decimal(draw)
    pad = st.sampled_from(["", " ", "  ", "\t"])
    cell = draw(pad) + text + draw(pad)
    if draw(st.booleans()):
        cell = '"' + cell + '"'
    return cell, text


# missing-target cells as written, each with no float() text
MISSING_TARGETS = [(cell, None) for cell in
                   ["", " ", '""', "na", "NA", " nA ", "nan", "NaN", "-nan", '"nan"',
                    "inf", "-inf", "Infinity", "1e999"]]


class TestColumnWiseIo:
    @given(columns=csv_columns())
    def test_write_csv_matches_per_row_writer(self, tmp_path_factory, columns):
        root = tmp_path_factory.mktemp("w")
        write_csv(root / "columns.csv", columns)
        _per_row_csv(root / "rows.csv", columns)
        assert (root / "columns.csv").read_bytes() == (root / "rows.csv").read_bytes()

    def test_write_csv_across_write_blocks(self, tmp_path):
        n = 2 * data._WRITE_BLOCK + 3
        rng = np.random.default_rng(1)
        columns = {"a": rng.normal(size=n), "b": rng.standard_cauchy(n) * 1e-300}
        write_csv(tmp_path / "columns.csv", columns)
        _per_row_csv(tmp_path / "rows.csv", columns)
        assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()

    def test_write_csv_reads_columns_of_one_shape_in_c_order(self, tmp_path):
        # a (points, grid) table and its broadcast views, across write blocks,
        # write the bytes of its raveled columns
        rng = np.random.default_rng(2)
        shape = (3, data._WRITE_BLOCK + 5)
        values = rng.normal(size=shape)
        columns = {"point": np.broadcast_to(np.arange(3.0)[:, None], shape),
                   "y": np.broadcast_to(np.linspace(-1.0, 1.0, shape[1]), shape), "v": values}
        write_csv(tmp_path / "table.csv", columns)
        _per_row_csv(tmp_path / "rows.csv", {k: np.ravel(v) for k, v in columns.items()})
        assert (tmp_path / "table.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
        with pytest.raises(DataError, match="one shape"):
            write_csv(tmp_path / "bad.csv", {"a": values, "b": values.ravel()})

    @given(rows=st.lists(st.tuples(csv_cells(), csv_cells() | st.sampled_from(MISSING_TARGETS)),
                         max_size=12))
    def test_load_csv_is_bit_equal_to_float(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("r") / "data.csv"
        lines = ["a,y"] + [f"{a},{y}" for (a, _), (y, _) in rows]
        path.write_text("\r\n".join(lines) + "\r\n", encoding="utf-8")
        kept = [i for i, (_, (_, y)) in enumerate(rows) if y is not None and np.isfinite(float(y))]
        want_x = [float(rows[i][0][1]) for i in kept]
        want_y = [float(rows[i][1][1]) for i in kept]
        if not np.all(np.isfinite(want_x)):
            with pytest.raises(DataError, match="non-finite"):
                load_csv(path, "y", ["a"])
            return
        want_x = np.array(want_x, dtype=float).reshape(-1, 1)
        want_y = np.array(want_y, dtype=float)
        ds = load_csv(path, "y", ["a"])
        assert ds.x.tobytes() == want_x.tobytes()
        assert ds.y.tobytes() == want_y.tobytes()
        assert ds.n_dropped == len(rows) - len(kept)
        assert ds.source_rows.tolist() == kept
        # the vectorised pass itself, not its fallback, gave these bits
        with open(path, encoding="utf-8", newline="") as fh:
            next(csv.reader(fh))
            x, y, n_dropped, source_rows = data._parse_columns(fh, 1, [0])
        assert x.tobytes() == want_x.tobytes() and y.tobytes() == want_y.tobytes()
        assert n_dropped == ds.n_dropped and source_rows.tolist() == kept

    @pytest.mark.parametrize("body, outcome", [
        ("#1,2\n3,4\n", "row 2, column 'a': unparseable value '#1'"),
        ("1,2\n   \n3,4\n", "row 3 has 1 cells, expected at least 2"),
        ("1,2\n3\n", "row 3 has 1 cells, expected at least 2"),
        ('1,2\n3,""\n5,na\n7,nan\n9,inf\n11,-inf\n13,14\n', (2, 5)),
        ("inf,2\n", "row 2, column 'a': non-finite value"),
        ("nan,2\n", "row 2, column 'a': non-finite value"),
        ("foo,nan\n1,2\n", (1, 1)),
        ("1_0,2\n3,4_0\n", (2, 0)),
        ("1,2\n\n\n3,4\n", (2, 0)),
        ("", (0, 0)),
    ], ids=["hash_line", "whitespace_line", "short_row", "missing_targets",
            "inf_feature", "nan_feature", "bad_feature_dropped_row", "underscores",
            "blank_lines", "no_rows"])
    def test_edge_files_match_per_cell_loop(self, tmp_path, body, outcome):
        path = _write(tmp_path, "a,y\n" + body)
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            try:
                want = data._parse_rows(path, reader, "y", ("a",), 1, [0])
            except DataError as exc:
                want = exc
        if isinstance(outcome, str):
            with pytest.raises(DataError) as got:
                load_csv(path, "y", ["a"])
            assert str(got.value) == str(want)
            assert str(got.value).endswith(outcome)
        else:
            ds = load_csv(path, "y", ["a"])
            assert ds.x.tobytes() == want[0].tobytes() and ds.y.tobytes() == want[1].tobytes()
            assert ds.x.shape == (outcome[0], 1)
            assert ds.n_dropped == want[2] == outcome[1]
            assert ds.source_rows.tolist() == want[3].tolist()


class TestSplits:
    def _dataset(self, n=10):
        x = np.arange(2 * n, dtype=float).reshape(n, 2)
        return Dataset(x, np.arange(n, dtype=float), ("a", "b"))

    @staticmethod
    def _check_partition(rows, n):
        # train, val and test in that order; each ascending, together every row once
        assert list(rows) == ["train", "val", "test"]
        for idx in rows.values():
            assert idx.dtype == np.intp and np.all(np.diff(idx) > 0)
        np.testing.assert_array_equal(np.sort(np.concatenate(list(rows.values()))), np.arange(n))

    def test_fraction_counts(self):
        rows = FractionSplit(0.8, seed=0).apply(self._dataset(10))
        assert len(rows["train"]) == 8
        assert len(rows["val"]) == 2
        assert len(rows["test"]) == 0

    def test_fraction_deterministic(self):
        a = FractionSplit(0.8, seed=9).apply(self._dataset(50))
        b = FractionSplit(0.8, seed=9).apply(self._dataset(50))
        for name in ("train", "val", "test"):
            np.testing.assert_array_equal(a[name], b[name])

    @settings(max_examples=200)
    @given(n=st.integers(1, 400), fraction=st.floats(0.01, 0.99), seed=st.integers(0, 2**63))
    def test_fraction_rows_partition_the_dataset(self, n, fraction, seed):
        # the shuffle's first round(fraction * n) rows are train, in row
        # order: the same rows as labelling the permutation's positions
        n_train = int(fraction * n + 0.5)
        if n_train in (0, n):
            with pytest.raises(DataError, match="empty split"):
                FractionSplit(fraction, seed).apply(self._dataset(n))
            return
        rows = FractionSplit(fraction, seed).apply(self._dataset(n))
        self._check_partition(rows, n)
        assert (len(rows["train"]), len(rows["val"]), len(rows["test"])) == (n_train, n - n_train, 0)
        labels = np.empty(n, dtype="U5")
        order = np.random.default_rng(seed).permutation(n)
        labels[order[:n_train]], labels[order[n_train:]] = "train", "val"
        for name, idx in rows.items():
            np.testing.assert_array_equal(idx, np.flatnonzero(labels == name))
        again = FractionSplit(fraction, seed).apply(self._dataset(n))
        assert all(np.array_equal(again[k], rows[k]) for k in rows)

    @settings(max_examples=200)
    @given(column=st.lists(st.integers(0, 5), min_size=1, max_size=60),
           val=st.sets(st.integers(0, 5), min_size=1, max_size=3),
           test=st.sets(st.integers(0, 5), min_size=1, max_size=3))
    def test_by_column_rows_partition_the_dataset(self, column, val, test):
        test -= val
        assume(test)
        n = len(column)
        ds = Dataset(np.column_stack([np.zeros(n), column]).astype(float), np.zeros(n),
                     ("other", "c"))
        split = ByColumnSplit("c", tuple(map(float, sorted(val))), tuple(map(float, sorted(test))))
        want = {"train": [i for i, v in enumerate(column) if v not in val | test],
                "val": [i for i, v in enumerate(column) if v in val],
                "test": [i for i, v in enumerate(column) if v in test]}
        empty = [name for name, idx in want.items() if not idx]
        if empty:
            with pytest.raises(DataError, match=f"empty {empty[0]} split"):
                split.apply(ds)
            return
        rows = split.apply(ds)
        self._check_partition(rows, n)
        assert {name: idx.tolist() for name, idx in rows.items()} == want

    def test_fraction_empty_split_rejected(self):
        with pytest.raises(DataError, match="empty"):
            FractionSplit(0.01, seed=0).apply(self._dataset(3))

    def test_by_column_year_membership(self):
        years = np.arange(1981.0, 2017.0)
        n = len(years)
        ds = Dataset(np.column_stack([np.zeros(n), years]),
                     np.zeros(n), ("lat", "year"))
        rows = ByColumnSplit("year", (1985, 1995, 2005, 2015), (1986, 1996, 2006, 2016)).apply(ds)
        val_years = set(ds.column("year")[rows["val"]])
        test_years = set(ds.column("year")[rows["test"]])
        train_years = set(ds.column("year")[rows["train"]])
        assert val_years == {1985, 1995, 2005, 2015}
        assert test_years == {1986, 1996, 2006, 2016}
        assert train_years == set(years) - val_years - test_years

    def test_by_column_empty_split_rejected(self):
        ds = self._dataset(4)
        with pytest.raises(DataError, match="empty"):
            ByColumnSplit("a", (999.0,), (0.0,)).apply(ds)

    def test_overlapping_values_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            ByColumnSplit("a", (0.0,), (0.0,))


class TestStandardize:
    def _split_dataset(self):
        # train rows have mean 10, val rows mean 100: statistics must come
        # from train only
        x = np.array([[8.0], [12.0], [100.0]])
        return Dataset(x, np.zeros(3), ("a",)), np.array([0, 1])

    def test_statistics_from_train_split_only(self):
        out = standardize(*self._split_dataset())
        np.testing.assert_allclose(out.x[:2, 0], [-1.0, 1.0])
        assert out.x[2, 0] == pytest.approx((100.0 - 10.0) / 2.0)

    def test_roundtrip_inversion(self):
        out = standardize(*self._split_dataset())
        back = out.x * out.standardization.scale + out.standardization.mean
        np.testing.assert_allclose(back, [[8.0], [12.0], [100.0]], atol=1e-12)

    def test_constant_shift_gives_zero_mean(self):
        x = np.array([[5.0], [7.0], [9.0], [11.0]])
        out = standardize(Dataset(x, np.zeros(4), ("a",)), np.arange(4))
        assert np.mean(out.x[:, 0]) == pytest.approx(0.0, abs=1e-12)

    def test_zero_variance_feature_named(self):
        x = np.array([[1.0, 3.0], [1.0, 4.0]])
        ds = Dataset(x, np.zeros(2), ("flat", "ok"))
        with pytest.raises(DataError, match="'flat'"):
            standardize(ds, np.arange(2))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("column", [
        [-1e307, 1e307] * 4,  # mean 0, but the variance overflows
        [1e308, 1.5e308] * 4,  # the sum, and so the mean, overflows
    ], ids=["scale_overflows", "mean_overflows"])
    def test_overflowing_feature_named(self, column):
        x = np.column_stack([np.arange(len(column), dtype=float), column])
        ds = Dataset(x, np.zeros(len(column)), ("ok", "huge"))
        with pytest.raises(DataError, match="non-finite mean or scale of feature 'huge'"):
            standardize(ds, np.arange(len(column)))

    def test_requires_split(self):
        # no training rows to take statistics from
        ds = Dataset(np.ones((2, 1)), np.zeros(2), ("a",))
        with pytest.raises(DataError, match="split"):
            standardize(ds, np.array([], dtype=np.intp))
