import hashlib
import io
import json
import math
import os
import re
import tracemalloc
import urllib.request

import numpy as np
import pytest
from oracles import csv_reference

from fcodt import datasets
from fcodt.datasets import (
    Dataset,
    dataset_to_csv,
    fetch_dataset,
    gen_sim1,
    gen_sim2,
    kfold_indices,
    load_from_manifest,
    load_manifest,
    minmax_scale,
    normal_from_uniform,
    parse_csv,
    parse_libsvm,
    sim1_function,
    sim2_function,
    train_test_split,
)


class TestDataset:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[1.0, np.inf]]), np.array([1.0]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), np.zeros(4))

    @pytest.mark.parametrize("features", [np.zeros(3), np.zeros((3, 1, 1))])
    def test_rejects_features_not_2d(self, features):
        with pytest.raises(ValueError, match="^features must be a 2-d matrix$"):
            Dataset(features, np.zeros(3))

    @pytest.mark.parametrize("clean, message", [
        (np.zeros(2), "clean_targets length mismatch"),
        (np.array([0.0, np.nan, 0.0]), "clean_targets contain non-finite values"),
    ])
    def test_rejects_bad_clean_targets(self, clean, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Dataset(np.zeros((3, 2)), np.zeros(3), clean_targets=clean)

    def test_csv_with_clean_targets_needs_them(self):
        with pytest.raises(ValueError, match="^dataset has no clean targets to include$"):
            dataset_to_csv(Dataset(np.zeros((2, 1)), np.zeros(2)), include_clean=True)

    def test_arrays_immutable(self):
        ds = Dataset(np.ones((2, 2)), np.ones(2))
        with pytest.raises(ValueError):
            ds.features[0, 0] = 5.0

    def test_subset_keeps_clean_targets(self):
        ds = gen_sim1(20, 0.5, 0)
        sub = ds.subset([0, 3, 5])
        assert sub.n == 3
        assert np.array_equal(sub.clean_targets, ds.clean_targets[[0, 3, 5]])


class TestSimGenerators:
    def test_sim1_at_zero(self):
        assert sim1_function(np.zeros((1, 10)))[0] == 0.0

    def test_sim1_at_ones(self):
        assert sim1_function(np.ones((1, 10)))[0] == pytest.approx(5.0)

    def test_sim2_at_zero(self):
        assert sim2_function(np.zeros((1, 10)))[0] == pytest.approx(5.0)

    def test_sim2_at_ones(self):
        assert sim2_function(np.ones((1, 10)))[0] == pytest.approx(5.0 * math.e)

    def test_zero_noise_targets_equal_clean(self):
        ds = gen_sim1(100, 0.0, 3)
        assert np.array_equal(ds.targets, ds.clean_targets)

    def test_noise_level(self):
        ds = gen_sim1(20000, 2.0, 4)
        resid = ds.targets - ds.clean_targets
        assert abs(resid.std() - 2.0) < 0.05
        assert abs(resid.mean()) < 0.05

    def test_bit_identical_reproducibility(self):
        a = gen_sim2(500, 0.01, 11)
        b = gen_sim2(500, 0.01, 11)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.targets, b.targets)

    def test_different_seeds_differ(self):
        a = gen_sim1(100, 0.01, 1)
        b = gen_sim1(100, 0.01, 2)
        assert not np.array_equal(a.features, b.features)

    def test_ridge_terms_summed_left_to_right(self):
        # the formula as the paper writes it: each group's columns added in
        # order, divided by the group size, the five terms added in order
        X = np.random.default_rng(4).uniform(-3.0, 3.0, size=(500, 10))
        means = [X[:, 0],
                 (X[:, 1] + X[:, 2]) / 2.0,
                 (X[:, 3] + X[:, 4] + X[:, 5]) / 3.0,
                 (X[:, 6] + X[:, 7] + X[:, 8] + X[:, 9]) / 4.0,
                 (X[:, 0] + X[:, 2] + X[:, 4] + X[:, 6] + X[:, 8]) / 5.0]
        for fn, link in ((sim1_function, lambda z: np.maximum(z, 0.0)),
                         (sim2_function, np.exp)):
            terms = [link(m) for m in means]
            expect = terms[0] + terms[1] + terms[2] + terms[3] + terms[4]
            assert fn(X).tobytes() == expect.tobytes()

    def test_features_in_box(self):
        ds = gen_sim2(1000, 0.0, 5)
        assert ds.features.min() >= -3.0
        assert ds.features.max() <= 3.0

    def test_sim2_mean_matches_analytic_integral(self):
        # independent oracle: E[exp(avg of k uniforms on [-3,3])] has the
        # closed form (k*sinh(3/k)/3)^k; compare the Monte-Carlo mean of
        # the generated clean targets over 10^6 draws within 3 SE
        ds = gen_sim2(1_000_000, 0.0, 42)
        expected = sum((k * math.sinh(3.0 / k) / 3.0) ** k for k in (1, 2, 3, 4, 5))
        se = ds.clean_targets.std() / 1000.0
        assert abs(ds.clean_targets.mean() - expected) < 3 * se

    def test_normal_transform_moments(self):
        rng = np.random.default_rng(0)
        z = normal_from_uniform(rng, 200000)
        assert abs(z.mean()) < 0.01
        assert abs(z.std() - 1.0) < 0.01

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, -0.5])
    @pytest.mark.parametrize("gen", [gen_sim1, gen_sim2])
    def test_sigma_must_be_finite_and_nonnegative(self, gen, sigma):
        with pytest.raises(ValueError, match="sigma must be finite and nonnegative"):
            gen(5, sigma, 0)


class TestParseLibsvm:
    def test_basic_line(self):
        ds = parse_libsvm("2.5 1:1.0 3:-0.5", expected_dim=3)
        assert ds.targets[0] == 2.5
        assert np.array_equal(ds.features[0], [1.0, 0.0, -0.5])

    def test_target_only_line(self):
        ds = parse_libsvm("0", expected_dim=2)
        assert np.array_equal(ds.features[0], [0.0, 0.0])

    def test_dimension_from_max_index(self):
        ds = parse_libsvm("1 2:5.0\n2 4:1.0")
        assert ds.dim == 4

    def test_malformed_token_reports_line(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_libsvm("1 1:2.0\n3 badtoken")

    def test_nonincreasing_indices_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            parse_libsvm("1 2:1.0 2:3.0")

    def test_nonfinite_values_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            parse_libsvm("1 1:inf")
        with pytest.raises(ValueError, match="non-finite"):
            parse_libsvm("nan 1:2.0")

    def test_empty_input(self):
        ds = parse_libsvm("")
        assert ds.n == 0

    @pytest.mark.parametrize("token", ["3:abc", "3", "abc:1"])
    def test_malformed_token_named(self, token):
        with pytest.raises(ValueError) as got:
            parse_libsvm(f"\n \t\n1 1:2.0 {token}\n")
        assert str(got.value) == f"line 3: malformed token {token!r}"

    def test_malformed_target_reports_line(self):
        with pytest.raises(ValueError, match="line 2: malformed target 'one'"):
            parse_libsvm("1 1:2.0\none 1:3.0")

    def test_index_above_expected_dim_refused(self):
        assert parse_libsvm("1 3:2.0", expected_dim=3).dim == 3
        with pytest.raises(ValueError,
                           match="line 2: feature index 4 exceeds expected dimension 3"):
            parse_libsvm("1 3:2.0\n2 1:1.0 4:2.0", expected_dim=3)

    @pytest.mark.parametrize("target, drop, message", [
        ("y", ["nope"], r"drop \['nope'\]: a libsvm table names no columns"),
        ("y", ["3"], r"drop \['3'\]: a libsvm table names no columns"),
        ("0", [], "target '0': a libsvm table names no columns"),
        ("label", [], "target 'label': a libsvm table names no columns"),
    ])
    def test_read_table_refuses_column_specs(self, tmp_path, target, drop, message):
        path = tmp_path / "t.libsvm"
        path.write_text("1 1:2.0 2:3.0 3:4.0\n")
        with pytest.raises(ValueError, match=message):
            datasets.read_table(str(path), "libsvm", target, drop)
        for default in ("y", None):
            assert datasets.read_table(str(path), "libsvm", default).dim == 3


class TestParseCsv:
    def test_header_and_target_by_name(self):
        ds = parse_csv("x,y\n1,2\n3,4", target_column="y")
        assert np.array_equal(ds.features, [[1.0], [3.0]])
        assert np.array_equal(ds.targets, [2.0, 4.0])

    def test_target_by_index_without_header(self):
        ds = parse_csv("1,2,3\n4,5,6", target_column=2)
        assert np.array_equal(ds.features, [[1.0, 2.0], [4.0, 5.0]])
        assert np.array_equal(ds.targets, [3.0, 6.0])

    def test_empty_body(self):
        ds = parse_csv("x,y", target_column="y")
        assert ds.n == 0

    def test_ragged_row_rejected(self):
        with pytest.raises(ValueError, match="row 3"):
            parse_csv("x,y\n1,2\n3", target_column="y")

    def test_non_numeric_cell_located(self):
        with pytest.raises(ValueError, match="row 2, column 1"):
            parse_csv("x,y\nfoo,2", target_column="y")

    def test_nonfinite_cell_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            parse_csv("x,y\nnan,2", target_column="y")

    def test_drop_columns(self):
        ds = parse_csv("a,b,y\n1,2,3\n4,5,6", target_column="y", drop_columns=("b",))
        assert np.array_equal(ds.features, [[1.0], [4.0]])

    @pytest.mark.parametrize("text, target, drop, message", [
        ("1,2,3\n4,5,6", 3, (), "column index 3 out of range for 3 columns"),
        ("1,2,3\n4,5,6", 0, (-1,), "column index -1 out of range for 3 columns"),
        ("1,2,3\n4,5,6", "y", (), "column 'y' requested by name but the table has no header"),
        ("a,b,y\n1,2,3", "z", (), "column 'z' not found in header ['a', 'b', 'y']"),
        ("a,b,y\n1,2,3", "y", ("b", "y"), "target column cannot also be dropped"),
        ("1,2,3\n4,5,6", 2, (2,), "target column cannot also be dropped"),
    ], ids=["index_past_end", "index_negative", "name_without_header", "name_not_in_header",
            "target_dropped_by_name", "target_dropped_by_index"])
    def test_bad_column_spec_refused(self, text, target, drop, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_csv(text, target_column=target, drop_columns=drop)

    def test_roundtrip_17_digits(self):
        rng = np.random.default_rng(1)
        ds = Dataset(rng.normal(size=(20, 3)) * 1e3, rng.normal(size=20) / 7.0)
        text = dataset_to_csv(ds)
        back = parse_csv(text, target_column="y")
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.targets, ds.targets)

    def test_error_names_source_line_after_blank_lines(self):
        with pytest.raises(ValueError, match="row 4, column 1: non-numeric cell 'foo'"):
            parse_csv("x,y\n\n1,2\nfoo,3", target_column="y")
        with pytest.raises(ValueError, match="row 5: expected 2 cells, got 1"):
            parse_csv("\nx,y\n \n1,2\n3", target_column="y")

    def test_nonfinite_cell_located(self):
        with pytest.raises(ValueError, match="row 3, column 2: non-finite cell 'inf'"):
            parse_csv("x,y\n1,2\n3,inf", target_column="y")
        # first in row-major order
        with pytest.raises(ValueError, match="row 2, column 2: non-finite cell '1e400'"):
            parse_csv("x,y\n1, 1e400\nnan,2", target_column="y")

    def test_non_numeric_cell_wins_over_earlier_nonfinite(self):
        with pytest.raises(ValueError, match="row 3, column 1: non-numeric"):
            parse_csv("x,y\nnan,1\nfoo,2", target_column="y")

    def test_nonfinite_in_dropped_column_accepted(self):
        ds = parse_csv("a,b,y\n1,nan,3", target_column="y", drop_columns=("b",))
        assert np.array_equal(ds.features, [[1.0]])


def _cell(rng, value, underscores=True):
    """One cell in a spelling ``float()`` reads back exactly; with
    ``underscores`` one in six is ``1_000.5``, which numpy's reader
    refuses, and without it that cell is spelled with a leading sign."""
    kind = rng.integers(6)
    if kind == 0:
        text = repr(value)
    elif kind == 1:
        text = format(value, ".17g")
    elif kind == 2:
        text = "%.3e" % value
    elif kind == 3:
        text = "1_000.5" if underscores else format(value, "+.17g")
    elif kind == 4:
        text = "+" + repr(abs(value))
    else:
        text = repr(value).replace("e", "E")
    pad = ["", " ", "\t", " \t "]
    return pad[rng.integers(4)] + text + pad[rng.integers(4)]


def _random_table(rng, n_rows, ncols, header=True, underscores=True):
    """CSV text of ``n_rows`` random rows with CRLF endings and blank
    lines; with ``underscores`` (see ``_cell``) only the cell-by-cell loop
    reads it, without them numpy's reader does."""
    values = rng.normal(size=(n_rows, ncols)) * 10.0 ** rng.integers(-8, 9, size=(n_rows, ncols))
    values[rng.random((n_rows, ncols)) < 0.02] = -0.0
    values[rng.random((n_rows, ncols)) < 0.02] = 0.0
    lines = [",".join(f"x{j}" for j in range(ncols - 1)) + ",y"] if header else []
    for row in values:
        lines.append(",".join(_cell(rng, v, underscores) for v in row.tolist()))
        if rng.random() < 0.01:
            lines.append(" " if rng.random() < 0.5 else "")
    return "\r\n".join(lines) + "\r\n"


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


class TestCsvRandomTables:
    """Both readers of ``parse_csv`` against the cell-by-cell reference
    reader, on random tables of over 6,000 rows. Each test runs on a table
    with ``1_000.5`` cells, which only the cell-by-cell loop reads, and on
    one without them, which numpy's reader reads; the ``loadtxt_shapes``
    spy tells which reader read each table."""

    N_ROWS = 3 * 2048 + 123

    @pytest.mark.parametrize("as_file, underscores",
                             [(False, True), (True, True), (False, False), (True, False)],
                             ids=["False", "True", "numpy-False", "numpy-True"])
    def test_bitwise_equal_to_reference(self, loadtxt_shapes, as_file, underscores):
        text = _random_table(np.random.default_rng(11), self.N_ROWS, 5,
                             underscores=underscores)
        source = io.StringIO(text, newline="") if as_file else text
        ds = parse_csv(source, target_column="y")
        _, table = csv_reference(text)
        assert table.shape == (self.N_ROWS, 5)
        assert np.array_equal(_bits(ds.features), _bits(table[:, :4]))
        assert np.array_equal(_bits(ds.targets), _bits(table[:, 4]))
        assert np.signbit(table).any()  # -0.0 survives
        assert np.array_equal(_bits(parse_csv(text, None).features), _bits(table))
        assert loadtxt_shapes == [None if underscores else table.shape] * 2

    def test_headerless_with_drop(self, loadtxt_shapes):
        for underscores in (True, False):
            loadtxt_shapes.clear()
            text = _random_table(np.random.default_rng(12), self.N_ROWS, 4, header=False,
                                 underscores=underscores)
            ds = parse_csv(text, target_column=0, drop_columns=(2,))
            _, table = csv_reference(text)
            assert np.array_equal(_bits(ds.features), _bits(table[:, [1, 3]]))
            assert np.array_equal(_bits(ds.targets), _bits(table[:, 0]))
            assert loadtxt_shapes == [None if underscores else table.shape]

    BAD_LINES = [
        (["1,2,3"], "row {no}: expected 4 cells, got 3"),
        # a short and a long line: the table's cell count is right
        (["1,2,3", "1,2,3,4,5"], "row {no}: expected 4 cells, got 3"),
        # a long line, then a short one further down
        (["1,2,3,4,5", "1,2,3,4", "1,2,3"], "row {no}: expected 4 cells, got 5"),
        (["1,2,0x10,4"], "row {no}, column 3: non-numeric cell '0x10'"),
        (["1,2,3, -Infinity "], "row {no}, column 4: non-finite cell '-Infinity'"),
    ]
    BAD_IDS = ["ragged", "short_then_long", "long_then_short", "non_numeric", "non_finite"]

    @pytest.mark.parametrize(
        "bad, where, underscores",
        [case + (True,) for case in BAD_LINES] + [case + (False,) for case in BAD_LINES],
        ids=BAD_IDS + [f"numpy-{name}" for name in BAD_IDS])
    def test_error_line_located(self, loadtxt_shapes, bad, where, underscores):
        text = _random_table(np.random.default_rng(13), self.N_ROWS, 4,
                             underscores=underscores)
        lines = text.split("\r\n")
        assert sum(not ln.strip() for ln in lines) > 10  # blank lines the numbering counts
        # a line near the end, after some blank lines, with a non-blank successor
        no = next(i for i in range(len(lines) - 10, 0, -1)
                  if lines[i - 1].strip() and lines[i].strip())
        lines[no - 1:no - 1 + len(bad)] = bad
        text = "\r\n".join(lines)
        message = where.format(no=no)
        with pytest.raises(ValueError) as ref:
            csv_reference(text)
        assert str(ref.value) == message
        with pytest.raises(ValueError) as got:
            parse_csv(text, target_column="y")
        assert str(got.value) == message
        with pytest.raises(ValueError) as got:
            parse_csv(text, None)
        assert str(got.value) == message
        # numpy's reader refuses a ragged or non-numeric line, and the loop
        # names it; it reads a non-finite cell, and the finite check names it
        numpy_reads = not underscores and "non-finite" in where
        assert loadtxt_shapes == [(self.N_ROWS, 4) if numpy_reads else None] * 2

    def test_score_table_bitwise(self):
        ds = gen_sim2(2048 + 300, 0.01, 4)
        text = dataset_to_csv(ds, include_clean=True)
        back = parse_csv(text, "y", drop_columns=("f",))
        assert np.array_equal(_bits(back.features), _bits(ds.features))
        assert np.array_equal(_bits(back.targets), _bits(ds.targets))


def _numpy_spellings_table(rng, n_rows, ncols):
    """CSV text of ``n_rows`` random rows, each cell spelled in a way
    numpy's reader accepts: repr, 17 or 4 significant digits, a leading
    ``+``, an upper-case ``E``, and space or tab padding; CRLF endings and
    blank lines."""
    scales = 10.0 ** rng.integers(-300, 300, size=(n_rows, ncols))
    values = rng.normal(size=(n_rows, ncols)) * scales
    values[rng.random((n_rows, ncols)) < 0.02] = -0.0
    values[rng.random((n_rows, ncols)) < 0.01] = 5e-324
    spellings = (repr, "{:.17g}".format, "{:.3e}".format, "{:+.17g}".format,
                 lambda v: repr(v).upper(), lambda v: f" {v!r}\t", lambda v: f"\t {v:.17g}  ")
    lines = [",".join(f"x{j}" for j in range(ncols - 1)) + ",y"]
    for row in values.tolist():
        lines.append(",".join(spellings[k](v) for k, v in
                              zip(rng.integers(len(spellings), size=ncols), row)))
        if rng.random() < 0.01:
            lines.append(" \t" if rng.random() < 0.5 else "")
    return "\r\n".join(lines) + "\r\n"


@pytest.fixture
def loadtxt_shapes(monkeypatch):
    """The shape of each table numpy's reader returns to ``parse_csv``, or
    None for each one it refuses."""
    shapes = []
    loadtxt = np.loadtxt

    def spy(*args, **kwargs):
        try:
            table = loadtxt(*args, **kwargs)
        except ValueError:
            shapes.append(None)
            raise
        shapes.append(table.shape)
        return table

    monkeypatch.setattr(np, "loadtxt", spy)
    return shapes


class TestCsvCells:
    """Each cell reads as ``float()`` reads it, whether numpy's reader
    converts the table or the cell-by-cell loop does."""

    @pytest.mark.parametrize("as_file", [False, True])
    def test_numpy_spellings_bitwise(self, loadtxt_shapes, as_file):
        text = _numpy_spellings_table(np.random.default_rng(21), 3000, 4)
        source = io.StringIO(text, newline="") if as_file else text
        ds = parse_csv(source, target_column="y")
        _, table = csv_reference(text)
        assert loadtxt_shapes == [(3000, 4)]  # numpy's reader read it all
        assert np.array_equal(_bits(ds.features), _bits(table[:, :3]))
        assert np.array_equal(_bits(ds.targets), _bits(table[:, 3]))
        assert np.signbit(table).any() and (table == 5e-324).any()

    @pytest.mark.parametrize("cell", ["1_000", "١٢"])
    def test_cells_numpy_refuses_take_the_loop(self, loadtxt_shapes, cell):
        text = f"x,y\n1.5,2\n{cell},3\n"
        ds = parse_csv(text, target_column="y")
        assert loadtxt_shapes == [None]
        assert np.array_equal(ds.features[:, 0], [1.5, float(cell)])

    @pytest.mark.parametrize("target", ["y", None])
    @pytest.mark.parametrize("layout", ["y\n{}\n", "x,y\n0,{}\n", "y,x\n{},0\n"],
                             ids=["alone", "last", "first"])
    @pytest.mark.parametrize("cell", ["1_000", "١٢", " 1.5 ", "\t2", "+inf", "-0.0", "5e-324",
                                      "1e400", "0x10", "", "1#2", '"1"'])
    def test_cell_read_as_float_reads_it(self, cell, layout, target):
        text = layout.format(cell)
        try:
            header, expected = csv_reference(text)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                parse_csv(text, target)
            assert str(got.value) == str(exc)
            return
        ds = parse_csv(text, target)
        y = header.index("y") if target else None
        keep = [j for j in range(len(header)) if j != y]
        assert np.array_equal(_bits(ds.features), _bits(expected[:, keep]))
        if target:
            assert np.array_equal(_bits(ds.targets), _bits(expected[:, y]))


class TestReadTableLines:
    """``read_table`` reads a file as ``parse_csv`` and ``parse_libsvm``
    read the open file: lines end at LF, CRLF or CR, and blank lines count
    in the line numbers errors give."""

    ENDINGS = pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])

    @staticmethod
    def _write(tmp_path, lines, newline, suffix=".csv"):
        path = tmp_path / f"t{suffix}"
        path.write_bytes(newline.join(lines).encode() + newline.encode())
        return str(path)

    @staticmethod
    def _same(got, ref):
        assert np.array_equal(_bits(got.features), _bits(ref.features))
        assert np.array_equal(_bits(got.targets), _bits(ref.targets))
        assert got.meta == ref.meta

    @ENDINGS
    @pytest.mark.parametrize("header", [True, False], ids=["header", "headerless"])
    def test_csv_same_bits_as_open_file(self, tmp_path, newline, header):
        body = ["1,2", "", " ", "3.5,-0", "", "5e-324,1e308"]
        path = self._write(tmp_path, ["", "x,y"] * header + body, newline)
        target = "y" if header else 1
        ds = datasets.read_table(path, "csv", target)
        with open(path, encoding="utf-8") as fh:
            self._same(ds, parse_csv(fh, target, name="t"))
        assert np.array_equal(_bits(ds.features[:, 0]), _bits(np.array([1.0, 3.5, 5e-324])))
        assert np.array_equal(_bits(ds.targets), _bits(np.array([2.0, -0.0, 1e308])))

    @ENDINGS
    @pytest.mark.parametrize("lines, message", [
        (["", "x,y", "1,2", "", "foo,3"], "row 5, column 1: non-numeric cell 'foo'"),
        (["x,y", "", "1,2", " ", "3"], "row 5: expected 2 cells, got 1"),
        (["", "", "1,2", "", "3,inf"], "row 5, column 2: non-finite cell 'inf'"),
    ], ids=["non_numeric", "ragged", "non_finite_headerless"])
    def test_csv_error_after_blank_lines(self, tmp_path, newline, lines, message):
        path = self._write(tmp_path, lines, newline)
        target = "y" if "x,y" in lines else 1
        with pytest.raises(ValueError) as got:
            datasets.read_table(path, "csv", target)
        assert str(got.value) == message
        with open(path, encoding="utf-8") as fh, pytest.raises(ValueError) as ref:
            parse_csv(fh, target)
        assert str(ref.value) == message

    @ENDINGS
    def test_libsvm_same_bits_as_open_file(self, tmp_path, newline):
        path = self._write(tmp_path, ["", "1 1:2", "", "-0 2:5e-324 3:1e308"], newline, ".libsvm")
        ds = datasets.read_table(path, "libsvm")
        with open(path, encoding="utf-8") as fh:
            self._same(ds, parse_libsvm(fh, name="t"))
        assert np.array_equal(_bits(ds.features),
                              _bits(np.array([[2.0, 0, 0], [0, 5e-324, 1e308]])))
        assert np.array_equal(_bits(ds.targets), _bits(np.array([1.0, -0.0])))
        path = self._write(tmp_path, ["", "1 1:2", "", "2 bad"], newline, ".libsvm")
        with pytest.raises(ValueError, match="^line 4: malformed token 'bad'$"):
            datasets.read_table(path, "libsvm")

    def test_form_feed_belongs_to_its_line(self, tmp_path):
        # str.splitlines would end a line at the form feed: "1," would be
        # a row with an empty cell, and "foo,3" would be on line 4
        path = self._write(tmp_path, ["x,y", "1,\x0c2", "3,4"], "\n")
        ds = datasets.read_table(path, "csv")
        assert np.array_equal(ds.features[:, 0], [1.0, 3.0])
        assert np.array_equal(ds.targets, [2.0, 4.0])
        path = self._write(tmp_path, ["x,y", "1,\x0c2", "foo,3"], "\n")
        with pytest.raises(ValueError, match="^row 3, column 1: non-numeric cell 'foo'$"):
            datasets.read_table(path, "csv")


class TestStreamedHandOff:
    """``read_table`` hands a CSV file's non-blank lines to one call of
    numpy's reader, and reads the file again with the line reader only
    where numpy refuses a cell, the table has the wrong width, or a used
    cell is non-finite. Each case reads as ``parse_csv`` reads the same
    text as a string: the same bits, or the same error."""

    N_ROWS = 6100

    @staticmethod
    def _clean_rows(n_rows):
        values = np.random.default_rng(31).normal(size=(n_rows, 3)) * 1e3
        return [",".join(map(repr, row)) for row in values.tolist()]

    @classmethod
    def _cases(cls):
        """Per case: the lines, the target column, and what numpy's reader
        gives ``parse_csv`` for one read: its table's shape, None where it
        refuses the table, nothing where there is no body to read."""
        rows = cls._clean_rows(cls.N_ROWS)
        mid = cls.N_ROWS // 2
        return {
            "blank_lines": (["x,y,z", "1,2,3", " ", "\t", "\x0c", " \x0c\t", "4,5,6", ""],
                            "z", [(2, 3)]),
            "header_only": (["", "x,y,z"], "z", []),
            "blank_only": (["", " ", "\x0c", ""], None, []),
            "underscore": (["x,y,z"] + rows[:mid] + ["1_000,2,3"] + rows[mid:], "z", [None]),
            "ragged_last": (["x,y,z"] + rows + ["1,2"], "z", [None]),
            # numpy reads every line, but narrower than the header
            "narrow": (["x,y,z", "1,2", "", "3,4"], "z", [(2, 2)]),
            "non_finite_last": (["x,y,z"] + rows + ["1,2,inf"], "z", [(cls.N_ROWS + 1, 3)]),
        }

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
    @pytest.mark.parametrize("case", ["blank_lines", "header_only", "blank_only", "underscore",
                                      "ragged_last", "narrow", "non_finite_last"])
    def test_same_as_string(self, tmp_path, loadtxt_shapes, case, newline):
        lines, target, shapes = self._cases()[case]
        text = newline.join(lines) + newline
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode())
        try:
            ref = parse_csv(text, target, name="t")
        except ValueError as exc:
            ref = exc
        with open(path, newline="") as fh:
            listed = fh.readlines()
        for read in (lambda: datasets.read_table(str(path), "csv", target),
                     # not seekable: listed once, then read by the same rules
                     lambda: parse_csv(iter(listed), target, name="t")):
            loadtxt_shapes.clear()
            if isinstance(ref, ValueError):
                with pytest.raises(ValueError) as got:
                    read()
                assert str(got.value) == str(ref)
            else:
                ds = read()
                assert np.array_equal(_bits(ds.features), _bits(ref.features))
                assert np.array_equal(_bits(ds.targets), _bits(ref.targets))
                assert ds.meta == ref.meta
            assert loadtxt_shapes == shapes

    def test_file_read_from_where_it_stands(self, tmp_path, loadtxt_shapes):
        # seeking back goes to where the file stood, not to its start; a
        # file being iterated cannot tell where it stands, and is listed
        path = tmp_path / "t.csv"
        path.write_text("# preamble\nx,y\n1,2\n\n3_0,4\n")
        with open(path) as fh:
            fh.readline()
            ds = parse_csv(fh, "y")
        assert np.array_equal(ds.features[:, 0], [1.0, 30.0])
        path.write_text("# preamble\nx,y\n1,2\n\n3,inf\n")
        for skip in (lambda fh: fh.readline(), next):
            with open(path) as fh, pytest.raises(ValueError) as got:
                skip(fh)
                parse_csv(fh, "y")
            assert str(got.value) == "row 4, column 2: non-finite cell 'inf'"
        assert loadtxt_shapes == [None, (2, 2), (2, 2)]

    def test_read_table_peak_memory(self, tmp_path):
        path = tmp_path / "score.csv"
        path.write_text(dataset_to_csv(gen_sim2(20000, 0.01, 7), include_clean=True))
        tracemalloc.start()
        try:
            ds = datasets.read_table(str(path), "csv", "y", ("f",))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ds.features.shape == (20000, 10)
        # numpy's table of all 12 columns and the dataset's own copies;
        # no list of the file's lines
        assert peak < 4 * (ds.features.nbytes + ds.targets.nbytes)


class TestSplits:
    def test_sizes_round_up_train(self):
        ds = gen_sim1(5, 0.0, 0)
        sp = train_test_split(ds, 0.6, 0)
        assert sp.train_indices.size == 3
        assert sp.test_indices.size == 2

    def test_same_seed_identical(self):
        ds = gen_sim1(100, 0.0, 0)
        a = train_test_split(ds, 0.6, 7)
        b = train_test_split(ds, 0.6, 7)
        assert np.array_equal(a.train_indices, b.train_indices)

    def test_different_seeds_differ(self):
        ds = gen_sim1(1000, 0.0, 0)
        for s in range(10):
            a = train_test_split(ds, 0.6, 2 * s)
            b = train_test_split(ds, 0.6, 2 * s + 1)
            assert not np.array_equal(a.train_indices, b.train_indices)

    def test_partition_property(self):
        ds = gen_sim1(57, 0.0, 0)
        sp = train_test_split(ds, 0.7, 3)
        union = np.sort(np.concatenate([sp.train_indices, sp.test_indices]))
        assert np.array_equal(union, np.arange(57))

    def test_too_small_rejected(self):
        ds = gen_sim1(1, 0.0, 0)
        with pytest.raises(ValueError):
            train_test_split(ds, 0.5, 0)

    def test_kfold_balanced(self):
        folds = kfold_indices(10, 5, 0)
        assert all(f.test_indices.size == 2 for f in folds)

    def test_kfold_partition(self):
        folds = kfold_indices(23, 4, 1)
        union = np.sort(np.concatenate([f.test_indices for f in folds]))
        assert np.array_equal(union, np.arange(23))

    def test_kfold_remainder_sizes(self):
        folds = kfold_indices(11, 5, 2)
        sizes = sorted(f.test_indices.size for f in folds)
        assert sizes == [2, 2, 2, 2, 3]

    def test_overlapping_assignment_rejected(self):
        with pytest.raises(ValueError, match="^train/test indices overlap$"):
            datasets.SplitAssignment([0, 1, 2], [2, 3])

    @pytest.mark.parametrize("fraction", [0.0, 1.0])
    def test_fraction_out_of_range_rejected(self, fraction):
        with pytest.raises(ValueError,
                           match="^train_fraction must lie strictly between 0 and 1$"):
            train_test_split(gen_sim1(10, 0.0, 0), fraction, 0)

    @pytest.mark.parametrize("n, k", [(11, 4), (12, 4), (5, 5), (7, 2)])
    def test_kfold_runs_of_the_permutation(self, n, k):
        # fold i validates on the i-th run of the seeded permutation (the
        # first n % k runs one row longer) and trains on the other runs in
        # order
        perm = np.random.default_rng(9).permutation(n).tolist()
        sizes = [n // k + (i < n % k) for i in range(k)]
        starts = np.cumsum([0] + sizes).tolist()
        for i, fold in enumerate(kfold_indices(n, k, 9)):
            lo, hi = starts[i], starts[i + 1]
            assert fold.test_indices.tolist() == perm[lo:hi]
            assert fold.train_indices.tolist() == perm[:lo] + perm[hi:]

    def test_kfold_k_bounds(self):
        with pytest.raises(ValueError):
            kfold_indices(5, 6, 0)
        with pytest.raises(ValueError):
            kfold_indices(5, 1, 0)


class TestManifest:
    def test_load_and_resolve(self, tmp_path):
        data_file = tmp_path / "tiny.libsvm"
        data_file.write_text("1.0 1:2.0\n-1.0 2:3.0\n")
        manifest_file = tmp_path / "manifest.json"
        manifest_file.write_text(json.dumps(
            {"tiny": {"path": "tiny.libsvm", "format": "libsvm", "n_features": 2}}))
        manifest = load_manifest(str(manifest_file))
        ds = load_from_manifest("tiny", manifest, str(tmp_path))
        assert ds.n == 2 and ds.dim == 2

    def test_manifest_not_an_object_refused(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("[]")
        with pytest.raises(ValueError,
                           match="^manifest must be a JSON object keyed by dataset name$"):
            load_manifest(str(path))

    def test_csv_entry(self, tmp_path):
        (tmp_path / "tiny.csv").write_text("a,t,b\n1,10,2\n3,30,4\n")
        manifest = {"small": {"path": "tiny.csv", "format": "csv", "target": "t"}}
        ds = load_from_manifest("small", manifest, str(tmp_path))
        assert np.array_equal(ds.targets, [10.0, 30.0])
        assert np.array_equal(ds.features, [[1.0, 2.0], [3.0, 4.0]])
        assert ds.meta["name"] == "small"

    def test_csv_entry_feature_count_checked(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("a,t,b\n1,10,2\n3,30,4\n")
        entry = {"path": "tiny.csv", "format": "csv", "target": "t"}
        ds = load_from_manifest("small", {"small": {**entry, "n_features": 2}}, str(tmp_path))
        assert ds.dim == 2
        with pytest.raises(ValueError) as got:
            load_from_manifest("small", {"small": {**entry, "n_features": 7}}, str(tmp_path))
        assert str(got.value) == f"{path}: expected 7 feature columns, the table has 2"

    def test_unknown_format_raises(self, tmp_path):
        (tmp_path / "tiny.arff").write_text("@relation tiny\n")
        manifest = {"tiny": {"path": "tiny.arff", "format": "arff"}}
        with pytest.raises(ValueError, match=re.escape(
                "manifest entry 'tiny': format must be 'csv' or 'libsvm', got 'arff'")):
            load_from_manifest("tiny", manifest, str(tmp_path))

    def test_read_table_unknown_format_raises(self, tmp_path):
        path = tmp_path / "tiny.arff"
        path.write_text("@relation tiny\n")
        with pytest.raises(ValueError, match="unknown dataset format 'arff'"):
            datasets.read_table(str(path), "arff")

    @pytest.mark.parametrize("entry, message", [
        ("x.libsvm", " must be an object, got 'x.libsvm'"),
        ({"path": 5}, ": path must be a string, got 5"),
        ({"path": "x.csv", "fromat": "csv"}, ": unknown key 'fromat'; known keys are "
                                             "path, format, target, n_features, url, sha256"),
    ], ids=["not_an_object", "path_not_a_string", "unknown_key"])
    def test_entry_checked_on_load(self, tmp_path, entry, message):
        (tmp_path / "x.csv").write_text("a,y\n1,2\n")
        with pytest.raises(ValueError, match=re.escape(f"manifest entry 'a'{message}")):
            load_from_manifest("a", {"a": entry}, str(tmp_path))

    def test_missing_file_raises(self, tmp_path):
        manifest = {"gone": {"path": "nope.libsvm", "format": "libsvm"}}
        with pytest.raises(FileNotFoundError):
            load_from_manifest("gone", manifest, str(tmp_path))

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            load_from_manifest("mystery", {}, ".")

    def test_repository_manifest_loads(self):
        path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                            "configs", "datasets.json")
        assert len(load_manifest(path)) == 8

    def test_entry_values_of_every_allowed_kind(self, tmp_path):
        path = tmp_path / "manifest.json"
        entries = {"a": {"path": "a.csv", "format": "csv", "target": 2},
                   "b": {"path": "b.csv", "format": "csv", "target": "t", "url": None,
                         "sha256": None},
                   "c": {"path": "c.libsvm", "n_features": 3, "url": "http://x", "sha256": "ab"}}
        path.write_text(json.dumps(entries))
        assert load_manifest(str(path)) == entries

    @pytest.mark.parametrize("entry, message", [
        ("data/abalone.libsvm", " must be an object, got 'data/abalone.libsvm'"),
        ({"format": "libsvm"}, " has no path"),
        ({"path": 3}, ": path must be a string, got 3"),
        ({"path": "a", "format": "arff"}, ": format must be 'csv' or 'libsvm', got 'arff'"),
        ({"path": "a", "target": 1.5}, ": target must be a string or an integer"),
        ({"path": "a", "target": None}, ": target must be a string or an integer"),
        ({"path": "a", "target": True}, ": target must be a string or an integer"),
        ({"path": "a", "n_features": "8"}, ": n_features must be a positive integer, got '8'"),
        ({"path": "a", "n_features": 0}, ": n_features must be a positive integer"),
        ({"path": "a", "n_features": 8.0}, ": n_features must be a positive integer"),
        ({"path": "a", "n_features": True}, ": n_features must be a positive integer"),
        ({"path": "a", "url": 5}, ": url must be a string or null"),
        ({"path": "a", "sha256": ["ab"]}, ": sha256 must be a string or null"),
    ])
    def test_malformed_entry_refused(self, tmp_path, entry, message):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"good": {"path": "good.csv"}, "bad": entry}))
        with pytest.raises(ValueError, match=re.escape(f"manifest entry 'bad'{message}")):
            load_manifest(str(path))

    def test_unknown_key_refused(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"abalone": {"path": "x.csv", "fromat": "csv"}}))
        with pytest.raises(ValueError, match=re.escape(
                "manifest entry 'abalone': unknown key 'fromat'; known keys are "
                "path, format, target, n_features, url, sha256")):
            load_manifest(str(path))

    def test_fetch_requires_url(self, tmp_path):
        with pytest.raises(ValueError):
            fetch_dataset({"path": "x"}, str(tmp_path / "x"))

    @staticmethod
    def _serve(monkeypatch, body, fail_after=None):
        """Patch ``urlopen`` to answer with ``body``; with ``fail_after``,
        a read that would pass that many bytes raises instead."""
        class Response(io.BytesIO):
            def read(self, size=-1):
                end = len(body) if size < 0 else self.tell() + size
                if fail_after is not None and end > fail_after:
                    raise ConnectionResetError("connection reset mid-body")
                return super().read(size)

        monkeypatch.setattr(urllib.request, "urlopen",
                            lambda url, timeout: Response(body))

    def test_fetch_streams_and_verifies(self, tmp_path, monkeypatch):
        body = b"1 1:2.0\n" * 50000
        self._serve(monkeypatch, body)
        dest = tmp_path / "sub" / "t.libsvm"
        entry = {"url": "https://example.invalid/t", "sha256": hashlib.sha256(body).hexdigest()}
        assert fetch_dataset(entry, str(dest)) == str(dest)
        assert dest.read_bytes() == body
        assert os.listdir(dest.parent) == ["t.libsvm"]

    def test_fetch_failed_read_leaves_no_file(self, tmp_path, monkeypatch):
        # streamed, a first chunk reaches the .part file before the read fails
        self._serve(monkeypatch, b"1 1:2.0\n" * 25000, fail_after=100000)
        with pytest.raises(ConnectionResetError):
            fetch_dataset({"url": "https://example.invalid/t"}, str(tmp_path / "t.libsvm"))
        assert os.listdir(tmp_path) == []

    def test_fetch_checksum_mismatch_leaves_no_file(self, tmp_path, monkeypatch):
        self._serve(monkeypatch, b"1 1:2.0\n")
        entry = {"url": "https://example.invalid/t", "sha256": "0" * 64}
        with pytest.raises(ValueError, match="checksum mismatch for https://example.invalid/t"):
            fetch_dataset(entry, str(tmp_path / "t.libsvm"))
        assert os.listdir(tmp_path) == []


class TestMinmaxScale:
    def test_train_mapped_to_unit_box(self):
        ds = gen_sim1(100, 0.0, 0)
        (scaled,) = minmax_scale(ds)
        assert scaled.features.min() == pytest.approx(0.0)
        assert scaled.features.max() == pytest.approx(1.0)

    def test_test_uses_train_ranges(self):
        tr = Dataset(np.array([[0.0], [10.0]]), np.zeros(2))
        te = Dataset(np.array([[5.0], [20.0]]), np.zeros(2))
        _, scaled_te = minmax_scale(tr, (te,))
        assert np.array_equal(scaled_te.features[:, 0], [0.5, 2.0])
