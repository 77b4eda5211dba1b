"""Text artifacts: bitwise round trips, atomic writes, typed errors for
corrupt bundles, and the rule that only ``textio`` writes files."""

import ast
import pathlib
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from pdsplit import cli, textio
from pdsplit.errors import ConfigError, DimensionError
from pdsplit.fb import IterTrace

import oracles

EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-308,
               1.7976931348623157e308, -1.7976931348623157e308, 1e308, -1e-308,
               np.inf, -np.inf, np.nan, 0.1, 1.0 / 3.0]
FLOATS = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(width=64))


def _bits(a):
    """Bytes of ``a`` with every NaN canonical (the text keeps no NaN payload)."""
    a = np.asarray(a, dtype=float)
    return np.where(np.isnan(a), np.nan, a).tobytes()


@settings(max_examples=60, deadline=None)
@given(st.lists(FLOATS, max_size=40))
def test_vectors_round_trip_bitwise(tmp_path_factory, values):
    path = tmp_path_factory.mktemp("vec") / "v.txt"
    textio.write_vector(path, values)
    assert _bits(textio.read_vector(path)) == _bits(values)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.data())
def test_triplets_round_trip_bitwise(tmp_path_factory, rows, cols, data):
    cells = data.draw(st.sets(st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))))
    cells = sorted(cells)
    values = data.draw(st.lists(FLOATS, min_size=len(cells), max_size=len(cells)))
    ii = np.array([c[0] for c in cells], dtype=int)
    jj = np.array([c[1] for c in cells], dtype=int)
    mat = sp.csr_array((np.array(values, dtype=float), (ii, jj)), shape=(rows, cols))
    path = tmp_path_factory.mktemp("trip") / "m.txt"
    textio.write_triplets(path, mat)
    back = textio.read_triplets(path)
    assert back.shape == (rows, cols)
    assert back.indptr.tolist() == mat.indptr.tolist()
    assert back.indices.tolist() == mat.indices.tolist()
    assert _bits(back.data) == _bits(mat.data)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.data())
def test_tables_round_trip_bitwise(tmp_path_factory, width, data):
    table = data.draw(st.lists(st.lists(FLOATS, min_size=width, max_size=width),
                               max_size=20))
    columns = [f"c{j}" for j in range(width)]
    path = tmp_path_factory.mktemp("table") / "t.csv"
    textio.write_table(path, columns, table)
    got_columns, values = textio.read_table(path)
    assert got_columns == columns
    assert values.shape == (len(table), width)
    assert _bits(values) == _bits(np.reshape(table, (len(table), width)))


@pytest.mark.parametrize("rows, cols", [(0, 4), (4, 0), (1, 1), (9, 7), (700, 7), (3, 5000)])
def test_triplets_are_bytewise_those_of_the_whole_matrix_writer(tmp_path, rows, cols):
    # Bands of several rows, of one row, and ends inside a band; zeros of
    # both signs among the edge values.
    rng = np.random.default_rng(rows * 7919 + cols)
    dense = rng.choice(np.array(EDGE_VALUES), size=(rows, cols))
    dense[rng.random((rows, cols)) < 0.5] = 0.0
    stored = sp.csr_array(dense)
    stored.data[::3] = 0.0  # explicit zeros that the CSR array keeps
    for matrix in (dense, stored, np.asfortranarray(dense)):
        textio.write_triplets(tmp_path / "m.txt", matrix)
        assert (tmp_path / "m.txt").read_bytes() == oracles.triplet_text(matrix).encode()


def test_empty_matrix_and_header_only_trace_round_trip_without_warnings(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        textio.write_triplets(tmp_path / "m.txt", sp.csr_array((3, 4)))
        back = textio.read_triplets(tmp_path / "m.txt")
        assert back.shape == (3, 4) and back.nnz == 0
        IterTrace(["k", "objective"]).to_csv(tmp_path / "t.csv")
        columns, values = textio.read_table(tmp_path / "t.csv")
        assert columns == ["k", "objective"] and len(values) == 0
        textio.write_vector(tmp_path / "v.txt", [])
        assert textio.read_vector(tmp_path / "v.txt").size == 0


def test_tables_write_strings_as_given_and_numbers_with_17_digits(tmp_path):
    path = tmp_path / "s.csv"
    textio.write_table(path, ["label", "value", "count"], [["fb", 0.1, 3], ["x", np.nan, True]])
    assert path.read_text() == "label,value,count\nfb,0.10000000000000001,3\nx,nan,1\n"


def test_a_write_that_fails_partway_leaves_the_previous_file(tmp_path):
    path = tmp_path / "t.csv"
    textio.write_table(path, ["a"], [[1.0], [2.0]])
    before = path.read_bytes()
    rows = ([float(k)] for k in range(3 * textio.CHUNK_LINES))

    def failing():
        yield from rows
        yield [None]

    with pytest.raises(TypeError):
        textio.write_table(path, ["a"], failing())
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]


def test_unreadable_and_unwritable_files_are_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="nowhere.txt"):
        textio.read_vector(tmp_path / "nowhere.txt")
    (tmp_path / "file").write_text("")
    with pytest.raises(ConfigError, match="file"):
        textio.write_vector(tmp_path / "file" / "v.txt", [1.0])


@pytest.mark.parametrize("text, line", [
    ("2 2 2\n1 1 1.0\n1 2 abc\n", ":3:"),
    ("2 2 2\n1 1 1.0\n1 2\n", ":3:"),
    ("2 2 1\n1.5 1 1.0\n", ": entry 1 "),
    ("2 2 3\n1 1 1.0\n\n0 1 1.0\n", ": entry 2 "),
    ("2 x 1\n", ":1:"),
    ("2 2 -1\n", ":1:"),
    ("2 2 99999999999999\n", ":1:"),
    ("1 1 2\n1 1 1\n1 1 2\n", ":1:"),
    ("3 3 2\n1 1 1\n", ":1:"),
])
def test_malformed_triplets_name_the_line(tmp_path, text, line):
    path = tmp_path / "m.txt"
    path.write_text(text)
    with pytest.raises(DimensionError, match=f"m.txt{line}"):
        textio.read_triplets(path)


def test_a_repeated_triplet_entry_is_refused_naming_it(tmp_path):
    # Read as a sum, the two entries would give 4.0 at (1, 1).
    path = tmp_path / "m.txt"
    path.write_text("2 2 2\n1 1 1.5\n1 1 2.5\n")
    with pytest.raises(DimensionError, match="m.txt: entry 2 repeats row 1 col 1"):
        textio.read_triplets(path)
    path.write_text("3 3 5\n2 3 1\n1 1 1\n3 1 1\n1 1 0\n2 3 1\n")
    with pytest.raises(DimensionError, match="m.txt: entry 4 repeats row 1 col 1"):
        textio.read_triplets(path)


def test_malformed_vector_names_the_line_and_blank_lines_hold_no_entry(tmp_path):
    path = tmp_path / "v.txt"
    path.write_text("1.5\n\n2.5\n")
    assert textio.read_vector(path).tolist() == [1.5, 2.5]
    path.write_text("1.5\n\nnope\n")
    with pytest.raises(DimensionError, match="v.txt:3:"):
        textio.read_vector(path)


def test_keyvalue_reader_skips_blank_and_comment_lines(tmp_path):
    path = tmp_path / "kv.txt"
    path.write_text("# note\n\n a = 1 \nb=x=y\n")
    assert textio.read_keyvalue(path) == [(3, "a", "1"), (4, "b", "x=y")]
    path.write_text("a=1\nnot a pair\n")
    with pytest.raises(ConfigError, match="kv.txt:2:"):
        textio.read_keyvalue(path)


TINY = "problem=lasso\ndim=5\nn_samples=10\n"


@pytest.mark.parametrize("name, corrupt, code, named", [
    ("meta.txt", lambda t: t.replace("n_samples=10", "n_samples=abc"), 1, "config error"),
    ("design.txt", lambda t: t.replace("\n1 1 ", "\n1 1 x", 1), 2, "solver error"),
    ("response.txt", lambda t: "oops\n" + t, 2, "solver error"),
    ("coupling.txt", lambda t: "\n".join(t.splitlines()[:-2]) + "\n", 2, "solver error"),
    ("coupling.txt", None, 1, "config error"),
])
def test_corrupt_bundles_exit_with_a_typed_error_naming_the_file(
        tmp_path, capsys, name, corrupt, code, named):
    config = tmp_path / "gen.cfg"
    config.write_text(TINY)
    assert cli.main(["gen", "--config", str(config), "--out", str(tmp_path / "gen")]) == 0
    target = tmp_path / "gen" / "bundle" / name
    if corrupt is None:
        target.unlink()
    else:
        target.write_text(corrupt(target.read_text()))
    capsys.readouterr()
    config.write_text(f"bundle={tmp_path / 'gen' / 'bundle'}\nalgorithm=fb\nmax_iters=3\n")
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "run")]) == code
    err = capsys.readouterr().err
    assert err.startswith(f"{named}: ") and str(target) in err


def test_an_impossible_triplet_header_exits_two_naming_the_file(tmp_path, capsys):
    config = tmp_path / "gen.cfg"
    config.write_text(TINY)
    assert cli.main(["gen", "--config", str(config), "--out", str(tmp_path / "gen")]) == 0
    target = tmp_path / "gen" / "bundle" / "coupling.txt"
    lines = target.read_text().splitlines(keepends=True)
    target.write_text("2 2 99999999999999\n" + "".join(lines[1:]))
    capsys.readouterr()
    config.write_text(f"bundle={tmp_path / 'gen' / 'bundle'}\nalgorithm=fb\nmax_iters=3\n")
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("solver error: ") and f"{target}:1:" in err


def _writes(tree):
    """Calls in ``tree`` that open a file for writing or rename one."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        if isinstance(func, ast.Attribute) and getattr(func.value, "id", "") == "os" \
                and name in ("replace", "rename"):
            found.append(f"os.{name}")
        elif name == "open":
            mode = node.args[1] if len(node.args) > 1 else next(
                (k.value for k in node.keywords if k.arg == "mode"), None)
            text = mode.value if isinstance(mode, ast.Constant) else "r"
            if not isinstance(mode, (ast.Constant, type(None))) or set(text) & set("wax+"):
                found.append(f"open({text!r})")
    return found


def test_only_textio_writes_files():
    package = pathlib.Path(textio.__file__).parent
    writers = {}
    for path in sorted(package.glob("*.py")):
        found = _writes(ast.parse(path.read_text()))
        if found:
            writers[path.name] = found
    assert set(writers) == {"textio.py"}, writers
