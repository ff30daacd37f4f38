"""The block CSV writer against a row-by-row f-string dump, and the CLI artifacts.

The references are the row loops the block writer replaced: one
``f"{v:.17g}"`` per value and one line per row.  The text must match byte for
byte, including signed zeros, subnormals, infinities, NaN and the largest and
smallest exponents, and on both sides of a block boundary.
"""

import io
import json

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from snlpscale import ExitSpec, MCConfig, ScaleTable, parse_bivariate, run_exit_mc
from snlpscale._csvout import _BLOCK_ROWS
from snlpscale.cli import main, parse_model
from snlpscale.mc import ExitSamples

# no shrinking: a failing example is already reported by its first differing row
_SETTINGS = settings(deadline=None, max_examples=5, derandomize=True, database=None,
                     phases=(Phase.explicit, Phase.generate))
ROW_COUNTS = [1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 1]
SPECIAL = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, np.inf, -np.inf, np.nan,
           1.7976931348623157e308, -1e300, 1e-300, 0.1, 1.0 / 3.0]

_values = st.lists(
    st.one_of(
        st.floats(width=64),
        st.floats(1e290, 1e308) | st.floats(-1e308, -1e290),
        st.floats(1e-320, 1e-290) | st.floats(-1e-290, -1e-320),
    ),
    max_size=40,
)


def _columns(values, n, k, seed):
    """``k`` columns of length ``n`` drawn from ``values`` and ``SPECIAL``."""
    pool = np.array(SPECIAL + values, dtype=float)
    return np.random.default_rng(seed).choice(pool, size=(k, n))


def table_reference(table):
    """Row loop of ``ScaleTable.to_csv`` before block formatting."""
    fh = io.StringIO()
    with_z = table.z_values is not None
    fh.write("x,W,Wprime,Z,Zprime\n" if with_z else "x,W,Wprime\n")
    xs = table.grid
    for i in range(table.n):
        row = [xs[i], table.w_values[i], table.w_deriv[i]]
        if with_z:
            row += [table.z_values[i], table.z_deriv[i]]
        fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
    return fh.getvalue()


def samples_reference(samples):
    """Row loop of ``ExitSamples.to_csv`` before block formatting."""
    fh = io.StringIO()
    fh.write("path,exited_up,s_at_exit,x_pre,x_post,functional\n")
    for i in range(samples.exited_up.size):
        fh.write(
            f"{i},{int(samples.exited_up[i])},{samples.s_at_exit[i]:.17g},"
            f"{samples.x_pre[i]:.17g},{samples.x_post[i]:.17g},"
            f"{samples.functional[i]:.17g}\n"
        )
    return fh.getvalue()


def assert_same_text(got, want):
    """Equal text, reported by its first differing row (a full diff would be slow)."""
    got_rows, want_rows = got.splitlines(True), want.splitlines(True)
    for i, (g, w) in enumerate(zip(got_rows, want_rows)):
        assert g == w, f"row {i}: {g!r} != {w!r}"
    assert len(got_rows) == len(want_rows)


class TestByteIdentity:
    @pytest.mark.parametrize("with_z", [False, True], ids=["3col", "5col"])
    @pytest.mark.parametrize("n", ROW_COUNTS)
    @_SETTINGS
    @given(values=_values, seed=st.integers(0, 2**32 - 1), hi=st.floats(-1e300, 1e300))
    def test_scale_table(self, n, with_z, values, seed, hi):
        cols = _columns(values, n, 4, seed)
        table = ScaleTable(
            grid_lo=0.0, grid_hi=hi, n=n, w_values=cols[0], w_deriv=cols[1],
            z_values=cols[2] if with_z else None, z_deriv=cols[3] if with_z else None,
        )
        assert_same_text(table.to_csv_string(), table_reference(table))

    @pytest.mark.parametrize("n", [0] + ROW_COUNTS)
    @_SETTINGS
    @given(values=_values, seed=st.integers(0, 2**32 - 1))
    def test_exit_samples(self, n, values, seed):
        cols = _columns(values, n, 4, seed)
        up = np.random.default_rng(seed + 1).random(n) < 0.5
        samples = ExitSamples(up, *cols)
        buf = io.StringIO()
        samples.to_csv(buf)
        assert_same_text(buf.getvalue(), samples_reference(samples))

    def test_path_target_gets_the_stream_text(self, tmp_path):
        cols = _columns([], 5, 4, 0)
        samples = ExitSamples(np.array([True, False, True, True, False]), *cols)
        buf = io.StringIO()
        samples.to_csv(buf)
        samples.to_csv(str(tmp_path / "s.csv"))
        assert (tmp_path / "s.csv").read_bytes() == buf.getvalue().encode()


SCALE_TABLE = ["scale-table", "--model", "jd:2,1,1,0.5", "--q", "0.5", "--a", "4",
               "--grid-inner", str(2 * _BLOCK_ROWS + 1)]


def test_scale_table_csv_file_is_the_inline_csv(tmp_path, capsys):
    assert main(SCALE_TABLE) == 0
    inline = json.loads(capsys.readouterr().out)["csv_inline"]
    path = tmp_path / "table.csv"
    assert main([*SCALE_TABLE, "--csv", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["csv"] == str(path) and "csv_inline" not in doc
    assert path.read_bytes() == inline.encode()


def test_mc_verify_csv_holds_every_counted_path(tmp_path, capsys):
    path = tmp_path / "samples.csv"
    argv = ["mc-verify", "--model", "bm:0,1", "--b", "0", "--x", "0.5", "--a", "1",
            "--grid-outer", "9", "--grid-inner", "32", "--potential", "const:0.5",
            "--paths", "200", "--dt", "1e-3", "--seed", "3", "--csv", str(path)]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["csv"] == str(path)

    spec = ExitSpec(0.0, 0.5, 1.0)
    res = run_exit_mc(parse_model("bm:0,1"), parse_bivariate("const:0.5", spec.a - spec.b),
                      spec, MCConfig(dt=1e-3, n_paths=200, seed=3), keep_samples=True)
    s = res.samples
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "path,exited_up,s_at_exit,x_pre,x_post,functional"
    assert len(lines) - 1 == 200 - doc["n_censored"] == s.exited_up.size
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    assert np.array_equal(table[:, 0], np.arange(s.exited_up.size))
    assert np.array_equal(table[:, 1], s.exited_up)
    for j, col in enumerate((s.s_at_exit, s.x_pre, s.x_post, s.functional), start=2):
        assert np.array_equal(table[:, j], col)
