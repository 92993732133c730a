"""Report emission: the shared CSV table writer."""

import numpy as np

from radoncomp.reports import write_table


def _per_value_repr(path, header, table):
    """Reference writer: every cell through repr(float), one at a time."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header)
        for row in table:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def test_write_table_matches_per_value_repr(tmp_path):
    negative_nan = np.array([0xFFF8000000000000], np.uint64).view(float)[0]
    special = [0.0, -0.0, np.nan, negative_nan, np.inf, -np.inf, 5e-324,
               -5e-324, 1.0 / 3.0, 1e300, 0.1, -2.0]
    rng = np.random.default_rng(7)
    table = rng.choice(special, size=(40, 15))     # mostly repeated values
    table[0, :len(special)] = special
    table[:, -1] = rng.standard_normal(40)         # and some distinct ones
    header = "# a header line\nc0,c1\n"
    write_table(tmp_path / "fast.csv", header, table)
    _per_value_repr(tmp_path / "ref.csv", header, table)
    fast = (tmp_path / "fast.csv").read_bytes()
    assert fast == (tmp_path / "ref.csv").read_bytes()
    assert b"-0.0," in fast and b"5e-324" in fast and b"-inf" in fast
