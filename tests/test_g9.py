"""The array '%.9g' encoder of the shot files, against '%.9g' itself."""

import numpy as np

from fastreadout import _g9


def encoded(values: np.ndarray) -> list[bytes]:
    out = np.empty(values.shape + (_g9.WIDTH,), dtype=np.uint8)
    _g9.encode(values, out)
    out[..., _g9.SEP] = ord(",")
    return out.tobytes().translate(None, b"\0").split(b",")[:-1]


def mismatches(values: np.ndarray) -> list:
    want = [b"%.9g" % v for v in values.tolist()]
    got = encoded(values)
    assert len(got) == len(want)
    return [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]


def ties(rng, n: int) -> np.ndarray:
    """The doubles nearest to 9-digit mantissas with a 5 in the 10th digit,
    at 10^-14 .. 10^8; exact ties where the double is exact (x.5 at 10^8)."""
    mantissa = rng.integers(10**8, 10**9, n)
    exponent = rng.integers(-14, 0, n)
    return np.array([float(f"{m}5e{x}") for m, x in zip(mantissa.tolist(),
                                                       exponent.tolist())])


def test_matches_printf_on_a_million_values(monkeypatch):
    rng = np.random.default_rng(2017)
    # the table's range, 1e-5 <= |v| < 1e9, with both signs
    table = rng.choice([-1.0, 1.0], 500_000) * 10.0 ** rng.uniform(-5, 9, 500_000)
    near = ties(rng, 100_000)
    special = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf,
                        1.7976931348623157e308])
    # values that round into the next decade, the table's edges, subnormals
    edges = np.array([9.9999999995e-5, 99999.99995, 999999999.5, 9.999999995e-6,
                      9.99e-6, 1e-5, 1e-4, 1e9, 123456789.5, 123456788.5,
                      5e-324, 2.2250738585072014e-308])
    powers = np.array([float(f"{s}1e{k}") for k in range(-323, 309) for s in "+-"])
    values = np.concatenate([
        table,
        # every exponent, subnormals and NaN payloads included
        rng.integers(0, 2**64, 200_000, dtype=np.uint64).view(float),
        10.0 ** rng.uniform(-324, 308, 100_000),
        # powers of ten and their neighbours, where log10 may round across
        powers, np.nextafter(powers, 0.0),
        np.nextafter(powers, np.copysign(np.inf, powers)),
        near, np.nextafter(near, np.inf), np.nextafter(near, -np.inf),
        special, -special, edges, -edges, np.nextafter(edges, np.inf),
        np.nextafter(edges, -np.inf),
    ])
    assert len(values) >= 10**6
    assert mismatches(values) == []

    # most values of the table's range take the table, not '%.9g'
    printed = []
    printf = _g9._printf

    def spy(v):
        printed.append(len(v))
        return printf(v)

    monkeypatch.setattr(_g9, "_printf", spy)
    assert mismatches(table) == []
    assert sum(printed) < len(table) // 1000


def test_rounding_into_the_next_decade():
    # the first three are the decimal ties, whose doubles fall on either
    # side; the rest lie beyond the tie and print as the next power of ten
    values = np.array([9.9999999995e-5, 99999.99995, 999999999.5,
                       9.9999999996e-6, 9.9999999996e-5, 0.0009999999996,
                       99.99999996, 99999999.96])
    assert encoded(values) == [b"0.0001", b"99999.9999", b"1e+09", b"1e-05",
                               b"0.0001", b"0.001", b"100", b"100000000"]
    assert encoded(-values) == [b"-" + text for text in encoded(values)]
    assert mismatches(np.concatenate([values, np.nextafter(values, 0.0)])) == []


def test_records_in_a_strided_view():
    # rows of records inside a wider array, as the shot-file writer uses them
    values = np.array([[1.5, -2.25e-5, np.nan], [1e300, 0.0, 7.0]])
    rows = np.full((2, 5, _g9.WIDTH), 255, dtype=np.uint8)
    _g9.encode(values, rows[:, 1:4])
    rows[:, 1:4, _g9.SEP] = ord(",")
    text = rows[:, 1:4].tobytes().translate(None, b"\0")
    assert text == b"1.5,-2.25e-05,nan,1e+300,0,7,"
    assert np.all(rows[:, [0, 4]] == 255)
