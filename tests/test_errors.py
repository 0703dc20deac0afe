"""The shared input checks of qlgraph.errors, and the public entry points
refusing values through them."""
import io

import numpy as np
import pytest

import qlgraph as ql
from qlgraph.errors import InvalidParameterError, require_int, shown

# Past sys.get_int_max_str_digits() (4,300 by default): repr refuses it.
HUGE = 10**5000


class TestRequireInt:
    @pytest.mark.parametrize("value,lo,hi,message", [
        (-1, 0, None, "x must be at least 0, got -1"),
        (10, None, 9, "x must be at most 9, got 10"),
        (0, 1, 9, "x must be in [1, 9], got 0"),
        (10, 1, 9, "x must be in [1, 9], got 10"),
        (np.uint64(2**64 - 1), 0, 2**63, "x must be in [0, 9223372036854775808], "
                                         "got 18446744073709551615"),
        (-HUGE, 0, None, "x must be at least 0, got an int of 5001 digits"),
        (True, 0, 1, "x must be an integer, got True"),
        (np.bool_(False), None, None, "x must be an integer, got np.False_"),
        (2.0, None, None, "x must be an integer, got 2.0"),
        ([HUGE], None, None, "x must be an integer, got a list holding such an int"),
    ], ids=["lo", "hi", "below-both", "above-both", "uint64", "huge", "bool", "np-bool", "float",
            "huge-list"])
    def test_refusals(self, value, lo, hi, message):
        with pytest.raises(InvalidParameterError) as info:
            require_int("x", value, lo, hi)
        assert str(info.value) == message

    def test_values_within_bounds_come_back_as_int(self):
        for value, lo, hi in [(-5, None, None), (0, 0, None), (9, None, 9), (1, 1, 1),
                              (np.uint64(2**64 - 1), 0, 2**64 - 1), (np.int8(-3), -3, 3)]:
            got = require_int("x", value, lo, hi)
            assert type(got) is int and got == value


class TestShown:
    def test_a_printable_value_is_its_repr(self):
        for value in (3, -2.5, "a", None, [1, 2], np.float64(1.5)):
            assert shown(value) == repr(value)

    @pytest.mark.parametrize("value,digits", [
        (10**4300 - 1, None), (10**4300, 4301), (-(10**4300), 4301), (HUGE - 1, 5000),
        (HUGE, 5001), (-HUGE, 5001), (HUGE + 1, 5001), (9 * HUGE, 5001), (10 * HUGE - 1, 5001),
    ], ids=["4300", "4301", "-4301", "5000", "5001", "-5001", "5001+1", "9x5001", "5002-1"])
    def test_an_int_too_long_to_print_is_named_by_its_digit_count(self, value, digits):
        assert shown(value) == (repr(value) if digits is None else f"an int of {digits} digits")

    def test_a_value_holding_such_an_int_is_named_by_its_type(self):
        assert shown([1, HUGE]) == "a list holding such an int"
        assert shown({"n": HUGE}) == "a dict holding such an int"


def _c3():
    return ql.cycle_graph(3)


# Public entry point -> (the start of its refusal, a call given x for one parameter).
_ENTRY_POINTS = {
    "Graph n_vertices": ("n_vertices", lambda x: ql.Graph(x, [])),
    "cycle_graph n": ("n", ql.cycle_graph),
    "d_regular_random n": ("n", lambda x: ql.d_regular_random(x, 2, ql.RngSeed(0))),
    "d_regular_random d": ("d", lambda x: ql.d_regular_random(6, x, ql.RngSeed(0))),
    "delete_random_edges count": (
        "count", lambda x: ql.delete_random_edges(_c3(), x, ql.RngSeed(0))),
    "RngSeed seed": ("seed", lambda x: ql.RngSeed(x)),
    "derive": ("derivation path entry", lambda x: ql.RngSeed(0).derive(1, x)),
    "run_sample": ("sample_index", lambda x: ql.run_sample(ql.BUNDLED_EXPERIMENTS["fig2a"], x)),
    "emergent_component_counts": (
        "emergent index", lambda x: ql.emergent_component_counts([3], [{x}])),
    "histogram_edges bins": ("bins", lambda x: ql.histogram_edges(0.0, 1.0, x)),
    "QLBit sign": ("sign", lambda x: ql.QLBit(_c3(), _c3(), [[0, 1]], x)),
    "couple sign": ("sign", lambda x: ql.couple(_c3(), _c3(), 0.5, x, ql.RngSeed(0))),
    "couple p": ("p", lambda x: ql.couple(_c3(), _c3(), x, 1, ql.RngSeed(0))),
    "apply_diagonal_disorder sigma": (
        "sigma", lambda x: ql.apply_diagonal_disorder(np.zeros((2, 2)), x, ql.RngSeed(0))),
    "Graph edge": ("edge", lambda x: ql.Graph(3, [[0, x]])),
    "QLBit cross edge": ("coupling edge", lambda x: ql.QLBit(_c3(), _c3(), [[0, x]], 1)),
}


@pytest.mark.parametrize("site,sign", [(site, sign) for site in _ENTRY_POINTS for sign in (1, -1)])
def test_ints_too_long_to_print_are_refused_by_digit_count(site, sign):
    start, call = _ENTRY_POINTS[site]
    with pytest.raises(InvalidParameterError, match=rf"^{start} .*an int of 5001 digits"):
        call(sign * HUGE)


# Public entry point -> (the name its refusal gives the array, a call given it).
_ARRAY_SITES = {
    "eigendecompose": ("matrix", ql.eigendecompose),
    "apply_diagonal_disorder": (
        "matrix", lambda a: ql.apply_diagonal_disorder(a, 1.0, ql.RngSeed(0))),
    "project_alphas": (
        "factor vector", lambda a: ql.project_alphas([ql.QLBit(_c3(), _c3(), [], 1)], [a])),
    "compose_spectra": ("eigenvalues", lambda a: ql.compose_spectra([a])),
    "emergent_pair": (
        "eigenvalues", lambda a: ql.emergent_pair(ql.QLBit(_c3(), _c3(), [], 1), a)),
}


@pytest.mark.parametrize("array,dtype", [
    (np.array([[0, 1j], [-1j, 0]]), "complex128"),  # a cast would drop the imaginary part
    (np.array([["a", "b"], ["c", "d"]]), "<U1"),
    (np.array([[HUGE, 0], [0, 0]], dtype=object), "object"),
    ([[1.0, 0.0], [0.0, None]], "object"),
], ids=["complex", "str", "object", "none"])
@pytest.mark.parametrize("site", list(_ARRAY_SITES))
def test_arrays_of_no_reals_refused(site, array, dtype):
    name, call = _ARRAY_SITES[site]
    with pytest.raises(InvalidParameterError,
                       match=rf"^{name} must hold real numbers, got dtype {dtype}$"):
        call(array)


@pytest.mark.parametrize("site", list(_ARRAY_SITES))
def test_ragged_arrays_refused(site):
    name, call = _ARRAY_SITES[site]
    with pytest.raises(InvalidParameterError, match=rf"^{name} must be an array, got ragged rows$"):
        call([[1.0, 0.0], [0.0]])


def test_bool_and_integer_arrays_cast_exactly():
    for a in (np.eye(2, dtype=bool), np.eye(2, dtype=np.int8), [[1, 0], [0, 1]]):
        assert ql.eigendecompose(a)[0].tolist() == [1.0, 1.0]


@pytest.mark.parametrize("write", [
    lambda fh: ql.write_histogram_csv(np.array([1, 2, 3]), np.array([0.0, 1.0]), fh),
    lambda fh: ql.write_composed_spectrum_csv(np.zeros(3), (2, 2), fh, [{0}, {0}]),
], ids=["histogram", "spectrum"])
def test_writers_refuse_mismatched_shapes_before_writing(write):
    # 3 counts for the one bin of two edges; 3 values for the 2 x 2 grid.
    fh = io.StringIO()
    with pytest.raises(InvalidParameterError):
        write(fh)
    assert fh.getvalue() == ""


@pytest.mark.parametrize("dtype", [np.float32, np.int64])
def test_spectrum_writer_refuses_values_other_than_float64(dtype):
    # Values of the right shape: float32 once wrote the header, then failed in
    # repr_texts; int64 wrote rows such as `3,0,0,2`.
    fh = io.StringIO()
    with pytest.raises(InvalidParameterError,
                       match=f"^values must be float64, got {dtype.__name__}$"):
        ql.write_composed_spectrum_csv(np.array([3, 2, 1, 0], dtype=dtype), (2, 2), fh,
                                       [{0}, {0}])
    assert fh.getvalue() == ""
