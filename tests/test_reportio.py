import numpy as np

from qpii.reportio import dumps, jsonable


def test_numpy_values_dump_to_pinned_text():
    # the text the report format has always given these values
    doc = {
        "float32": np.float32(0.1),
        "float64": np.float64(0.1),
        "int64": np.int64(-7),
        "complex64": np.complex64(0.1 + 2j),
        "complex128": np.complex128(0.1 - 2j),
        "array0d": np.array(1.5),
        "array2d": np.array([[0.1, 2.0], [-0.0, 3.5]]),
        "carray": np.array([[1 + 0.5j]]),
        "bool_": [np.bool_(True), np.bool_(False)],
    }
    assert dumps(doc) == (
        '{\n "array0d": 1.5,\n "array2d": [\n  [\n   0.1,\n   2.0\n  ],\n  [\n   -0.0,\n'
        '   3.5\n  ]\n ],\n "bool_": [\n  true,\n  false\n ],\n "carray": [\n  [\n   [\n'
        '    1.0,\n    0.5\n   ]\n  ]\n ],\n "complex128": [\n  0.1,\n  -2.0\n ],\n'
        ' "complex64": [\n  0.10000000149011612,\n  2.0\n ],\n'
        ' "float32": 0.10000000149011612,\n "float64": 0.1,\n "int64": -7\n}\n'
    )


def test_jsonable_gives_python_scalars_for_numpy_scalars():
    values = [np.float64(0.5), np.int64(3), np.bool_(True), np.complex128(1 - 1j)]
    out = jsonable(values)
    assert out == [0.5, 3, True, [1.0, -1.0]]
    assert [type(v) for v in out[:3]] == [float, int, bool]
    assert [type(v) for v in out[3]] == [float, float]
