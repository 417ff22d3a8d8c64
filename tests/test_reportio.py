import json
from pathlib import Path

import numpy as np
import pytest

import qpii.cli
from qpii.cli import main
from qpii.reportio import dumps, jsonable

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def indented_dumps(report) -> str:
    """The indented text reports had before they became one line, kept as
    the reference the compact text must parse back equal to."""
    return json.dumps(jsonable(report), sort_keys=True, separators=(",", ": "), indent=1) + "\n"


def _sorted_pairs(pairs):
    keys = [key for key, _ in pairs]
    assert keys == sorted(keys), keys
    return dict(pairs)


def assert_canonical(report, text):
    """``text`` is ``dumps(report)``: one line, keys sorted in every object,
    and the same content as the indented reference."""
    assert text == dumps(report)
    assert text.endswith("\n") and text.count("\n") == 1
    parsed = json.loads(text, object_pairs_hook=_sorted_pairs)
    assert parsed == json.loads(indented_dumps(report))


def test_numpy_values_dump_to_pinned_text():
    # the values the report format has always given these numpy types
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
        '{"array0d":1.5,"array2d":[[0.1,2.0],[-0.0,3.5]],"bool_":[true,false],'
        '"carray":[[[1.0,0.5]]],"complex128":[0.1,-2.0],'
        '"complex64":[0.10000000149011612,2.0],"float32":0.10000000149011612,'
        '"float64":0.1,"int64":-7}\n'
    )
    assert_canonical(doc, dumps(doc))


def test_jsonable_gives_python_scalars_for_numpy_scalars():
    values = [np.float64(0.5), np.int64(3), np.bool_(True), np.complex128(1 - 1j)]
    out = jsonable(values)
    assert out == [0.5, 3, True, [1.0, -1.0]]
    assert [type(v) for v in out[:3]] == [float, int, bool]
    assert [type(v) for v in out[3]] == [float, float]


def _jsonable_per_entry(obj):
    """The conversion complex arrays had before the float view: ``tolist``,
    then one ``[re, im]`` pair per Python complex."""
    if isinstance(obj, list):
        return [_jsonable_per_entry(v) for v in obj]
    return [obj.real, obj.imag]


@pytest.mark.parametrize(
    "array",
    [
        np.array([[-0.0 - 0.0j, 1.5 + 0.0j], [complex(0.0, -0.0), complex(-0.0, 2.0)]]),
        np.array([[1 + 2j, 3 - 4j], [5 + 6j, 7 - 8j]]).T,
        np.arange(24).reshape(2, 3, 4)[:, ::2, 1:3] * (1 - 0.5j),
        np.array([0.1 + 0.2j], dtype=np.complex64),
        np.array([[complex("nan+infj")]]),
        np.zeros((2, 0), dtype=np.complex128),
        np.array(complex(1.0, -0.0)),
    ],
    ids=["signed-zeros", "transposed", "strided", "complex64", "non-finite", "empty", "0-d"],
)
def test_complex_arrays_convert_like_one_pair_per_entry(array):
    got = jsonable(array)
    want = _jsonable_per_entry(array.tolist())
    assert json.dumps(got) == json.dumps(want)
    assert [repr(v) for v in np.ravel(got)] == [repr(v) for v in np.ravel(want)]


SINGULAR = "singular"


@pytest.mark.parametrize(
    "argv, code",
    [
        (["derive", "qpii"], 0),
        (["derive", "riccati"], 0),
        (["derive", "symmetric"], 0),
        (["quasidet", "--input", str(CONFIGS / "sample_matrix.json")], 0),
        (["quasidet", "--input", str(CONFIGS / "sample_matrix.json"), "--position", "1", "0"], 0),
        (["quasidet", "--input", str(CONFIGS / "sample_blocks.json")], 0),
        (["quasidet", "--input", str(CONFIGS / "sample_blocks.json"), "--position", "0", "1"], 0),
        (["quasidet", "--input", SINGULAR], 1),
        (["darboux", "--config", str(CONFIGS / "vacuum_n2.json")], 0),
        (["darboux", "--config", str(CONFIGS / "vacuum_n3_d2.json")], 0),
    ],
    ids=lambda v: " ".join(Path(a).name for a in v) if isinstance(v, list) else None,
)
def test_cli_reports_are_one_canonical_line(argv, code, tmp_path, capsys, monkeypatch):
    if SINGULAR in argv:
        matrix = tmp_path / "singular.json"
        matrix.write_text(json.dumps([["0", "1"], ["1", "0"]]))
        argv = [str(matrix) if a == SINGULAR else a for a in argv]
    emitted = []

    def recording_dumps(report):
        emitted.append(report)
        return dumps(report)

    monkeypatch.setattr(qpii.cli, "dumps", recording_dumps)
    assert main(argv) == code
    [report] = emitted
    assert ("error" in report) == (code == 1)
    assert_canonical(report, capsys.readouterr().out)


def test_selftest_report_is_one_canonical_line(selftest_report):
    assert_canonical(selftest_report, dumps(selftest_report))
