import json
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpii import quasidet
from qpii.cli import main

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"


def run_main(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_derive_qpii_json(capsys):
    code, out, _err = run_main(["derive", "qpii"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["ode"] == (
        "(-1+0i) c^1 + (1+0i) * f2'' + (2+0i) * f2 z + (2+0i) * z f2 "
        "+ (-2+0i) * f2 f2 f2"
    )
    anchors = [s["anchor"] for s in doc["report"]["steps"]]
    for tag in ("V1", "V2", "V3", "RM1", "L7"):
        assert tag in anchors


def test_derive_riccati_text(capsys):
    code, out, _err = run_main(["--format", "text", "derive", "riccati"], capsys)
    assert code == 0
    assert "expression" in out
    assert "Delta" in out


def test_derive_symmetric(capsys):
    code, out, _err = run_main(["derive", "symmetric"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == "(4+0i) h^1 l^1"
    assert doc["report"]["matches_table"] is False


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["derive", "qpii", "--bogus"])
    assert err.value.code == 2


def test_quasidet_exact_matrix(capsys):
    code, out, _err = run_main(
        ["quasidet", "--input", str(CONFIGS / "sample_matrix.json")], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["position_count"] == 9
    assert doc["carrier"] == "ExactScalarCarrier"
    assert all(v is True for v in doc["commutative_reduction"].values())


def test_quasidet_block_matrix_single_position(capsys):
    code, out, _err = run_main(
        [
            "quasidet",
            "--input",
            str(CONFIGS / "sample_blocks.json"),
            "--position",
            "0",
            "0",
        ],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["carrier"] == "ComplexMatrixCarrier"
    assert "0,0" in doc["positions"]


def test_quasidet_singular_minor_reports_like_single_position(tmp_path, capsys):
    matrix = tmp_path / "swap.json"
    matrix.write_text('[["0", "1"], ["1", "0"]]')
    code, out, _err = run_main(["quasidet", "--input", str(matrix)], capsys)
    assert code == 1
    assert json.loads(out) == {
        "command": "quasidet",
        "error": {"message": "no invertible pivot in column 0", "type": "NonInvertibleMinor"},
    }
    single = run_main(["quasidet", "--input", str(matrix), "--position", "0", "0"], capsys)
    assert single == (code, out, _err)


def test_quasidet_block_singular_minor_reports_kernel_message(tmp_path, capsys):
    matrix = tmp_path / "swap_blocks.json"
    matrix.write_text("[[[[0]], [[1]]], [[[1]], [[0]]]]")
    code, out, _err = run_main(["quasidet", "--input", str(matrix)], capsys)
    assert code == 1
    assert json.loads(out)["error"] == {
        "message": "pivot below tolerance at stack index 0",
        "type": "NonInvertibleMinor",
    }


@pytest.mark.parametrize(
    "doc, message",
    [
        ("[[[[1, 2]]]]", "matrix blocks must be square arrays of arrays"),
        ("[[[[1]], 1]]", "matrix blocks must be square arrays of arrays"),
        (
            "[[[[1, 0], [0, 1]], [[1]]], [[[1]], [[1]]]]",
            "every matrix block must be 2x2 like the first",
        ),
        ('[["1/0"]]', "cannot parse exact entry '1/0'"),
        ("[[[[NaN]]]]", "matrix block entries must be finite"),
        ("[[[0.1, 0]]]", "cannot parse exact entry [0.1, 0]"),
        ("[[true]]", "cannot parse exact entry True"),
        ("[[[true, 1]]]", "cannot parse exact entry [True, 1]"),
        ("[[[1, 0.5]]]", "cannot parse exact entry [1, 0.5]"),
        ('[[["1e999", 0]]]', "cannot parse exact entry ['1e999', 0]"),
        ('[[["x", 0]]]', "cannot parse exact entry ['x', 0]"),
        ('[["x"]]', "cannot parse exact entry 'x'"),
        ("[[[[1" + "0" * 400 + "]]]]", "matrix block entries must be finite"),
    ],
    ids=["row-not-array", "scalar-as-block", "block-sizes-differ", "zero-denominator", "nan",
         "float-in-pair", "bool", "bool-in-pair", "float-im", "exponent-string-in-pair",
         "word-in-pair", "word", "block-int-beyond-float-range"],
)
def test_quasidet_rejects_malformed_input(tmp_path, capsys, doc, message):
    matrix = tmp_path / "bad.json"
    matrix.write_text(doc)
    code, out, err = run_main(["quasidet", "--input", str(matrix)], capsys)
    assert (code, err) == (1, "")
    assert json.loads(out) == {
        "command": "quasidet",
        "error": {"message": message, "type": "QuasidetError"},
    }


@pytest.mark.parametrize(
    "doc, value",
    [('[["2"]]', "2+0i"), ("[[[1, 2]]]", "1+2i")],
    ids=["string", "pair"],
)
def test_quasidet_one_by_one_exact(tmp_path, capsys, doc, value):
    # the nesting alone makes [[[1, 2]]] the exact entry 1+2i, not a block
    matrix = tmp_path / "one.json"
    matrix.write_text(doc)
    code, out, _err = run_main(["quasidet", "--input", str(matrix)], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["carrier"] == "ExactScalarCarrier"
    assert report["positions"] == {"0,0": value}
    assert report["commutative_reduction"] == {"0,0": True}


def test_quasidet_exact_entry_beyond_float_range(tmp_path, capsys):
    matrix = tmp_path / "huge.json"
    matrix.write_text(json.dumps([["1" + "0" * 400, "1"], ["1", "1"]]))
    code, out, err = run_main(["quasidet", "--input", str(matrix)], capsys)
    assert (code, err) == (0, "")
    report = json.loads(out)
    # 1 - 1/10^400
    assert report["positions"]["1,1"] == "9" * 400 + "/1" + "0" * 400 + "+0i"
    assert report["commutative_reduction"] == {f"{i},{j}": True for i in (0, 1) for j in (0, 1)}


def test_quasidet_exact_computes_det_once_per_matrix(tmp_path, capsys, monkeypatch):
    # n^2 minor determinants and one det A; checking position by position
    # computes det A again at each of the n^2 positions
    calls = []
    det = quasidet.det_by_elimination
    monkeypatch.setattr(quasidet, "det_by_elimination", lambda M: calls.append(M.n) or det(M))
    matrix = tmp_path / "n4.json"
    matrix.write_text(json.dumps([
        ["-1+0i", "5/4+3i", "-4+0i", "-3/2+4i"],
        ["-2+1i", "2/3+2i", "3+0i", "-1+0i"],
        ["4/3+2i", "-3/2+2i", "-2/3+0i", "1+5i"],
        ["0+1i", "-3/4+2i", "-5/3+0i", "-2/3+4i"],
    ]))
    code, out, _err = run_main(["quasidet", "--input", str(matrix)], capsys)
    assert code == 0
    assert json.loads(out)["commutative_reduction"] == {f"{i},{j}": True for i in range(4) for j in range(4)}
    assert sorted(calls) == [3] * 16 + [4]


def test_quasidet_has_no_carrier_flag(capsys):
    with pytest.raises(SystemExit) as err:
        main(["quasidet", "--carrier", "exact", "--input", str(CONFIGS / "sample_matrix.json")])
    assert err.value.code == 2


def test_darboux_vacuum_config(capsys):
    code, out, _err = run_main(
        ["darboux", "--config", str(CONFIGS / "vacuum_n2.json")], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert all(level["within_tolerance"] for level in doc["levels"])
    assert max(level["path_deviation_max"] for level in doc["levels"]) <= 1e-8


def test_darboux_reports_structured_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "d": 1,
                "grid": {"z0": 0.0, "h": 0.01, "count": 101},
                "lambdas": [[1.0, 0.5], [1.0, 0.5]],
            }
        )
    )
    code, out, _err = run_main(["darboux", "--config", str(bad)], capsys)
    assert code == 1
    doc = json.loads(out)
    assert doc["error"]["type"] == "ConfigError"


def _config(**changes):
    doc = {
        "d": 2,
        "grid": {"z0": 0.0, "h": 0.1, "count": 11},
        "lambdas": [[1.0, 0.5], [0.3, -0.2]],
        "c": [0.0, 0.0],
        "seed": {"values": [[[[0.0, 0.0]] * 2] * 2] * 11},
        "inits": [{"chi": [[1, 0], [0, 1]], "phi": [[1, 0.2], [0, 1]]}] * 2,
        "convergence_probe": False,
    }
    doc.update(changes)
    return doc


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "changes, field",
    [
        ({"tolerances": {"consistency": 1e3}}, "tolerances"),
        ({"grid": {"z0": 0, "h": 0.1, "count": 11, "dz": 1}}, "dz"),
        ({"seed": {"values": [1]}}, "seed.values"),
        ({"lambdas": [[1e400, 0], [0.3, -0.2]]}, "lambdas"),
        ({"grid": {"z0": 0, "h": "nan", "count": 11}}, "grid.h"),
        ({"grid": {"z0": "inf", "h": 0.1, "count": 11}}, "grid.z0"),
        ({"inits": [{"chi": [[1, 0, 0]] * 3, "phi": [[1, 0], [0, 1]]}] * 2}, "inits"),
        ({"seed": {"file": "/nonexistent/seed.json"}}, "seed.file"),
        ({"grid": {"z0": 0, "h": 1e-200, "count": 11}}, "grid.h"),
        ({"d": 1.9}, "invalid d"),
        ({"d": True}, "invalid d"),
        ({"grid": {"z0": 0, "h": 0.1, "count": 11.9}}, "grid.count"),
        ({"convergence_probe": "false"}, "convergence_probe"),
    ],
    ids=["tolerances", "grid-key", "seed-values", "lambda-overflow", "h-nan", "z0-inf",
         "init-size", "seed-file-missing", "h-underflow", "d-float", "d-bool",
         "count-float", "probe-string"],
)
def test_darboux_rejects_malformed_config(tmp_path, capsys, changes, field):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(_config(**changes)))
    code, out, err = run_main(["darboux", "--config", str(config)], capsys)
    assert (code, err) == (1, "")
    error = json.loads(out)["error"]
    assert error["type"] == "ConfigError"
    assert field in error["message"]


_DELETE = object()
_MALFORMED = st.one_of(
    # a field replaced by a value of the wrong type, shape or finiteness
    st.tuples(
        st.sampled_from(("d", "grid", "lambdas", "c", "seed", "inits", "grid.z0", "grid.h",
                         "grid.count", "lambdas.0", "inits.0.chi", "seed.values")),
        st.sampled_from([None, "x", [], {}, [[]], float("nan"), float("inf"), -float("inf")]),
    ),
    # a required key deleted
    st.tuples(
        st.sampled_from(("d", "grid", "lambdas", "grid.z0", "grid.h", "grid.count",
                         "inits.0.chi", "inits.0.phi")),
        st.just(_DELETE),
    ),
    # an unknown key added
    st.tuples(
        st.sampled_from([parent + key for parent in ("", "grid.", "seed.", "inits.0.")
                         for key in ("tolerances", "Z0", "extra")]),
        st.integers(0, 3),
    ),
)


def _changed_config(path, value):
    doc = json.loads(json.dumps(_config()))
    *parents, last = path.split(".")
    node = doc
    for key in parents:
        node = node[int(key)] if isinstance(node, list) else node[key]
    key = int(last) if isinstance(node, list) else last
    if value is _DELETE:
        del node[key]
    else:
        node[key] = value
    return doc


@settings(derandomize=True, max_examples=50, deadline=None)
@given(change=_MALFORMED)
def test_malformed_darboux_configs_exit_1(tmp_path_factory, change):
    # a numpy warning fails the test as an exception
    config = tmp_path_factory.mktemp("config") / "config.json"
    config.write_text(json.dumps(_changed_config(*change)))
    report = config.with_name("report.json")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["--output", str(report), "darboux", "--config", str(config)])
    assert code == 1
    assert json.loads(report.read_text())["error"]["type"] == "ConfigError"


_EXACT = st.sampled_from([1, -2, "3/4+1/2i", "-2i", [1, "1/2"], ["-3", 0]])
_BLOCK_SCALAR = st.sampled_from([1, 0.5, [1, -2], [0.25, 0]])
_BAD_EXACT = st.sampled_from([
    0.5, 1.0, float("nan"), float("inf"), True, False, None, {}, [], "x", "1.5",
    [0.1, 0], [1, 0.5], [True, 1], [1, None], ["1e5", 0], [1, 2, 3], [[1, 2]],
])
_BAD_BLOCK_SCALAR = st.sampled_from([
    float("nan"), float("inf"), -float("inf"), None, "x", "1", {}, [], [1], [1, 2, 3],
    [1, float("nan")], [[1, 2]], 10**400,
])


@st.composite
def _square(draw, entry, min_n=1):
    n = draw(st.integers(min_n, 3))
    return [[draw(entry) for _ in range(n)] for _ in range(n)]


@st.composite
def _blocks(draw, min_n=1):
    d = draw(st.integers(1, 2))
    block = st.lists(st.lists(_BLOCK_SCALAR, min_size=d, max_size=d), min_size=d, max_size=d)
    return draw(_square(block, min_n))


def _pick(draw, items):
    return items[draw(st.integers(0, len(items) - 1))]


@st.composite
def _malformed_matrix(draw):
    kind = draw(st.sampled_from(
        ["nesting", "ragged", "ragged-block", "mixed", "exact-scalar", "block-scalar"]
    ))
    if kind == "nesting":
        return draw(st.sampled_from([
            1, "x", None, {}, {"rows": [[1]]}, [], [[]], [1, 2], [[1], 1],
            [[[[[1]]]]], [[[[1, 2]]]], [[[1, 2, 3]]], [[[[[[1]]]]]],
        ]))
    if kind == "ragged":
        doc = draw(st.one_of(_square(_EXACT), _blocks()))
        row = _pick(draw, doc)
        if draw(st.booleans()):
            row.append(row[0])
        else:
            row.pop()
        return doc
    if kind == "mixed":
        # the first entry settles the carrier, so either way one entry is foreign
        if draw(st.booleans()):
            doc, entry = draw(_square(_EXACT, 2)), draw(_blocks())[0][0]
        else:
            doc, entry = draw(_blocks(2)), draw(_EXACT)
        row = _pick(draw, doc)
        row[draw(st.integers(0, len(row) - 1))] = entry
        return doc
    if kind == "exact-scalar":
        doc = draw(_square(_EXACT))
        row = _pick(draw, doc)
        row[draw(st.integers(0, len(row) - 1))] = draw(_BAD_EXACT)
        return doc
    doc = draw(_blocks())
    block_row = _pick(draw, _pick(draw, _pick(draw, doc)))
    if kind == "ragged-block":
        block_row.pop()
    else:
        block_row[draw(st.integers(0, len(block_row) - 1))] = draw(_BAD_BLOCK_SCALAR)
    return doc


@settings(derandomize=True, max_examples=100, deadline=None)
@given(doc=_malformed_matrix())
def test_malformed_quasidet_documents_exit_1(tmp_path_factory, doc):
    # a traceback fails the test as an exception, and so does a numpy warning
    matrix = tmp_path_factory.mktemp("matrix") / "matrix.json"
    matrix.write_text(json.dumps(doc))
    report = matrix.with_name("report.json")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["--output", str(report), "quasidet", "--input", str(matrix)])
    assert code == 1
    error = json.loads(report.read_text())
    assert error.keys() == {"command", "error"}
    # load_matrix_json decodes a string document as JSON text
    want = "JSONDecodeError" if isinstance(doc, str) else "QuasidetError"
    assert error["error"]["type"] == want


def test_missing_input_file_exits_1(capsys):
    code, out, _err = run_main(["quasidet", "--input", "/nonexistent.json"], capsys)
    assert code == 1
    doc = json.loads(out)
    assert "error" in doc


def test_output_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _err = run_main(
        ["--output", str(target), "derive", "symmetric"], capsys
    )
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["command"] == "derive symmetric"


def test_reports_byte_identical(capsys):
    code1, out1, _ = run_main(["derive", "qpii"], capsys)
    code2, out2, _ = run_main(["derive", "qpii"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2


def test_module_entrypoint_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "qpii", "derive", "symmetric"],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["value"] == "(4+0i) h^1 l^1"
