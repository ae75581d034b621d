"""Protocol, primed-protocol and pointer documents: the flat float layout
(format 2 for protocols, 3 for pointers), the [re, im]-pair layout of the
earlier formats, what each reader refuses, and reports that do not depend on
which layout a protocol file was written in."""

import dataclasses
import json
import re
import shutil

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pbtkit.cli import dispatch
from pbtkit.engine import (
    PbtProtocol,
    bell_pbt_protocol,
    complex_floats,
    from_complex_floats,
    protocol_from_dict,
    protocol_to_dict,
)
from pbtkit.errors import ProtocolError
from pbtkit.nocloning import (
    PointerOperation,
    computational_pointer_basis,
    pointer_form,
    pointer_from_dict,
    pointer_to_dict,
)
from pbtkit.primed import build_primed, primed_from_dict, primed_to_dict
from pbtkit.tensor import (
    HermitianMatrix,
    StateVector,
    SystemLayout,
    apply_on_subsystems,
    basis_state,
)
from reference import complex_pairs, haar_unitary, in_layout

#: -0.0, the smallest subnormal of each sign, the largest subnormal, the
#: smallest normal, the largest float and a large negative exponent
EDGE_FLOATS = (-0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
               1.7976931348623157e308, -1e300)


def through_json(doc):
    """``doc`` after a write and a read, as ``write_document`` and ``json.load`` do."""
    return json.loads(json.dumps(doc, sort_keys=True))


def rotated_bell(big_n, seed):
    """The reference protocol with a Haar unitary U on the sender's system A:
    resource (U x I)|r> and POVM (I x U) M_k (I x U)^dag."""
    base = bell_pbt_protocol(big_n)
    u = haar_unitary(base.alice_dim, seed)
    lift = np.kron(np.eye(base.port_dim), u)
    povm = []
    for m in base.povm:
        rotated = lift @ m.entries @ lift.conj().T
        povm.append(HermitianMatrix(m.layout, 0.5 * (rotated + rotated.conj().T)))
    return PbtProtocol(n=1, N=big_n, resource=apply_on_subsystems(base.resource, u, ["A"]),
                       povm=tuple(povm))


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def same_protocol(a, b):
    return (same_bytes(a.resource.amplitudes, b.resource.amplitudes)
            and len(a.povm) == len(b.povm)
            and all(same_bytes(x.entries, y.entries) for x, y in zip(a.povm, b.povm)))


def same_pointer(a, b):
    return ((a.ports, a.ancilla) == (b.ports, b.ancilla)
            and same_bytes(a.u, b.u)
            and same_bytes(a.xi_b.amplitudes, b.xi_b.amplitudes)
            and same_bytes(a.chi_pi.amplitudes, b.chi_pi.amplitudes)
            and len(a.pointer_basis) == len(b.pointer_basis)
            and all(same_bytes(x.amplitudes, y.amplitudes)
                    for x, y in zip(a.pointer_basis, b.pointer_basis)))


# ---------------------------------------------------------------------------
# round trips


finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)
complex_arrays = st.lists(st.tuples(finite, finite), max_size=12).map(
    lambda parts: np.array(parts, dtype=np.float64).reshape(-1, 2).view(np.complex128).ravel())


@given(complex_arrays, st.booleans())
@example(np.array(EDGE_FLOATS[:6], dtype=np.float64).view(np.complex128), False)
def test_complex_floats_round_trip_is_bit_identical(arr, as_matrix):
    if as_matrix and arr.size % 2 == 0:
        arr = arr.reshape(2, -1)
    values = through_json(complex_floats(arr))
    assert len(values) == 2 * arr.size and all(type(x) is float for x in values)
    back = from_complex_floats(values, "field")
    assert back.tobytes() == np.ascontiguousarray(arr).tobytes()


def sprinkled(arr, picks, values):
    """A copy of ``arr`` with the real or imaginary part of some of its
    exactly-zero entries set to ``values`` (a tiny or signed zero keeps
    every invariant a protocol or pointer checks)."""
    out = np.array(arr, dtype=np.complex128)
    parts = out.reshape(-1).view(np.float64)
    zeros = np.flatnonzero(parts == 0.0)
    for pick, value in zip(picks, values):
        if zeros.size:
            parts[zeros[pick % zeros.size]] = value
    return out


tiny = st.sampled_from((-0.0, 5e-324, -5e-324, 2.225073858507201e-308, -1e-310))
picks = st.lists(st.integers(0, 10**6), max_size=6)


@st.composite
def sprinkled_protocols(draw):
    """Bell or Haar-rotated bell protocols, N = 1..3, with tiny and signed-zero
    parts placed in some exactly-zero entries."""
    big_n = draw(st.integers(1, 3))
    seed = draw(st.none() | st.integers(0, 2**32 - 1))
    proto = bell_pbt_protocol(big_n) if seed is None else rotated_bell(big_n, seed)
    resource = StateVector(proto.resource.layout,
                           sprinkled(proto.resource.amplitudes, draw(picks), draw(st.lists(tiny))))
    povm = tuple(HermitianMatrix(m.layout, sprinkled(m.entries, draw(picks), draw(st.lists(tiny))))
                 for m in proto.povm)
    return PbtProtocol(n=proto.n, N=big_n, resource=resource, povm=povm)


@settings(max_examples=30, deadline=None)
@given(sprinkled_protocols())
def test_protocol_and_primed_documents_round_trip_bit_identically(proto):
    doc = through_json(protocol_to_dict(proto))
    assert doc["version"] == "2"
    back = protocol_from_dict(doc)
    assert same_protocol(back, proto)
    assert protocol_to_dict(back) == doc
    primed = primed_from_dict(through_json(primed_to_dict(build_primed(proto))))
    assert same_protocol(primed.base, proto)


@settings(max_examples=20, deadline=None)
@given(sprinkled_protocols(), picks, st.lists(tiny))
def test_pointer_documents_round_trip_bit_identically(proto, chosen, values):
    op = pointer_form(proto)
    # -0.0 leaves the unitary's nonzero pattern, and so its checked blocks, as they are
    op = dataclasses.replace(
        op, u=sprinkled(op.u, chosen, [-0.0] * len(chosen)),
        xi_b=StateVector(op.xi_b.layout, sprinkled(op.xi_b.amplitudes, chosen, values)),
        chi_pi=StateVector(op.chi_pi.layout, sprinkled(op.chi_pi.amplitudes, chosen, values)))
    doc = through_json(pointer_to_dict(op))
    assert doc["version"] == "3"
    assert same_pointer(pointer_from_dict(doc), op)


# ---------------------------------------------------------------------------
# the earlier formats load into the arrays they were written from


@pytest.mark.parametrize("proto", [bell_pbt_protocol(1), bell_pbt_protocol(4),
                                   rotated_bell(3, 11)], ids=["bell1", "bell4", "rotated3"])
def test_version_1_protocol_document_loads_byte_equal(proto):
    doc = protocol_to_dict(proto)
    doc.update(version="1", resource=complex_pairs(proto.resource.amplitudes),
               povm=[complex_pairs(m.entries) for m in proto.povm])
    assert doc == in_layout(protocol_to_dict(proto), "pairs")
    assert same_protocol(protocol_from_dict(through_json(doc)), proto)
    primed = primed_to_dict(build_primed(proto))
    assert same_protocol(primed_from_dict(in_layout(primed, "pairs")).base, proto)


def zero_port_pointer(seed):
    """A Haar unitary on (a, b, pi) as a pointer operation with no lift."""
    return PointerOperation(
        dim_a=2, dim_b=2, u=haar_unitary(12, seed),
        xi_b=basis_state(SystemLayout.of(("b", 2)), 1),
        chi_pi=basis_state(SystemLayout.of(("pi", 3)), 0),
        pointer_basis=computational_pointer_basis(3),
    )


@pytest.mark.parametrize("version,make", [
    ("1", lambda: zero_port_pointer(3)),
    ("2", lambda: zero_port_pointer(4)),
    ("2", lambda: pointer_form(rotated_bell(2, 7))),
])
def test_version_1_and_2_pointer_documents_load_byte_equal(version, make):
    op = make()
    doc = pointer_to_dict(op)
    doc.update(version=version, unitary=complex_pairs(op.u), xi=complex_pairs(op.xi_b.amplitudes),
               chi=complex_pairs(op.chi_pi.amplitudes),
               pointer_basis=[complex_pairs(v.amplitudes) for v in op.pointer_basis])
    if version == "1":
        del doc["lift"]
    else:
        assert doc == in_layout(pointer_to_dict(op), "pairs")
    assert same_pointer(pointer_from_dict(through_json(doc)), op)


# ---------------------------------------------------------------------------
# what the flat reader refuses, naming the field

#: (case, edit of one flat field, what the error says besides the field)
MALFORMED = [
    ("odd length", lambda v: v[:-1], "even number"),
    ("nested list", lambda v: [v[:2]] + v[2:], "flat list of numbers"),
    ("string", lambda v: [str(v[0])] + v[1:], "flat list of numbers"),
    ("null", lambda v: [None] + v[1:], "flat list of numbers"),
    ("boolean", lambda v: [True] + v[1:], "flat list of numbers"),
    ("wrong entry count", lambda v: v + [0.0, 0.0], "entries|amplitude count|square"),
]
MALFORMED_IDS = [case for case, _, _ in MALFORMED]


def edited(doc, field, edit):
    """``doc`` with ``edit`` applied to its flat field ``field`` ("povm[1]" indexes a list)."""
    doc = through_json(doc)
    name, _, index = field.partition("[")
    if index:
        doc[name][int(index[:-1])] = edit(doc[name][int(index[:-1])])
    else:
        doc[name] = edit(doc[name])
    return doc


@pytest.mark.parametrize("case,edit,message", MALFORMED, ids=MALFORMED_IDS)
@pytest.mark.parametrize("field", ["resource", "povm[1]"])
def test_protocol_and_primed_readers_refuse_a_malformed_flat_field(field, case, edit, message):
    proto = bell_pbt_protocol(2)
    pattern = f"{re.escape(repr(field))}.*({message})"
    with pytest.raises(ProtocolError, match=pattern):
        protocol_from_dict(edited(protocol_to_dict(proto), field, edit))
    with pytest.raises(ProtocolError, match=pattern):
        primed_from_dict(edited(primed_to_dict(build_primed(proto)), field, edit))


@pytest.mark.parametrize("case,edit,message", MALFORMED, ids=MALFORMED_IDS)
@pytest.mark.parametrize("field", ["unitary", "xi", "chi", "pointer_basis[1]"])
def test_pointer_reader_refuses_a_malformed_flat_field(field, case, edit, message):
    doc = edited(pointer_to_dict(pointer_form(bell_pbt_protocol(2))), field, edit)
    with pytest.raises(ProtocolError, match=f"{re.escape(repr(field))}.*({message})"):
        pointer_from_dict(doc)


@pytest.mark.parametrize("case,edit,message", MALFORMED, ids=MALFORMED_IDS)
@pytest.mark.parametrize("field", ["resource", "povm[1]"])
def test_malformed_flat_protocol_field_exits_2(tmp_path, capsys, field, case, edit, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(edited(protocol_to_dict(bell_pbt_protocol(2)), field, edit)))
    assert dispatch(["simulate", "--protocol", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert repr(field) in err and "bad.json" in err and re.search(message, err)
    assert not (tmp_path / "simulate.json").exists()


@pytest.mark.parametrize("case,edit,message", MALFORMED, ids=MALFORMED_IDS)
def test_malformed_flat_psi_file_exits_2(tmp_path, capsys, case, edit, message):
    path = tmp_path / "psi.json"
    path.write_text(json.dumps(edit([0.6, 0.0, 0.0, 0.8])))
    assert dispatch(["simulate", "--builtin", "bell", "--ports", "2", "--psi", str(path),
                     "--out", str(tmp_path)]) == 2
    assert "--psi" in capsys.readouterr().err
    assert not (tmp_path / "simulate.json").exists()


# ---------------------------------------------------------------------------
# what the pair reader of the earlier formats refuses, naming the field

#: (case, edit of one [re, im]-pair field, what the error says besides the field)
MALFORMED_PAIRS = [
    ("boolean real part", lambda v: [[True, v[0][1]]] + v[1:], "pairs of numbers"),
    ("boolean imaginary part", lambda v: [[v[0][0], False]] + v[1:], "pairs of numbers"),
    ("string", lambda v: [[str(v[0][0]), v[0][1]]] + v[1:], "pairs of numbers"),
    ("null", lambda v: [[None, v[0][1]]] + v[1:], "pairs of numbers"),
    ("three parts", lambda v: [v[0] + [0.0]] + v[1:], "pairs of numbers"),
    ("bare number", lambda v: [v[0][0]] + v[1:], "pairs of numbers"),
    ("integer beyond the float range", lambda v: [[10**400, v[0][1]]] + v[1:], "finite"),
]
MALFORMED_PAIR_IDS = [case for case, _, _ in MALFORMED_PAIRS]


@pytest.mark.parametrize("case,edit,message", MALFORMED_PAIRS, ids=MALFORMED_PAIR_IDS)
@pytest.mark.parametrize("field", ["resource", "povm[1]"])
def test_protocol_and_primed_readers_refuse_a_malformed_pair_field(field, case, edit, message):
    proto = bell_pbt_protocol(2)
    pattern = f"{re.escape(repr(field))}.*({message})"
    with pytest.raises(ProtocolError, match=pattern):
        protocol_from_dict(edited(in_layout(protocol_to_dict(proto), "pairs"), field, edit))
    with pytest.raises(ProtocolError, match=pattern):
        primed_from_dict(edited(in_layout(primed_to_dict(build_primed(proto)), "pairs"),
                                field, edit))


@pytest.mark.parametrize("case,edit,message", MALFORMED_PAIRS, ids=MALFORMED_PAIR_IDS)
@pytest.mark.parametrize("field", ["unitary", "xi", "chi", "pointer_basis[1]"])
@pytest.mark.parametrize("version", ["1", "2"])
def test_pointer_reader_refuses_a_malformed_pair_field(version, field, case, edit, message):
    doc = in_layout(pointer_to_dict(zero_port_pointer(5)), "pairs")
    doc["version"] = version
    if version == "1":
        del doc["lift"]
    with pytest.raises(ProtocolError, match=f"{re.escape(repr(field))}.*({message})"):
        pointer_from_dict(edited(doc, field, edit))


@pytest.mark.parametrize("case,edit,message", MALFORMED_PAIRS, ids=MALFORMED_PAIR_IDS)
@pytest.mark.parametrize("field", ["resource", "povm[1]"])
def test_malformed_pair_protocol_field_exits_2(tmp_path, capsys, field, case, edit, message):
    path = tmp_path / "bad.json"
    doc = in_layout(protocol_to_dict(bell_pbt_protocol(2)), "pairs")
    path.write_text(json.dumps(edited(doc, field, edit)))
    assert dispatch(["simulate", "--protocol", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert repr(field) in err and "bad.json" in err and re.search(message, err)
    assert not (tmp_path / "simulate.json").exists()


@pytest.mark.parametrize("case,edit,message", MALFORMED_PAIRS, ids=MALFORMED_PAIR_IDS)
def test_malformed_pair_psi_file_exits_2(tmp_path, capsys, case, edit, message):
    path = tmp_path / "psi.json"
    path.write_text(json.dumps(edit([[0.6, 0.0], [0.0, 0.8]])))
    assert dispatch(["simulate", "--builtin", "bell", "--ports", "2", "--psi", str(path),
                     "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    # a first entry that is not a list makes the file a flat one
    assert "--psi" in err and re.search("flat list" if case == "bare number" else message, err)
    assert not (tmp_path / "simulate.json").exists()


# ---------------------------------------------------------------------------
# integer fields take JSON integers only, in every format version

#: values ``int`` would have read as an integer, or that are not numbers at all
NOT_INTEGERS = [2.9, 2.0, "2", True, None]
NOT_INTEGER_IDS = ["fraction", "integral float", "string", "boolean", "null"]


def with_field(doc, field, value):
    """``doc`` with its entry ``field`` ("dims.A" for a nested one) set to ``value``."""
    doc = through_json(doc)
    *outer, name = field.split(".")
    (doc[outer[0]] if outer else doc)[name] = value
    return doc


@pytest.mark.parametrize("value", NOT_INTEGERS, ids=NOT_INTEGER_IDS)
@pytest.mark.parametrize("field", ["n", "N", "dims.a", "dims.A", "dims.B"])
@pytest.mark.parametrize("layout", ["flat", "pairs"])
def test_protocol_reader_refuses_a_non_integer_field(layout, field, value):
    doc = in_layout(protocol_to_dict(bell_pbt_protocol(2)), layout)
    with pytest.raises(ProtocolError, match=f"{re.escape(repr(field))}: expected an integer"):
        protocol_from_dict(with_field(doc, field, value))


@pytest.mark.parametrize("value", NOT_INTEGERS, ids=NOT_INTEGER_IDS)
@pytest.mark.parametrize("field", ["dims.a", "dims.b", "dims.pi", "lift.ports",
                                   "lift.ancilla"])
@pytest.mark.parametrize("layout", ["flat", "pairs"])
def test_pointer_reader_refuses_a_non_integer_field(layout, field, value):
    doc = in_layout(pointer_to_dict(pointer_form(bell_pbt_protocol(2))), layout)
    with pytest.raises(ProtocolError, match=f"{re.escape(repr(field))}: expected an integer"):
        pointer_from_dict(with_field(doc, field, value))


@pytest.mark.parametrize("value", NOT_INTEGERS, ids=NOT_INTEGER_IDS)
@pytest.mark.parametrize("field", ["n", "N", "dims.A"])
def test_non_integer_protocol_field_exits_2(tmp_path, capsys, field, value):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(with_field(protocol_to_dict(bell_pbt_protocol(2)), field, value)))
    assert dispatch(["simulate", "--protocol", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"{field!r}: expected an integer" in err and "bad.json" in err
    assert not (tmp_path / "simulate.json").exists()


#: JSON integers outside a protocol field's range, and what the error expects
#: (the reference protocol at N = 2 has n = 1, so 2^n = 2)
PROTOCOL_OUT_OF_RANGE = [("n", 0, "an integer >= 1"), ("n", -1, "an integer >= 1"),
                         ("N", 0, "an integer >= 1"), ("N", -2, "an integer >= 1"),
                         ("dims.A", 0, "an integer >= 1"), ("dims.a", 0, "an integer >= 1"),
                         ("dims.a", 7, "2^n = 2"), ("dims.B", 3, "2^n = 2")]
POINTER_OUT_OF_RANGE = [("dims.a", 0, "an integer >= 1"), ("dims.a", -1, "an integer >= 1"),
                        ("dims.b", 0, "an integer >= 1"), ("dims.pi", 0, "an integer >= 1"),
                        ("lift.ports", -1, "an integer >= 0"),
                        ("lift.ancilla", 0, "an integer >= 1")]


def out_of_range_message(field, value, expected):
    return re.escape(f"{field!r}: expected {expected}, got {value}")


@pytest.mark.parametrize("field,value,expected", PROTOCOL_OUT_OF_RANGE)
@pytest.mark.parametrize("layout", ["flat", "pairs"])
def test_protocol_reader_refuses_an_integer_out_of_range(layout, field, value, expected):
    doc = in_layout(protocol_to_dict(bell_pbt_protocol(2)), layout)
    with pytest.raises(ProtocolError, match=out_of_range_message(field, value, expected)):
        protocol_from_dict(with_field(doc, field, value))


@pytest.mark.parametrize("field,value,expected", POINTER_OUT_OF_RANGE)
@pytest.mark.parametrize("layout", ["flat", "pairs"])
def test_pointer_reader_refuses_an_integer_out_of_range(layout, field, value, expected):
    doc = in_layout(pointer_to_dict(pointer_form(bell_pbt_protocol(2))), layout)
    with pytest.raises(ProtocolError, match=out_of_range_message(field, value, expected)):
        pointer_from_dict(with_field(doc, field, value))


@pytest.mark.parametrize("field,value,expected", PROTOCOL_OUT_OF_RANGE)
@pytest.mark.parametrize("layout", ["flat", "pairs"])
def test_protocol_field_out_of_range_exits_2(tmp_path, capsys, layout, field, value, expected):
    path = tmp_path / "bad.json"
    doc = in_layout(protocol_to_dict(bell_pbt_protocol(2)), layout)
    path.write_text(json.dumps(with_field(doc, field, value)))
    assert dispatch(["simulate", "--protocol", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert re.search(out_of_range_message(field, value, expected), err) and "bad.json" in err
    assert not (tmp_path / "simulate.json").exists()


@pytest.mark.parametrize("reader,doc,version", [
    (protocol_from_dict, lambda: protocol_to_dict(bell_pbt_protocol(1)), "3"),
    (pointer_from_dict, lambda: pointer_to_dict(pointer_form(bell_pbt_protocol(1))), "4"),
])
def test_unknown_format_version_is_refused(reader, doc, version):
    with pytest.raises(ProtocolError, match="'version'.*'" + version):
        reader({**doc(), "version": version})


# ---------------------------------------------------------------------------
# reports do not depend on the layout of the protocol file


@pytest.fixture(scope="module")
def optimized_n2(tmp_path_factory):
    out = tmp_path_factory.mktemp("optimize")
    assert dispatch(["optimize", "--ports", "2", "--seed", "1", "--out", str(out)]) == 0
    return json.loads((out / "optimized_protocol.json").read_text())


COMMANDS = [
    ["simulate", "--psi", "haar", "--seed", "3"],
    ["verify", "--samples", "3", "--seed", "3"],
    ["prime", "--samples", "3", "--seed", "3"],
    ["audit-signaling", "--seed", "3"],
]


@pytest.mark.parametrize("source", ["bell1", "bell2", "bell3", "bell4", "rotated3", "optimized2"])
def test_old_and_new_protocol_files_give_byte_identical_reports(tmp_path, monkeypatch,
                                                                optimized_n2, source):
    """The same path holds the format-1 file, then the format-2 file, and
    every run writes to the same directory, so even the manifests agree."""
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    if source == "optimized2":
        new = optimized_n2
    else:
        big_n = int(source[-1])
        proto = rotated_bell(big_n, 21) if source.startswith("rotated") else bell_pbt_protocol(big_n)
        new = protocol_to_dict(proto)
    old = in_layout(new, "pairs")
    assert old["version"] == "1" and new["version"] == "2"
    path, out = tmp_path / "protocol.json", tmp_path / "out"
    outputs = []
    for doc in (old, new):
        path.write_text(json.dumps(doc, sort_keys=True))
        codes = [dispatch([*argv[:1], "--protocol", str(path), *argv[1:], "--out", str(out)])
                 for argv in COMMANDS]
        outputs.append((codes, {f.name: f.read_bytes() for f in sorted(out.iterdir())}))
        shutil.rmtree(out)
    assert outputs[0] == outputs[1]
    assert set(outputs[0][1]) == {"simulate.json", "verify.json", "eq5_report.json",
                                  "primed_protocol.json", "signaling_report.json"}
