"""Constructor type-strictness for the op vocabulary.

A float address silently mis-simulates (it never matches the int key a
producer filled), so every constructor must reject non-int operands at
construction time with an error naming the op and operand — not deep
inside an engine run.
"""

import numpy as np
import pytest

from repro.sim import isa


class TestRejections:
    @pytest.mark.parametrize("bad", [1.0, 2.5, "3", None, [4]])
    def test_load_rejects_non_int_addr(self, bad):
        with pytest.raises(TypeError, match="L addr"):
            isa.load(bad)

    def test_store_rejects_float(self):
        with pytest.raises(TypeError, match="S addr must be an int, got float"):
            isa.store(16.0)

    def test_load_dep_rejects_float(self):
        with pytest.raises(TypeError, match="LD addr"):
            isa.load_dep(0.5)

    def test_compute_rejects_float(self):
        with pytest.raises(TypeError, match="C k"):
            isa.compute(1.5)

    def test_fetch_add_rejects_bad_addr_and_inc(self):
        with pytest.raises(TypeError, match="FA addr"):
            isa.fetch_add("x", 1)
        with pytest.raises(TypeError, match="FA inc"):
            isa.fetch_add(8, 1.0)

    def test_sync_ops_reject_bad_addr(self):
        with pytest.raises(TypeError, match="SLE addr"):
            isa.sync_load_consume(None)
        with pytest.raises(TypeError, match="SLF addr"):
            isa.sync_load_peek(2.0)
        with pytest.raises(TypeError, match="SSF addr"):
            isa.sync_store(2.0, 5)

    def test_bool_is_rejected_despite_subclassing_int(self):
        with pytest.raises(TypeError, match="S addr must be an int, got bool"):
            isa.store(True)
        with pytest.raises(TypeError, match="C k must be an int, got bool"):
            isa.compute(False)

    def test_barrier_and_phase_require_str(self):
        with pytest.raises(TypeError, match="B barrier_id"):
            isa.barrier(0)
        with pytest.raises(TypeError, match="P name"):
            isa.phase(7)

    def test_message_repr_includes_value(self):
        with pytest.raises(TypeError, match=r"got str \('oops'\)"):
            isa.load("oops")


class TestAccepted:
    def test_plain_ints(self):
        assert isa.load(5) == ("L", 5)
        assert isa.store(0) == ("S", 0)
        assert isa.fetch_add(3, -1) == ("FA", 3, -1)

    @pytest.mark.parametrize("np_int", [np.int32(7), np.int64(7), np.uint16(7)])
    def test_numpy_integer_scalars_normalize_to_int(self, np_int):
        op = isa.load(np_int)
        assert op == ("L", 7)
        assert type(op[1]) is int

    def test_sync_store_value_is_unconstrained(self):
        payload = {"any": "object"}
        assert isa.sync_store(4, payload) == ("SSF", 4, payload)

    def test_compute_default(self):
        assert isa.compute() == ("C", 1)


#: Every integer operand of the op vocabulary: (label, builder taking the
#: operand under test, error prefix).  Other operands are fixed valid ints.
_INT_OPERANDS = [
    ("C k", lambda v: isa.compute(v)),
    ("L addr", lambda v: isa.load(v)),
    ("LD addr", lambda v: isa.load_dep(v)),
    ("S addr", lambda v: isa.store(v)),
    ("FA addr", lambda v: isa.fetch_add(v, 1)),
    ("FA inc", lambda v: isa.fetch_add(8, v)),
    ("SLE addr", lambda v: isa.sync_load_consume(v)),
    ("SLF addr", lambda v: isa.sync_load_peek(v)),
    ("SSF addr", lambda v: isa.sync_store(v, 0)),
    ("GV addr", lambda v: isa.get_value(v)),
    ("PV addr", lambda v: isa.put_value(v, 0)),
]


class TestEveryIntOperand:
    """The exact-``int`` early return must not widen what is accepted."""

    @pytest.mark.parametrize("label,build", _INT_OPERANDS, ids=[o[0] for o in _INT_OPERANDS])
    @pytest.mark.parametrize(
        "bad,kind", [(True, "bool"), (False, "bool"), (3.0, "float"), ("3", "str")]
    )
    def test_rejects_bool_float_str(self, label, build, bad, kind):
        with pytest.raises(TypeError, match=f"{label} must be an int, got {kind}"):
            build(bad)

    @pytest.mark.parametrize("label,build", _INT_OPERANDS, ids=[o[0] for o in _INT_OPERANDS])
    def test_accepts_int_and_np_int64(self, label, build):
        op = build(np.int64(12))
        assert op == build(12)
        assert [type(x) for x in op] == [type(x) for x in build(12)]
