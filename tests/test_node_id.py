"""Unit tests for process identity types."""

import copy
import pickle

import pytest

from repro.core.node_id import Endpoint, NodeId, stable_hash64


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash64("a", 1) == stable_hash64("a", 1)

    def test_different_inputs_differ(self):
        assert stable_hash64("a") != stable_hash64("b")

    def test_order_matters(self):
        assert stable_hash64("a", "b") != stable_hash64("b", "a")

    def test_part_boundaries_matter(self):
        # ("ab", "c") must not collide with ("a", "bc").
        assert stable_hash64("ab", "c") != stable_hash64("a", "bc")

    def test_64_bit_range(self):
        value = stable_hash64("x")
        assert 0 <= value < 2**64

    def test_mixed_types(self):
        assert stable_hash64(1) != stable_hash64("1")


class TestEndpoint:
    def test_str(self):
        assert str(Endpoint("10.0.0.1", 5000)) == "10.0.0.1:5000"

    def test_parse_roundtrip(self):
        ep = Endpoint("192.168.1.2", 2181)
        assert Endpoint.parse(str(ep)) == ep

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            Endpoint.parse("no-port-here")

    def test_parse_rejects_non_numeric_port(self):
        with pytest.raises(ValueError):
            Endpoint.parse("host:abc")

    def test_parse_ipv6_style_rpartition(self):
        ep = Endpoint.parse("fe80::1:9000")
        assert ep.port == 9000
        assert ep.host == "fe80::1"

    def test_ordering_is_total(self):
        eps = [Endpoint("b", 1), Endpoint("a", 2), Endpoint("a", 1)]
        assert sorted(eps) == [Endpoint("a", 1), Endpoint("a", 2), Endpoint("b", 1)]

    def test_hashable_and_equal(self):
        assert len({Endpoint("h", 1), Endpoint("h", 1)}) == 1

    def test_default_port(self):
        assert Endpoint("h").port == 1

    def test_is_its_field_tuple(self):
        ep = Endpoint("10.0.0.1", 5000)
        assert ep == ("10.0.0.1", 5000)
        # Same hash as the tuple: set and dict iteration orders, hence the
        # goldens, do not depend on which of the two a key was built as.
        assert hash(ep) == hash(("10.0.0.1", 5000))
        assert {("10.0.0.1", 5000): "x"}[ep] == "x"
        assert ep != Endpoint("10.0.0.1", 5001)

    def test_repr_is_stable(self):
        # repr feeds stable_hash64, i.e. ring orders and cut ids.
        assert repr(Endpoint("10.0.0.1", 5000)) == "Endpoint(host='10.0.0.1', port=5000)"

    def test_fields_are_read_only(self):
        with pytest.raises(AttributeError):
            Endpoint("h", 1).port = 2

    def test_survives_copy_and_pickle_with_the_codecs_memo(self):
        from repro.runtime import codec

        ep = Endpoint("10.0.0.1", 5000)
        wire = codec.encode_bytes(ep)
        assert ep._wire in wire  # memoised on the instance by the codec
        for clone in (
            copy.copy(ep),
            copy.deepcopy(ep),
            pickle.loads(pickle.dumps(ep)),
        ):
            assert type(clone) is Endpoint
            assert clone == ep and clone._wire == ep._wire
            assert codec.encode_bytes(clone) == wire


class TestNodeId:
    def test_fresh_ids_are_unique(self):
        ep = Endpoint("h", 1)
        assert NodeId.fresh(ep).uuid != NodeId.fresh(ep).uuid

    def test_fresh_preserves_endpoint(self):
        ep = Endpoint("h", 9)
        assert NodeId.fresh(ep).endpoint == ep

    def test_str_contains_endpoint(self):
        ep = Endpoint("h", 9)
        assert "h:9" in str(NodeId.fresh(ep))

    def test_orderable(self):
        a = NodeId(Endpoint("a", 1), 5)
        b = NodeId(Endpoint("b", 1), 1)
        assert a < b
