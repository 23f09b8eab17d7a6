"""Tests for the TCP/IP stage of the receive path and the MQTT
compartment."""

import pytest

from repro.iot.mqtt import MQTTClient, MQTTError
from repro.iot.packets import FRAME_HEADER_BYTES, frame
from repro.iot.sessions import NetPipeline, session_key
from repro.iot.tls import TLSSession

CONN = 1


def _wire(sequence, body=b"PUB:device/rpc:x"):
    tls = TLSSession(session_key(CONN))
    tls.handshake()
    record, _ = tls.seal_record(body, sequence)
    return frame(sequence, record)


@pytest.fixture
def stack():
    """A one-session zero-copy pipeline whose TCP/IP stage records
    ``(driver buffer, body view, bytes under the view)`` for every
    packet it hands to TLS, and whose frees are recorded."""
    p = NetPipeline(zero_copy=True)
    p.establish(CONN)
    p.handed_to_tls = []
    p.freed = []
    tls_one, free = p._tls_one, p._free

    def spy_tls(item):
        p.handed_to_tls.append(
            (item.root, item.cap, p._read(item.cap, item.length)))
        return tls_one(item)

    def spy_free(cap):
        p.freed.append(cap.base)
        free(cap)

    p._tls_one, p._free = spy_tls, spy_free
    return p


def _receive(stack, wire):
    stack.submit(CONN, wire)
    stack.drain()


class TestNetworkStack:
    def test_good_packet_lands_in_heap_buffer(self, stack):
        wire = _wire(1)
        _receive(stack, wire)
        ((root, view, data),) = stack.handed_to_tls
        assert data == wire[FRAME_HEADER_BYTES:]
        assert root.length >= len(wire)
        assert view.length == len(data)
        assert stack.stats.cycles_tcpip > 0
        assert stack.stats.packets_delivered == 1

    def test_corrupt_packet_dropped(self, stack):
        wire = bytearray(_wire(1))
        wire[-1] ^= 0xFF
        _receive(stack, bytes(wire))
        assert stack.handed_to_tls == []
        assert stack.stats.dropped_corrupt == 1

    def test_out_of_order_dropped(self, stack):
        _receive(stack, _wire(1))
        _receive(stack, _wire(3))
        assert len(stack.handed_to_tls) == 1
        assert stack.stats.dropped_out_of_order == 1

    def test_release_frees_buffer(self, stack):
        _receive(stack, _wire(1))
        ((root, _, _),) = stack.handed_to_tls
        assert stack.freed == [root.base]

    def test_every_packet_is_a_separate_allocation(self, stack):
        """Paper 7.2.3: per-packet heap allocations."""
        for seq in (1, 2, 3):
            _receive(stack, _wire(seq))
        bases = {root.base for root, _, _ in stack.handed_to_tls}
        assert len(bases) == 3


class TestMQTT:
    def test_dispatch(self):
        client = MQTTClient()
        seen = []
        client.subscribe("a/b", seen.append)
        handlers, cycles = client.handle_record(b"PUB:a/b:payload")
        assert handlers == 1 and cycles > 0
        assert seen == [b"payload"]

    def test_multiple_subscribers(self):
        client = MQTTClient()
        seen = []
        client.subscribe("t", lambda p: seen.append(1))
        client.subscribe("t", lambda p: seen.append(2))
        client.handle_record(b"PUB:t:x")
        assert seen == [1, 2]

    def test_unknown_topic_counted(self):
        client = MQTTClient()
        handlers, _ = client.handle_record(b"PUB:ghost:x")
        assert handlers == 0
        assert client.stats.unknown_topic == 1

    def test_malformed_record_raises(self):
        client = MQTTClient()
        with pytest.raises(MQTTError):
            client.handle_record(b"SUB:x")
        with pytest.raises(MQTTError):
            client.handle_record(b"PUB:noseparator")

    def test_payload_may_contain_colons(self):
        client = MQTTClient()
        seen = []
        client.subscribe("t", seen.append)
        client.handle_record(b"PUB:t:a:b:c")
        assert seen == [b"a:b:c"]
