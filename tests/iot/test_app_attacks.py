"""Hostile-input tests for the end-to-end application."""

import pytest

from repro.iot.app import DEVICE_CONN, IoTApplication
from repro.iot.packets import frame


@pytest.fixture
def connected_app():
    app = IoTApplication()
    app.connect()
    return app


def _send(app, wire):
    """Put one frame on the wire and let the receive path finish it."""
    app.submit(DEVICE_CONN, wire)
    app.drain()


class TestHostileNetwork:
    def test_corrupt_frame_dropped_at_netstack(self, connected_app):
        app = connected_app
        seq = app.cloud._next_seq()
        wire = bytearray(frame(seq, b"PUB:device/poll:abcd"))
        wire[-1] ^= 0xFF  # flip a payload bit: checksum now fails
        before = app.stats.dropped_corrupt
        _send(app, bytes(wire))
        assert app.stats.dropped_corrupt == before + 1

    def test_tampered_tls_record_dropped(self, connected_app):
        app = connected_app
        tls = app.sessions[DEVICE_CONN].tls
        seq = app.cloud._next_seq()
        record, _ = tls.seal_record(b"PUB:device/poll:evil", seq)
        tampered = bytearray(record)
        tampered[0] ^= 1
        # Re-frame so the outer checksum is valid and only TLS rejects.
        _send(app, frame(seq, bytes(tampered)))
        assert app.dropped_records >= 1
        assert tls.stats.mac_failures >= 1

    def test_replayed_record_rejected(self, connected_app):
        """A record sealed under an already-used sequence, replayed
        under the next one, passes TCP/IP and the MAC but decrypts to
        garbage under the wrong nonce — it must not dispatch."""
        app = connected_app
        session = app.sessions[DEVICE_CONN]
        # Sequence 1 carried the first bytecode chunk at connect time.
        record, _ = session.tls.seal_record(b"PUB:device/code:evil-code", 1)
        code_ran = []
        session.mqtt.subscribe("device/code", code_ran.append)
        code_before = app.vm.bytecode
        buffer_before = bytes(app._code_buffer)
        decrypted_before = session.tls.stats.records_decrypted
        replay_seq = app.cloud._next_seq()
        _send(app, frame(replay_seq, record))
        # The replay reached TLS (TCP/IP accepted its sequence) ...
        assert session.tls.stats.records_decrypted == decrypted_before + 1
        assert app.stats.dropped_out_of_order == 0
        # ... and the device/code handlers never ran.
        assert code_ran == []
        assert bytes(app._code_buffer) == buffer_before
        assert app.vm.bytecode == code_before

    def test_app_survives_and_keeps_ticking(self, connected_app):
        app = connected_app
        seq = app.cloud._next_seq()
        wire = bytearray(frame(seq, b"garbage"))
        wire[3] ^= 0x55
        _send(app, bytes(wire))
        report = app.run(duration_ms=200)
        assert report.js_ticks == 20  # still animating after the attack
