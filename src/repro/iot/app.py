"""The end-to-end IoT application (paper section 7.2.3).

A compartmentalized device: the firewall, TCP/IP stack, TLS, MQTT and
the JavaScript interpreter each live in their own compartment; every
network packet and every JS object is a separate heap allocation
protected by temporal safety.  The cloud delivers LED-animation
bytecode over TLS+MQTT; the JS program runs every 10 ms on a 20 MHz
CHERIoT-Ibex.

The device is a one-session client of the zero-copy
:class:`~repro.iot.sessions.NetPipeline`: the pipeline owns the receive
path, and this module adds the ``jsvm`` compartment to its image, the
bytecode subscriptions, and the 10 ms run loop.

The headline number is **CPU load** averaged over the run (including
the TLS connection establishment): the paper reports 17.5 %, i.e. the
idle thread gets 82.5 % of a 20 MHz core.  Our cycle accounting is
mechanistic — compartment switches, allocations and revocation through
the real machinery, protocol/crypto/interpreter work charged per byte
and per opcode — so the reproduced load lands in the same regime.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.allocator import TemporalSafetyMode
from repro.capability import Capability, Permission
from repro.pipeline import CoreKind
from .jsvm import JavaScriptVM, led_animation_bytecode
from .packets import CloudSource, Message, frame
from .sessions import NetPipeline

#: The paper's FPGA dev board clock.
CLOCK_MHZ = 20.0
#: JS animation period (paper: "invoked every 10ms to animate the LEDs").
TICK_MS = 10
#: The device's one connection to the cloud.
DEVICE_CONN = 1


@dataclass
class IoTReport:
    """Outcome of one simulated run."""

    duration_ms: int
    busy_cycles: int
    available_cycles: int
    packets_received: int
    js_ticks: int
    js_objects_allocated: int
    gc_passes: int
    revocation_passes: int
    led_final: List[int] = field(default_factory=list)

    @property
    def cpu_load(self) -> float:
        """Fraction of CPU cycles not given to the idle thread."""
        return self.busy_cycles / max(1, self.available_cycles)

    @property
    def idle_fraction(self) -> float:
        return 1.0 - self.cpu_load


class IoTApplication(NetPipeline):
    """The E6 device: a one-session receive pipeline plus the JS VM."""

    def __init__(
        self,
        core: CoreKind = CoreKind.IBEX,
        mode: TemporalSafetyMode = TemporalSafetyMode.HARDWARE,
        clock_mhz: float = CLOCK_MHZ,
        quarantine_threshold: "int | None" = None,
    ) -> None:
        super().__init__(
            core=core, mode=mode, quarantine_threshold=quarantine_threshold
        )
        self.clock_mhz = clock_mhz
        bus = self.system.bus

        def write_field(cap: Capability, fld: int, value: int) -> None:
            address = cap.base + 4 * fld
            cap.check_access(address, 4, (Permission.SD,))
            bus.write_word(address, value, 4)

        def read_field(cap: Capability, fld: int) -> int:
            address = cap.base + 4 * fld
            cap.check_access(address, 4, (Permission.LD,))
            return bus.read_word(address, 4)

        # Every JS object is a heap allocation made cross-compartment
        # from the app's main thread.
        self.vm = JavaScriptVM(
            self.system.malloc, self.system.free, write_field, read_field
        )
        self._code_buffer = bytearray()
        self.cloud = CloudSource(led_animation_bytecode())

    def _extend_image(self, loader) -> None:
        loader.add_compartment("jsvm").export("tick", self._jsvm_tick)
        loader.link("app", "jsvm", "tick")

    def _jsvm_tick(self, ctx):
        ctx.use_stack(224)
        cycles = self.vm.run_tick()
        self.system.core_model.charge(cycles)
        return self.vm.leds[:]

    @property
    def dropped_records(self) -> int:
        """Hostile/corrupt records rejected by TLS or MQTT parsing."""
        return self.stats.dropped_tls + self.stats.dropped_app

    # ------------------------------------------------------------------
    # Bytecode delivery
    # ------------------------------------------------------------------

    def _on_code_chunk(self, payload: bytes) -> None:
        self._code_buffer += payload

    def _on_code_done(self, payload: bytes) -> None:
        self.vm.load_bytecode(bytes(self._code_buffer))

    # ------------------------------------------------------------------
    # The run loop
    # ------------------------------------------------------------------

    def _deliver(self, message: Message) -> None:
        """Cloud side: seal the message and put it on the wire.

        The cloud's encryption costs nothing on the device, so the seal
        cycles are not charged; the device-side decrypt is charged in
        the TLS compartment.
        """
        tls = self.sessions[DEVICE_CONN].tls
        record, _ = tls.seal_record(message.body, message.sequence)
        self.submit(DEVICE_CONN, frame(message.sequence, record))

    def connect(self) -> None:
        """TLS connection establishment (charged like the paper's run),
        then the cloud's bytecode delivery."""
        mqtt = self.establish(DEVICE_CONN).mqtt
        mqtt.subscribe("device/code", self._on_code_chunk)
        mqtt.subscribe("device/code-done", self._on_code_done)
        mqtt.subscribe("device/poll", lambda payload: None)
        for message in self.cloud.initial_messages():
            self._deliver(message)
        self.drain()

    def run(self, duration_ms: int = 60_000) -> IoTReport:
        """Simulate ``duration_ms`` of device time (connecting first,
        unless already connected); returns the report."""
        model = self.system.core_model
        start_cycles = model.cycles
        if DEVICE_CONN not in self.sessions:
            self.connect()
        now = 0
        token_tick = self.system.app.get_import("jsvm", "tick")
        while now < duration_ms:
            for message in self.cloud.messages_for_tick(now, TICK_MS):
                self._deliver(message)
            self.drain()
            if self.vm.has_program:
                self.system.switcher.call(self.system.main_thread, token_tick)
            now += TICK_MS
        busy = model.cycles - start_cycles
        available = int(duration_ms * 1000 * self.clock_mhz)
        return IoTReport(
            duration_ms=duration_ms,
            busy_cycles=busy,
            available_cycles=available,
            # Every packet the TCP/IP stage accepted ends up delivered
            # or dropped by TLS/MQTT once the pipeline has drained.
            packets_received=self.stats.packets_delivered
            + self.dropped_records,
            js_ticks=self.vm.stats.ticks,
            js_objects_allocated=self.vm.stats.objects_allocated,
            gc_passes=self.vm.stats.gc_passes,
            revocation_passes=self.system.allocator.stats.revocation_passes,
            led_final=self.vm.leds[:],
        )
