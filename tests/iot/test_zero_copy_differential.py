"""Differential proof: zero-copy changes cycle cost, never behaviour.

The zero-copy rebuild of the receive path is an optimisation with a
contract: for identical wire input, the application must observe
*identical* messages, state and drop accounting under both
disciplines — only the cycle economics may differ.  This suite holds
the pipeline (the one receive path, which the E6 application also
runs on) to that contract, and pins the fleet device sample (which
embeds a net-traffic phase) across execution tiers.
"""

import json

import pytest

from repro.fleet.device import DeviceSpec, run_device
from repro.iot.loadgen import NetLoadGen, drive
from repro.iot.sessions import NetPipeline


def _pipeline_observables(zero_copy: bool) -> dict:
    pipeline = NetPipeline(zero_copy=zero_copy, collect_messages=True)
    pipeline.establish_many(range(1, 17))
    gen = NetLoadGen(
        range(1, 17), seed=20260807, corrupt_rate=0.15, reorder_rate=0.15
    )
    drive(pipeline, gen, rounds=3)
    stats = pipeline.stats
    return {
        "messages": pipeline.messages,
        "per_session": {
            conn_id: (
                session.delivered,
                session.delivered_bytes,
                session.expected_seq,
            )
            for conn_id, session in sorted(pipeline.sessions.items())
        },
        "packets_in": stats.packets_in,
        "packets_delivered": stats.packets_delivered,
        "payload_bytes_delivered": stats.payload_bytes_delivered,
        "dropped_corrupt": stats.dropped_corrupt,
        "dropped_out_of_order": stats.dropped_out_of_order,
        "dropped_tls": stats.dropped_tls,
        "dropped_app": stats.dropped_app,
        "crypto_cycles": stats.cycles_crypto,
    }


class TestScaledPipelineDifferential:
    def test_pipeline_behaviour_identical_across_disciplines(self):
        zero = _pipeline_observables(True)
        copy = _pipeline_observables(False)
        assert zero == copy
        assert zero["packets_delivered"] > 0
        assert zero["dropped_corrupt"] > 0  # the faults actually fired

    def test_cycles_differ_where_they_should(self):
        """The disciplines are not accidentally the same code path."""
        zero = NetPipeline(zero_copy=True)
        copy = NetPipeline(zero_copy=False)
        for pipeline in (zero, copy):
            pipeline.establish_many(range(1, 5))
            gen = NetLoadGen(range(1, 5), seed=1)
            drive(pipeline, gen, rounds=2)
        assert copy.stats.allocs > zero.stats.allocs
        assert copy.stats.cycles_driver > zero.stats.cycles_driver
        assert zero.stats.narrowings > 0
        assert copy.stats.narrowings == 0


class TestTierDifferential:
    """The device sample — net phase included — across execution tiers.

    The fleet's byte-identity contract says the execution tier of the
    device's CPU kernel can never leak into its report; the net phase
    rides the same sample, so it inherits the obligation.
    """

    @pytest.mark.parametrize("device_id", [0, 3])
    def test_device_sample_tier_invariant(self, device_id):
        jit = run_device(
            DeviceSpec(device_id=device_id, fleet_seed=20260807,
                       trace_jit=True)
        )
        interp = run_device(
            DeviceSpec(device_id=device_id, fleet_seed=20260807,
                       trace_jit=False)
        )
        assert json.dumps(jit, sort_keys=True) == json.dumps(
            interp, sort_keys=True
        )
        assert jit["net"]["counters"]["packets_delivered"] > 0

    def test_device_sample_run_to_run_stable(self):
        spec = DeviceSpec(device_id=1, fleet_seed=20260807)
        assert json.dumps(run_device(spec), sort_keys=True) == json.dumps(
            run_device(spec), sort_keys=True
        )
