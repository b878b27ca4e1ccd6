"""Protocol v4 wire codec: JSON frames, context/task codecs, rng specs."""

import contextlib
import socket

import numpy as np
import pytest

from repro.core.correlation_algorithm import AlgorithmOptions
from repro.eval.dist import (
    MAGIC,
    CodecError,
    ConnectionClosed,
    ProtocolError,
    decode_context,
    decode_tasks,
    encode_context,
    encode_tasks,
    recv_json_message,
    send_json_message,
)
from repro.eval.parallel import ScenarioTask, scenario_tasks
from repro.io import instance_fingerprint
from repro.simulate.experiment import ExperimentConfig
from repro.utils.rng import (
    SeedSpec,
    as_generator,
    generator_from_spec,
    generator_spec,
    spawn_children,
)


@contextlib.contextmanager
def _pipe():
    left, right = socket.socketpair()
    try:
        yield left, right
    finally:
        left.close()
        right.close()


# ----------------------------------------------------------------------
# v4 framing (JSON header, binary payload)
# ----------------------------------------------------------------------
class TestJsonFraming:
    def test_round_trip_header_and_payload(self):
        with _pipe() as (left, right):
            payload = bytes(range(256)) * 64
            send_json_message(
                left,
                {"type": "chunk", "chunk": 3, "ack": [0, 2]},
                payload,
            )
            header, received = recv_json_message(right)
        assert header == {"type": "chunk", "chunk": 3, "ack": [0, 2]}
        assert received == payload

    def test_round_trip_empty_payload(self):
        with _pipe() as (left, right):
            send_json_message(left, {"type": "end"})
            header, received = recv_json_message(right)
        assert header["type"] == "end"
        assert received == b""

    def test_header_is_utf8_json_not_pickle(self):
        with _pipe() as (left, right):
            send_json_message(left, {"type": "ready", "protocol": 4})
            magic = right.recv(4, socket.MSG_PEEK)
            assert magic == MAGIC
            raw = right.recv(1 << 16)
        # Past the 20-byte prefix the header reads as plain JSON text.
        assert raw[20:].startswith(b'{"type":"ready"')

    def test_unencodable_header_raises_before_sending(self):
        with _pipe() as (left, right):
            with pytest.raises(TypeError):
                send_json_message(left, {"type": "chunk", "bad": {1, 2}})
            left.close()
            with pytest.raises(ConnectionClosed):
                recv_json_message(right)

    def test_legacy_magic_rejected_on_v4_receive(self):
        with _pipe() as (left, right):
            left.sendall(b"RTD1" + bytes(16))
            with pytest.raises(ProtocolError, match="magic"):
                recv_json_message(right)

    def test_malformed_json_header_rejected(self):
        import struct

        blob = b"not json at all"
        with _pipe() as (left, right):
            left.sendall(
                struct.pack("!4sQQ", MAGIC, len(blob), 0) + blob
            )
            with pytest.raises(ProtocolError, match="malformed"):
                recv_json_message(right)

    def test_non_object_header_rejected(self):
        import struct

        blob = b'["type","chunk"]'
        with _pipe() as (left, right):
            left.sendall(
                struct.pack("!4sQQ", MAGIC, len(blob), 0) + blob
            )
            with pytest.raises(ProtocolError, match="JSON object"):
                recv_json_message(right)


# ----------------------------------------------------------------------
# Init-context codec
# ----------------------------------------------------------------------
class TestContextCodec:
    def test_round_trip_preserves_fingerprint_and_dataclasses(
        self, planetlab_small
    ):
        config = ExperimentConfig(n_snapshots=64, packets_per_path=100)
        options = AlgorithmOptions()
        blob = encode_context((planetlab_small, config, options))
        (instance, got_config, got_options), fingerprint = decode_context(
            blob
        )
        assert fingerprint == instance_fingerprint(planetlab_small)
        # The decoded instance fingerprints identically, so worker-side
        # cache keys and compute inputs match the coordinator's.
        assert instance_fingerprint(instance) == fingerprint
        assert got_config == config
        assert got_options == options

    def test_none_config_and_options_round_trip(self, planetlab_small):
        blob = encode_context((planetlab_small, None, None))
        (_, config, options), _ = decode_context(blob)
        assert config is None
        assert options is None

    def test_non_instance_rejected(self):
        with pytest.raises(CodecError, match="TomographyInstance"):
            encode_context(("nope", None, None))

    def test_wrong_config_type_rejected(self, planetlab_small):
        class NotConfig:
            pass

        with pytest.raises(CodecError, match="ExperimentConfig"):
            encode_context((planetlab_small, NotConfig(), None))

    def test_malformed_payload_rejected(self):
        with pytest.raises(CodecError, match="malformed"):
            decode_context(b"\xff\xfe not even text")
        with pytest.raises(CodecError, match="codec"):
            decode_context(b'{"codec": 99}')

    def test_missing_fingerprint_rejected(self):
        with pytest.raises(CodecError, match="fingerprint"):
            decode_context(b'{"codec": 1, "instance": {}}')


# ----------------------------------------------------------------------
# Task-chunk codec
# ----------------------------------------------------------------------
def _assert_seed_twin(original, decoded):
    """Bit-exact in both draw behaviour and spawn behaviour.

    ``decoded`` may be any seed-like (the task codec yields lazy
    :class:`SeedSpec` values); it is coerced the same way every engine
    consumer coerces task seeds.
    """
    if original is None:
        assert decoded is None
        return
    decoded = as_generator(decoded)
    draw_a = original.random(8)
    draw_b = decoded.random(8)
    assert np.array_equal(draw_a, draw_b)
    spawn_a = spawn_children(original, 2)
    spawn_b = spawn_children(decoded, 2)
    for child_a, child_b in zip(spawn_a, spawn_b):
        assert np.array_equal(child_a.random(4), child_b.random(4))


class TestTaskCodec:
    def test_round_trip_real_sweep_tasks(self):
        tasks = scenario_tasks(
            "clustered", {"congested_fraction": 0.1}, n_trials=3, seed=7
        )
        decoded = decode_tasks(encode_tasks(tasks))
        assert len(decoded) == len(tasks)
        for task, twin in zip(tasks, decoded):
            assert twin.group == task.group
            assert twin.factory == task.factory
            assert twin.factory_kwargs == task.factory_kwargs
            _assert_seed_twin(task.scenario_seed, twin.scenario_seed)
            _assert_seed_twin(task.run_seed, twin.run_seed)

    def test_decoded_seeds_are_lazy_specs(self):
        tasks = scenario_tasks(
            "clustered", {"congested_fraction": 0.1}, n_trials=2, seed=13
        )
        decoded = decode_tasks(encode_tasks(tasks))
        for twin in decoded:
            # Decode must not pay numpy generator reconstruction; the
            # engine materialises seeds via as_generator() at execution.
            assert isinstance(twin.scenario_seed, SeedSpec)
            assert isinstance(twin.run_seed, SeedSpec)

    def test_lazy_seed_survives_clone_then_coerce(self):
        # _execute_task clones task seeds before handing them to the
        # factories; the lazy spec must behave identically through that
        # exact path.
        import copy

        tasks = scenario_tasks(
            "clustered", {"congested_fraction": 0.1}, n_trials=1, seed=14
        )
        (twin,) = decode_tasks(encode_tasks(tasks[:1]))
        clone_a = as_generator(copy.deepcopy(twin.scenario_seed))
        clone_b = as_generator(copy.deepcopy(twin.scenario_seed))
        assert np.array_equal(clone_a.random(8), clone_b.random(8))
        _assert_seed_twin(tasks[0].scenario_seed, twin.scenario_seed)

    def test_decoded_tasks_re_encode_identically(self):
        tasks = scenario_tasks(
            "clustered", {"congested_fraction": 0.1}, n_trials=2, seed=15
        )
        blob = encode_tasks(tasks)
        assert encode_tasks(decode_tasks(blob)) == blob

    def test_decoded_tasks_get_private_kwargs_dicts(self):
        tasks = scenario_tasks(
            "clustered", {"congested_fraction": 0.1}, n_trials=2, seed=8
        )
        decoded = decode_tasks(encode_tasks(tasks))
        decoded[0].factory_kwargs["congested_fraction"] = 0.9
        assert decoded[1].factory_kwargs["congested_fraction"] == 0.1

    def test_tuples_in_kwargs_survive_exactly(self):
        task = ScenarioTask(
            group=0,
            factory="clustered",
            factory_kwargs={"pair": (1, 2), "nested": [("a", 3)]},
        )
        (twin,) = decode_tasks(encode_tasks([task]))
        assert twin.factory_kwargs["pair"] == (1, 2)
        assert isinstance(twin.factory_kwargs["pair"], tuple)
        assert twin.factory_kwargs["nested"] == [("a", 3)]
        assert isinstance(twin.factory_kwargs["nested"][0], tuple)

    def test_none_seeds_round_trip(self):
        task = ScenarioTask(group=1, factory="clustered")
        (twin,) = decode_tasks(encode_tasks([task]))
        assert twin.scenario_seed is None
        assert twin.run_seed is None

    def test_mid_stream_generator_state_round_trips(self):
        gen = as_generator(42)
        gen.random(17)  # advance past the seeded origin
        task = ScenarioTask(group=0, factory="clustered", run_seed=gen)
        import copy

        reference = copy.deepcopy(gen)
        (twin,) = decode_tasks(encode_tasks([task]))
        _assert_seed_twin(reference, twin.run_seed)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"bad": {1, 2, 3}},
            {"bad": object()},
            {"bad": np.float32(1.5)},
            {1: "non-string key"},
            {"__tuple__": ["reserved key"]},
        ],
    )
    def test_unrepresentable_kwargs_raise_codec_error(self, kwargs):
        task = ScenarioTask(
            group=0, factory="clustered", factory_kwargs=kwargs
        )
        with pytest.raises(CodecError):
            encode_tasks([task])

    def test_non_task_rejected(self):
        with pytest.raises(CodecError, match="ScenarioTask"):
            encode_tasks(["not a task"])

    def test_non_pcg64_seed_raises_codec_error(self):
        exotic = np.random.Generator(np.random.MT19937(5))
        task = ScenarioTask(
            group=0, factory="clustered", scenario_seed=exotic
        )
        with pytest.raises(CodecError, match="seed"):
            encode_tasks([task])

    def test_trailing_bytes_rejected(self):
        blob = encode_tasks(
            [ScenarioTask(group=0, factory="clustered")]
        )
        with pytest.raises(CodecError, match="trailing"):
            decode_tasks(blob + b"\x00")

    def test_wrong_codec_version_rejected(self):
        blob = bytearray(
            encode_tasks([ScenarioTask(group=0, factory="clustered")])
        )
        blob[0] = 99
        with pytest.raises(CodecError, match="codec"):
            decode_tasks(bytes(blob))

    def test_truncated_payload_rejected(self):
        tasks = scenario_tasks(
            "clustered", {"congested_fraction": 0.1}, n_trials=1, seed=9
        )
        blob = encode_tasks(tasks)
        with pytest.raises(CodecError, match="malformed"):
            decode_tasks(blob[: len(blob) // 2])


# ----------------------------------------------------------------------
# Generator spec helpers (the codec's seed transport)
# ----------------------------------------------------------------------
class TestGeneratorSpec:
    def test_spec_round_trip_draws_and_spawns(self):
        original = as_generator(123)
        original.random(5)
        twin = generator_from_spec(generator_spec(original))
        _assert_seed_twin(original, twin)

    def test_spawned_child_round_trips(self):
        (child,) = spawn_children(11, 1)
        twin = generator_from_spec(generator_spec(child))
        _assert_seed_twin(child, twin)

    def test_spawn_counter_is_preserved(self):
        gen = as_generator(3)
        spawn_children(gen, 2)  # advance the children counter
        twin = generator_from_spec(generator_spec(gen))
        _assert_seed_twin(gen, twin)

    def test_non_generator_rejected(self):
        with pytest.raises(ValueError, match="Generator"):
            generator_spec(17)

    def test_non_pcg64_rejected(self):
        with pytest.raises(ValueError, match="PCG64"):
            generator_spec(np.random.Generator(np.random.MT19937(1)))
